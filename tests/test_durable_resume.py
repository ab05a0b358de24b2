"""The durable sweep path end to end: journaled runs, resume, recovery.

Exercises :func:`repro.farm.points.run_points` with ``journal=`` — the
tentpole contract: a journaled run is bit-identical to a plain one, a
resumed run is bit-identical to an uninterrupted one, every recovery
corner (sealed journal, crash between cache-put and journal-append,
cache entries lost behind done records, exhausted retry budgets, live
foreign leases) lands where the design says it must.
"""

from __future__ import annotations

import time

import pytest

from repro.core.config import base_architecture
from repro.durable import DurableSettings, RunJournal, owner_id
from repro.durable.journal import read_records, replay_records
from repro.errors import FarmError, JournalError
from repro.farm.cache import ResultCache
from repro.farm.context import farm_session
from repro.farm.points import PointSpec, run_points
from repro.farm.telemetry import RunTelemetry
from repro.trace.benchmarks import default_suite


def make_specs(n=2, instructions=2500):
    config = base_architecture()
    return [PointSpec(label=f"p{i}", config=config,
                      profiles=tuple(default_suite(instructions + 100 * i)[:1]),
                      time_slice=2000)
            for i in range(n)]


def journal_file(journal_dir):
    wals = sorted(journal_dir.glob("*.wal"))
    assert len(wals) == 1
    return wals[0]


def quiet_telemetry():
    return RunTelemetry(stream=None)


# ----------------------------------------------------------- plain vs WAL


def test_journaled_run_matches_plain_run(tmp_path):
    specs = make_specs()
    plain = run_points(specs, cache=ResultCache(tmp_path / "c1"))
    journaled = run_points(specs, cache=ResultCache(tmp_path / "c2"),
                           journal=tmp_path / "j")
    assert [s.to_dict() for s in plain] == [s.to_dict() for s in journaled]

    records, torn = read_records(journal_file(tmp_path / "j"))
    assert torn == 0
    state = replay_records(records)
    assert state.sealed
    assert sorted(state.done) == [0, 1]
    kinds = [r["rec"] for r in records]
    assert kinds[0] == "run_open" and kinds[-1] == "run_sealed"
    # Serial WAL ordering: claim before done, one pair per point.
    assert kinds[1:-1] == ["point_claimed", "point_done"] * len(specs)


def test_sealed_journal_resumes_from_cache_only(tmp_path):
    specs = make_specs()
    cache = ResultCache(tmp_path / "cache")
    first = run_points(specs, cache=cache, journal=tmp_path / "j")
    before = len(read_records(journal_file(tmp_path / "j"))[0])

    telemetry = quiet_telemetry()
    second = run_points(specs, cache=cache, journal=tmp_path / "j",
                        telemetry=telemetry)
    assert [s.to_dict() for s in first] == [s.to_dict() for s in second]
    # Everything came back from journal+cache — no point simulated.
    assert all(e["cached"] for e in telemetry.events
               if e["kind"] == "point")
    records, _ = read_records(journal_file(tmp_path / "j"))
    # The resume leaves an audit record and nothing else: no new claims,
    # no re-executions.
    assert [r["rec"] for r in records[before:]] == ["run_resumed"]
    assert replay_records(records).sealed


def test_recovers_crash_between_cache_put_and_journal_done(tmp_path):
    specs = make_specs()
    keys = [spec.key() for spec in specs]
    cache = ResultCache(tmp_path / "cache")
    # Reference results (separate cache: this is the ground truth).
    truth = [s.to_dict()
             for s in run_points(specs, cache=ResultCache(tmp_path / "t"))]

    # Stage the crash signature by hand: the journal shows a claim for
    # point 0 but no done record, while the cache already holds the
    # result — exactly the state left by dying between put() and done().
    run_points(specs, cache=cache)   # fills the cache
    journal = RunJournal(tmp_path / "j" / "run.wal")
    journal.open_run(keys, [s.label for s in specs])
    journal.append("point_claimed", index=0, key=keys[0],
                   owner=owner_id(pid=1), lease_s=30.0,
                   deadline_unix=time.time() - 5.0, attempt=1)
    journal.close()

    telemetry = quiet_telemetry()
    results = run_points(specs, cache=cache,
                         journal=tmp_path / "j" / "run.wal",
                         telemetry=telemetry)
    assert [s.to_dict() for s in results] == truth
    # Nothing re-simulated: the cache answered, the journal caught up.
    assert all(e["cached"] for e in telemetry.events
               if e["kind"] == "point")
    records, _ = read_records(tmp_path / "j" / "run.wal")
    state = replay_records(records)
    assert state.sealed and sorted(state.done) == [0, 1]


def test_done_record_with_lost_cache_entry_is_reexecuted(tmp_path):
    specs = make_specs()
    cache = ResultCache(tmp_path / "cache")
    first = run_points(specs, cache=cache, journal=tmp_path / "j")
    # The cache loses point 0's entry after it was journaled done.
    cache.path_for(specs[0].key()).unlink()

    results = run_points(specs, cache=cache, journal=tmp_path / "j")
    assert [s.to_dict() for s in results] == [s.to_dict() for s in first]
    # The entry is durably back and the journal re-sealed.
    assert cache.path_for(specs[0].key()).exists()
    records, _ = read_records(journal_file(tmp_path / "j"))
    state = replay_records(records)
    assert state.sealed
    # Point 0 has two done records (the demoted one and the fresh one);
    # point 1 still has exactly one.
    dones = [r["index"] for r in records if r["rec"] == "point_done"]
    assert dones.count(0) == 2 and dones.count(1) == 1


# ----------------------------------------------------------- hard refusals


def test_journal_requires_cache(tmp_path):
    specs = make_specs(1)
    with pytest.raises(JournalError, match="cache"):
        run_points(specs, cache=None, journal=tmp_path / "j")
    with pytest.raises(JournalError, match="cache"):
        with farm_session(no_cache=True, journal=tmp_path / "j",
                          quiet=True):
            pass


def test_live_foreign_lease_refuses_resume(tmp_path):
    specs = make_specs(1)
    keys = [spec.key() for spec in specs]
    journal = RunJournal(tmp_path / "run.wal")
    journal.open_run(keys, [s.label for s in specs])
    journal.append("point_claimed", index=0, key=keys[0],
                   owner="someother-host:4242", lease_s=3600.0,
                   deadline_unix=time.time() + 3600.0, attempt=1)
    journal.close()

    with pytest.raises(JournalError, match="live lease"):
        run_points(specs, cache=ResultCache(tmp_path / "cache"),
                   journal=tmp_path / "run.wal")


def test_expired_foreign_lease_is_reclaimed(tmp_path):
    specs = make_specs(1)
    keys = [spec.key() for spec in specs]
    journal = RunJournal(tmp_path / "run.wal")
    journal.open_run(keys, [s.label for s in specs])
    journal.append("point_claimed", index=0, key=keys[0],
                   owner="someother-host:4242", lease_s=1.0,
                   deadline_unix=time.time() - 10.0, attempt=1)
    journal.close()

    results = run_points(specs, cache=ResultCache(tmp_path / "cache"),
                         journal=tmp_path / "run.wal")
    assert len(results) == 1 and results[0] is not None
    records, _ = read_records(tmp_path / "run.wal")
    reclaims = [r for r in records if r["rec"] == "point_reclaimed"]
    assert len(reclaims) == 1
    assert reclaims[0]["reason"] == "lease_expired"
    assert replay_records(records).sealed


def test_retry_budget_counted_across_resumes(tmp_path):
    specs = make_specs(1)
    keys = [spec.key() for spec in specs]
    settings = DurableSettings(max_point_retries=2)
    # A journal whose history already burned both attempts (each one
    # claimed, then reclaimed after a crash) across previous lives.
    journal = RunJournal(tmp_path / "run.wal")
    journal.open_run(keys, [s.label for s in specs])
    for attempt in (1, 2):
        journal.append("point_claimed", index=0, key=keys[0],
                       owner=owner_id(pid=1), lease_s=1.0,
                       deadline_unix=time.time() - 5.0, attempt=attempt)
        journal.append("point_reclaimed", index=0, owner=owner_id(pid=1),
                       reason="lease_expired")
    journal.close()

    with pytest.raises(FarmError, match="retry budget"):
        run_points(specs, cache=ResultCache(tmp_path / "cache"),
                   journal=tmp_path / "run.wal", durable=settings)
    records, _ = read_records(tmp_path / "run.wal")
    failures = [r for r in records if r["rec"] == "point_failed"]
    assert failures and "retry budget" in failures[0]["error"]


def test_parallel_journaled_run_matches_serial(tmp_path):
    specs = make_specs(3)
    serial = run_points(specs, cache=ResultCache(tmp_path / "c1"))
    parallel = run_points(specs, jobs=2,
                          cache=ResultCache(tmp_path / "c2"),
                          journal=tmp_path / "j",
                          durable=DurableSettings(lease_s=30.0,
                                                  heartbeat_s=1.0))
    assert [s.to_dict() for s in serial] == [s.to_dict() for s in parallel]
    state = replay_records(read_records(journal_file(tmp_path / "j"))[0])
    assert state.sealed and sorted(state.done) == [0, 1, 2]
