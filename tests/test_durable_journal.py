"""The write-ahead run journal: records, checksums, torn tails, replay.

Covers the journal file format (``repro.durable.journal``) in isolation:
append/read round-trips, the torn-final-line tolerance vs mid-file
corruption distinction, sequence-gap and version checks, the
single-coordinator file lock, content-addressed journal resolution — and
the replay-idempotency property test: replaying any prefix of a journal
is pure, deterministic, and monotone in ``done`` (no point ever becomes
runnable again once a ``point_done`` record exists).
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.durable.cli import main as durable_main
from repro.durable.journal import (
    JOURNAL_MAGIC,
    JOURNAL_VERSION,
    JournalState,
    RunJournal,
    read_records,
    replay_records,
    resolve_journal,
    stats_sha256,
    sweep_sha256,
)
from repro.errors import JournalError

KEYS = ["k0" * 32, "k1" * 32, "k2" * 32]
LABELS = ["p0", "p1", "p2"]


def open_journal(tmp_path, name="run.wal", keys=KEYS, labels=LABELS):
    journal = RunJournal(tmp_path / name)
    state, resumed = journal.open_run(keys, labels)
    return journal, state, resumed


# --------------------------------------------------------------- round trip


def test_open_append_read_roundtrip(tmp_path):
    journal, state, resumed = open_journal(tmp_path)
    assert not resumed
    assert state.point_keys == KEYS
    journal.append("point_claimed", index=0, key=KEYS[0], owner="h:1",
                   lease_s=30.0, deadline_unix=1e12, attempt=1)
    journal.append("point_done", index=0, key=KEYS[0], cache_key=KEYS[0],
                   stats_sha256="ab" * 32)
    journal.close()

    records, torn = read_records(journal.path)
    assert torn == 0
    assert [r["rec"] for r in records] == ["run_open", "point_claimed",
                                           "point_done"]
    assert [r["seq"] for r in records] == [0, 1, 2]
    replayed = replay_records(records)
    assert replayed.done == {0: "ab" * 32}
    assert replayed.todo() == [1, 2]
    assert replayed.claims == {}


def test_reopen_resumes_and_validates_sweep(tmp_path):
    journal, _, _ = open_journal(tmp_path)
    journal.append("point_done", index=1, key=KEYS[1], cache_key=KEYS[1],
                   stats_sha256="cd" * 32)
    journal.close()

    journal2 = RunJournal(journal.path)
    state, resumed = journal2.open_run(KEYS, LABELS)
    assert resumed
    assert state.done == {1: "cd" * 32}
    # Appends continue the sequence instead of restarting it.
    record = journal2.append("run_sealed", done=1)
    assert record["seq"] == 2
    journal2.close()

    journal3 = RunJournal(journal.path)
    with pytest.raises(JournalError, match="different sweep"):
        journal3.open_run(["zz" * 32], ["other"])
    journal3.close()


def test_missing_file_reads_empty(tmp_path):
    assert read_records(tmp_path / "nope.wal") == ([], 0)


# ------------------------------------------------------- damage taxonomy


def test_torn_final_line_is_dropped(tmp_path):
    journal, _, _ = open_journal(tmp_path)
    journal.append("point_claimed", index=0, key=KEYS[0], owner="h:1",
                   lease_s=30.0, deadline_unix=1e12, attempt=1)
    journal.close()
    with open(journal.path, "a", encoding="utf-8") as fh:
        fh.write('{"seq": 2, "rec": "point_do')   # mid-append crash

    records, torn = read_records(journal.path)
    assert torn == 1
    assert len(records) == 2   # the torn transition never happened


def test_mid_file_corruption_refuses_resume(tmp_path):
    journal, _, _ = open_journal(tmp_path)
    journal.append("point_claimed", index=0, key=KEYS[0], owner="h:1",
                   lease_s=30.0, deadline_unix=1e12, attempt=1)
    journal.append("point_done", index=0, key=KEYS[0], cache_key=KEYS[0],
                   stats_sha256="ab" * 32)
    journal.close()
    lines = journal.path.read_text(encoding="utf-8").splitlines()
    lines[1] = lines[1].replace('"point_claimed"', '"point_clonked"')
    journal.path.write_text("\n".join(lines) + "\n", encoding="utf-8")

    with pytest.raises(JournalError, match="corrupt"):
        read_records(journal.path)


def test_checksum_flip_detected(tmp_path):
    journal, _, _ = open_journal(tmp_path)
    journal.append("run_sealed", done=0)
    journal.close()
    lines = journal.path.read_text(encoding="utf-8").splitlines()
    lines[0] = lines[0].replace('"run_id":"', '"run_id":"f')
    journal.path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(JournalError, match="corrupt"):
        read_records(journal.path)


def test_sequence_gap_detected(tmp_path):
    journal, _, _ = open_journal(tmp_path)
    journal.append("point_claimed", index=0, key=KEYS[0], owner="h:1",
                   lease_s=30.0, deadline_unix=1e12, attempt=1)
    journal.append("run_sealed", done=0)
    journal.close()
    lines = journal.path.read_text(encoding="utf-8").splitlines()
    del lines[1]   # a record vanished from the middle
    journal.path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(JournalError, match="sequence gap"):
        read_records(journal.path)


def test_version_mismatch_refuses_resume(tmp_path):
    journal, _, _ = open_journal(tmp_path)
    journal.append("run_sealed", done=0)
    journal.close()
    lines = journal.path.read_text(encoding="utf-8").splitlines()
    head = json.loads(lines[0])
    head["version"] = JOURNAL_VERSION + 1
    head.pop("sha256")
    from repro.durable.journal import _record_digest

    head["sha256"] = _record_digest(head)
    lines[0] = json.dumps(head, sort_keys=True, separators=(",", ":"))
    journal.path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(JournalError, match="schema version"):
        read_records(journal.path)


def test_not_a_journal_refuses(tmp_path):
    path = tmp_path / "x.wal"
    journal, _, _ = open_journal(tmp_path)
    journal.append("run_sealed", done=0)
    journal.close()
    lines = journal.path.read_text(encoding="utf-8").splitlines()
    path.write_text(lines[1] + "\n", encoding="utf-8")  # no run_open head
    with pytest.raises(JournalError, match="sequence gap|run_open"):
        read_records(path)


# ------------------------------------------------------ locking/resolution


def test_one_coordinator_per_journal(tmp_path):
    journal, _, _ = open_journal(tmp_path)
    try:
        second = RunJournal(journal.path)
        with pytest.raises(JournalError, match="locked by another"):
            second.open_run(KEYS, LABELS)
    finally:
        journal.close()
    # The lock dies with the holder: a fresh open succeeds now.
    third = RunJournal(journal.path)
    _, resumed = third.open_run(KEYS, LABELS)
    assert resumed
    third.close()


def test_resolve_journal_file_vs_directory(tmp_path):
    explicit = resolve_journal(tmp_path / "mine.wal", KEYS)
    assert explicit.path == tmp_path / "mine.wal"
    auto = resolve_journal(tmp_path / "journals", KEYS)
    assert auto.path.parent == tmp_path / "journals"
    assert auto.path.name == f"{sweep_sha256(KEYS)[:16]}.wal"
    # Same sweep -> same file (that is what makes auto-resume work);
    # different sweep -> different file.
    assert resolve_journal(tmp_path / "journals", KEYS).path == auto.path
    other = resolve_journal(tmp_path / "journals", list(reversed(KEYS)))
    assert other.path != auto.path
    passthrough = RunJournal(tmp_path / "given.wal")
    assert resolve_journal(passthrough, KEYS) is passthrough


def test_append_requires_open(tmp_path):
    journal = RunJournal(tmp_path / "x.wal")
    with pytest.raises(JournalError, match="not open"):
        journal.append("run_sealed", done=0)
    with pytest.raises(JournalError, match="unknown journal record"):
        RunJournal(tmp_path / "y.wal").append("point_exploded")


def test_inspect_counts_every_point_once(tmp_path, capsys):
    """``repro-durable inspect``: done, claimed, failed and todo partition
    the points, in the text and in the ``--json`` output."""
    keys = KEYS + ["k3" * 32]
    journal, _, _ = open_journal(tmp_path, keys=keys, labels=LABELS + ["p3"])
    journal.append("point_done", index=0, key=keys[0], cache_key=keys[0],
                   stats_sha256="ab" * 32)
    journal.append("point_claimed", index=1, key=keys[1], owner="h:1",
                   lease_s=30.0, deadline_unix=1e12, attempt=1)
    journal.append("point_failed", index=2, error="boom", attempt=1)
    journal.close()

    assert durable_main(["inspect", str(journal.path)]) == 0
    assert "points   : 4  done=1 claimed=1 failed=1 todo=1" \
        in capsys.readouterr().out
    assert durable_main(["inspect", str(journal.path), "--json"]) == 0
    summary = json.loads(capsys.readouterr().out)
    counts = [summary[k] for k in ("done", "claimed", "failed", "todo")]
    assert counts == [1, 1, 1, 1]
    assert sum(counts) == summary["points"]


def test_stats_sha256_is_canonical():
    assert (stats_sha256({"a": 1, "b": 2})
            == stats_sha256({"b": 2, "a": 1}))
    assert stats_sha256({"a": 1}) != stats_sha256({"a": 2})


# -------------------------------------------------- replay state semantics


def _record(seq, rec, **fields):
    return {"seq": seq, "rec": rec, "t": 0.0, **fields}


def _open_record(n=3):
    return _record(0, "run_open", magic=JOURNAL_MAGIC,
                   version=JOURNAL_VERSION, run_id="r", meta={},
                   sweep_sha256=sweep_sha256(KEYS[:n]),
                   points=[{"label": f"p{i}", "key": KEYS[i]}
                           for i in range(n)])


def test_done_is_terminal_against_late_claims():
    state = replay_records([
        _open_record(),
        _record(1, "point_claimed", index=0, key=KEYS[0], owner="h:1",
                lease_s=30.0, deadline_unix=1e12, attempt=1),
        _record(2, "point_done", index=0, key=KEYS[0], cache_key=KEYS[0],
                stats_sha256="ab" * 32),
        # A late claim lands after done: it must not resurrect the point.
        _record(3, "point_claimed", index=0, key=KEYS[0], owner="h:2",
                lease_s=30.0, deadline_unix=1e12, attempt=2),
    ])
    assert 0 in state.done
    assert 0 not in state.claims
    assert 0 not in state.todo()
    assert state.attempts[0] == 2   # the attempt still counts for budget


def test_claim_clears_failed_and_unseals():
    state = replay_records([
        _open_record(),
        _record(1, "point_failed", index=2, error="boom", attempt=3),
        _record(2, "run_sealed", done=0),
        _record(3, "point_claimed", index=2, key=KEYS[2], owner="h:1",
                lease_s=30.0, deadline_unix=1e12, attempt=4),
    ])
    assert state.failed == {}
    assert not state.sealed
    assert 2 in state.claims


def test_out_of_range_index_raises():
    with pytest.raises(JournalError, match="outside"):
        replay_records([
            _open_record(),
            _record(1, "point_done", index=9, key="x", cache_key="x",
                    stats_sha256="ab" * 32),
        ])


def test_record_before_open_raises():
    with pytest.raises(JournalError, match="before run_open"):
        replay_records([_record(0, "run_sealed", done=0)])


# ------------------------------------------- replay idempotency (property)

_N_POINTS = 3


@st.composite
def _journal_tail(draw):
    """A legal-ish record tail: indices always in range, arbitrary order
    of claims/renewals/reclaims/dones/failures/seals."""
    ops = draw(st.lists(
        st.tuples(
            st.sampled_from(["point_claimed", "lease_renewed",
                             "point_reclaimed", "point_done",
                             "point_failed", "run_resumed", "run_sealed"]),
            st.integers(min_value=0, max_value=_N_POINTS - 1)),
        max_size=24))
    records = [_open_record(_N_POINTS)]
    for seq, (rec, index) in enumerate(ops, start=1):
        fields = {"index": index}
        if rec == "point_claimed":
            fields.update(key=KEYS[index], owner=f"h:{index}",
                          lease_s=30.0, deadline_unix=1e12,
                          attempt=1)
        elif rec == "lease_renewed":
            fields.update(owner=f"h:{index}", deadline_unix=1e12)
        elif rec == "point_reclaimed":
            fields.update(owner=f"h:{index}", reason="lease_expired")
        elif rec == "point_done":
            fields.update(key=KEYS[index], cache_key=KEYS[index],
                          stats_sha256=f"{index:02x}" * 32)
        elif rec == "point_failed":
            fields.update(error="boom", attempt=1)
        elif rec == "run_resumed":
            fields = {"owner": "h:0", "replayed": 0, "reclaimed": 0}
        else:   # run_sealed
            fields = {"done": 0}
        records.append(_record(seq, rec, **fields))
    return records


def _snapshot(state: JournalState):
    return (dict(state.done),
            {i: (c.owner, c.deadline_unix) for i, c in state.claims.items()},
            dict(state.attempts), dict(state.failed), state.sealed,
            tuple(state.todo()))


@settings(max_examples=200, deadline=None)
@given(_journal_tail())
def test_replay_is_idempotent_and_done_is_monotone(records):
    """The recovery contract, as a property over arbitrary journals:

    1. replay is a pure function of the prefix — replaying the same
       prefix twice converges to identical state (what makes crash ->
       re-replay loops safe);
    2. incremental replay (resume then apply the tail) equals batch
       replay (no hidden state outside ``JournalState``);
    3. ``done`` is monotone: once a prefix shows ``point_done`` for an
       index, no longer prefix ever has that index in ``todo()`` again —
       i.e. no point is ever executed twice past its done record.
    """
    done_so_far = set()
    for k in range(1, len(records) + 1):
        prefix = records[:k]
        once = replay_records(prefix)
        twice = replay_records(prefix)
        assert _snapshot(once) == _snapshot(twice)

        # Incremental == batch: replay a shorter prefix, apply the rest.
        half = replay_records(prefix[:k // 2 + 1])
        for record in prefix[k // 2 + 1:]:
            half.apply(record)
        assert _snapshot(half) == _snapshot(once)

        for index in list(done_so_far):
            assert index in once.done, \
                f"point {index} was done and became undone at prefix {k}"
            assert index not in once.todo()
        done_so_far.update(once.done)
