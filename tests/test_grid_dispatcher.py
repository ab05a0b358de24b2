"""The grid dispatcher against scriptable fake backends: bit-identical
results, retries, hedged re-dispatch reconciliation, the local-fallback
guarantee that no point is ever lost, and ``run_points``' cache, journal
and telemetry around grid-executed points."""

import json
import threading
import time
from collections import Counter
from dataclasses import replace

import pytest

from repro.core.config import base_architecture
from repro.durable.journal import read_records, replay_records
from repro.errors import GridError, ServeError
from repro.farm.cache import ResultCache
from repro.farm.points import PointSpec, run_points
from repro.farm.telemetry import RunTelemetry
from repro.grid.dispatcher import GridDispatcher, GridSettings
from repro.serve.protocol import parse_simulate_request
from repro.trace.benchmarks import default_suite

SUITE = tuple(default_suite(3000)[:1])


def specs(n=4):
    """n distinct points (distinct workload sizes -> distinct keys)."""
    config = base_architecture()
    return [PointSpec(label=f"p{i}", config=config,
                      profiles=tuple(default_suite(3000 + 200 * i)[:1]),
                      time_slice=2000)
            for i in range(n)]


def serial(point_specs):
    return [s.to_dict() for s in run_points(point_specs)]


class FakeServeClient:
    """A faithful backend stand-in: parses the wire body exactly like
    the real server and simulates the point in-process.  A per-URL
    ``behavior(body)`` hook runs first (to sleep or raise); a
    ``mangle(response)`` hook runs last (to corrupt the payload)."""

    behaviors = {}
    mangles = {}
    calls = {}

    def __init__(self, url):
        self.url = url

    def readiness(self, timeout_s=None):
        return True, {"queue_depth": 0, "in_flight": 0}

    def simulate(self, body, budget_s=None):
        FakeServeClient.calls.setdefault(self.url, []).append(dict(body))
        behavior = FakeServeClient.behaviors.get(self.url)
        if behavior is not None:
            behavior(body)
        from repro.core.stats import SimStats
        from repro.farm.points import execute_point
        from repro.serve.protocol import render_result

        spec, _, _ = parse_simulate_request(json.dumps(body).encode())
        value = execute_point(spec.payload())
        response = render_result(spec, SimStats.from_dict(value["stats"]),
                                 key=spec.key(), cached=False,
                                 wall_s=value["wall_s"])
        mangle = FakeServeClient.mangles.get(self.url)
        if mangle is not None:
            mangle(response)
        return response


@pytest.fixture(autouse=True)
def _reset_fakes():
    FakeServeClient.behaviors = {}
    FakeServeClient.mangles = {}
    FakeServeClient.calls = {}
    yield


def dispatcher(urls, **settings_kwargs):
    settings_kwargs.setdefault("probe_interval_s", 60.0)
    settings_kwargs.setdefault("attempt_budget_s", 10.0)
    # Hedging off unless the test is about hedging: the fakes simulate
    # in-process, so genuine CPU contention would otherwise trip the
    # adaptive straggler threshold and break exact call-count asserts.
    settings_kwargs.setdefault("hedge_after_s", 60.0)
    return GridDispatcher(list(urls),
                          settings=GridSettings(**settings_kwargs),
                          client_factory=FakeServeClient)


class TestHappyPath:
    def test_bit_identical_to_serial_in_input_order(self):
        wanted = specs(4)
        truth = serial(wanted)
        with dispatcher(["http://a", "http://b"]) as grid:
            got = grid.run_points(wanted)
        assert [s.to_dict() for s in got] == truth
        # All four points went over the wire, spread across both nodes
        # (the exact split depends on thread scheduling).
        total = sum(len(c) for c in FakeServeClient.calls.values())
        assert total == 4
        assert set(FakeServeClient.calls) == {"http://a", "http://b"}

    def test_cache_short_circuits_dispatch(self, tmp_path):
        wanted = specs(2)
        cache = ResultCache(tmp_path / "cache")
        truth = serial(wanted)
        for spec, stats_dict in zip(wanted, truth):
            from repro.core.stats import SimStats

            cache.put(spec.key(), SimStats.from_dict(stats_dict))
        grid = GridDispatcher(["http://a"], client_factory=FakeServeClient)
        with grid:
            got = run_points(wanted, cache=cache, dispatcher=grid)
        assert [s.to_dict() for s in got] == truth
        assert FakeServeClient.calls == {}          # nothing dispatched

    def test_results_land_in_the_cache(self, tmp_path):
        wanted = specs(1)
        cache = ResultCache(tmp_path / "cache")
        grid = GridDispatcher(["http://a"], client_factory=FakeServeClient)
        with grid:
            got = run_points(wanted, cache=cache, dispatcher=grid)
        assert cache.get(wanted[0].key()).to_dict() == got[0].to_dict()


def journal_records(journal_dir):
    wals = sorted(journal_dir.glob("*.wal"))
    assert len(wals) == 1
    records, torn = read_records(wals[0])
    assert torn == 0
    return records


def count(records, rec):
    return Counter(r["index"] for r in records if r["rec"] == rec)


class TestSweepPath:
    """run_points owns the cache, journal and telemetry of grid points;
    the dispatcher (built without any of them) only runs the misses."""

    def test_cache_and_telemetry_wrap_grid_points(self, tmp_path):
        wanted = specs(3)
        truth = serial(wanted)
        cache = ResultCache(tmp_path / "cache")
        telemetry = RunTelemetry(stream=None)
        with dispatcher(["http://a", "http://b"]) as grid:
            got = run_points(wanted, cache=cache, telemetry=telemetry,
                             dispatcher=grid)
            assert [s.to_dict() for s in got] == truth
            assert sum(len(c) for c in FakeServeClient.calls.values()) == 3
            metas = sorted((meta for _, meta in cache.entries()),
                           key=lambda meta: meta["label"])
            assert [m["label"] for m in metas] == ["p0", "p1", "p2"]
            assert {m["source"] for m in metas} == {"grid"}
            for spec, stats in zip(wanted, truth):
                assert cache.get(spec.key()).to_dict() == stats
            points = telemetry.registry.counter(
                "farm_points_total", labels=("source",))
            assert points.value_of("simulated") == 3

            FakeServeClient.calls = {}
            again = run_points(wanted, cache=cache, telemetry=telemetry,
                               dispatcher=grid)
        assert [s.to_dict() for s in again] == truth
        assert FakeServeClient.calls == {}          # nothing dispatched
        assert points.value_of("cached") == 3
        assert grid._m_points.value_of("remote") == 3

    def test_journaled_grid_sweep_seals_and_replays(self, tmp_path):
        wanted = specs(3)
        truth = serial(wanted)
        cache = ResultCache(tmp_path / "cache")
        telemetry = RunTelemetry(stream=None)
        with dispatcher(["http://a", "http://b"]) as grid:
            got = run_points(wanted, cache=cache, telemetry=telemetry,
                             dispatcher=grid, journal=tmp_path / "j")
            assert [s.to_dict() for s in got] == truth
            records = journal_records(tmp_path / "j")
            assert count(records, "point_claimed") == {0: 1, 1: 1, 2: 1}
            assert count(records, "point_done") == {0: 1, 1: 1, 2: 1}
            assert replay_records(records).sealed

            FakeServeClient.calls = {}
            again = run_points(wanted, cache=cache, telemetry=telemetry,
                               dispatcher=grid, journal=tmp_path / "j")
        assert [s.to_dict() for s in again] == truth
        assert FakeServeClient.calls == {}          # nothing dispatched
        rerun = journal_records(tmp_path / "j")[len(records):]
        assert [r["rec"] for r in rerun] == ["run_resumed"]
        assert rerun[0]["replayed"] == 3
        # The durable counters land in the caller's telemetry registry.
        replayed = telemetry.registry.counter(
            "durable_replayed_points_total")
        assert replayed.value == 3

    def test_lost_point_is_journaled_failed_and_unsealed(self, tmp_path):
        wanted = specs(1)

        def refuse(body):
            raise ServeError("connection refused", status=0)

        FakeServeClient.behaviors["http://a"] = refuse
        FakeServeClient.behaviors["http://b"] = refuse
        with dispatcher(["http://a", "http://b"], quarantine_after=1,
                        max_remote_attempts=1,
                        local_fallback=False) as grid:
            with pytest.raises(GridError):
                run_points(wanted, cache=ResultCache(tmp_path / "cache"),
                           dispatcher=grid, journal=tmp_path / "j")
        records = journal_records(tmp_path / "j")
        assert count(records, "point_claimed") == {0: 1}
        assert count(records, "point_failed") == {0: 1}
        assert not count(records, "point_done")
        assert not replay_records(records).sealed


class TestRetries:
    def test_transient_failure_retries_on_another_node(self):
        wanted = specs(2)
        truth = serial(wanted)

        def refuse(body):
            raise ServeError("connection refused", status=0)

        FakeServeClient.behaviors["http://a"] = refuse
        with dispatcher(["http://a", "http://b"],
                        quarantine_after=10) as grid:
            got = grid.run_points(wanted)
        assert [s.to_dict() for s in got] == truth
        bad = next(n for n in grid.registry.nodes if n.url == "http://a")
        assert bad.failures_total >= 1
        assert grid._m_points.value_of("remote") >= 2

    def test_corrupted_payload_is_a_node_failure_not_a_result(self):
        wanted = specs(1)
        truth = serial(wanted)

        def corrupt(response):
            response["stats"] = dict(response["stats"],
                                     instructions=10**9)

        FakeServeClient.mangles["http://a"] = corrupt
        with dispatcher(["http://a", "http://b"]) as grid:
            got = grid.run_points(wanted)
        assert [s.to_dict() for s in got] == truth
        assert grid._m_dispatch.value_of("http://a", "invalid") >= 1

    def test_wrong_key_is_rejected(self):
        wanted = specs(1)
        truth = serial(wanted)

        def wrong_key(response):
            response["key"] = "0" * 64

        FakeServeClient.mangles["http://a"] = wrong_key
        FakeServeClient.mangles["http://b"] = wrong_key
        # Both nodes lie -> every remote attempt is invalid -> the point
        # still resolves, locally.
        with dispatcher(["http://a", "http://b"],
                        max_remote_attempts=2) as grid:
            got = grid.run_points(wanted)
        assert [s.to_dict() for s in got] == truth
        assert grid._m_points.value_of("local") == 1

    def test_permanent_400_degrades_to_local_immediately(self):
        wanted = specs(1)
        truth = serial(wanted)

        def reject(body):
            raise ServeError("bad request", status=400)

        FakeServeClient.behaviors["http://a"] = reject
        FakeServeClient.behaviors["http://b"] = reject
        with dispatcher(["http://a", "http://b"]) as grid:
            got = grid.run_points(wanted)
        assert [s.to_dict() for s in got] == truth
        assert grid._m_points.value_of("local") == 1
        # No cross-node retry storm: a condemned request is not retried.
        total_calls = sum(len(c) for c in FakeServeClient.calls.values())
        assert total_calls == 1


class TestHedging:
    """Satellite: duplicate completions reconcile to exactly one result,
    bit-identical to serial, even when one copy is corrupted."""

    def test_duplicate_completions_yield_exactly_one_result(self):
        wanted = specs(1)
        truth = serial(wanted)

        def slow(body):
            time.sleep(0.4)

        FakeServeClient.behaviors["http://a-slow"] = slow
        with dispatcher(["http://a-slow", "http://b-fast"],
                        hedge_after_s=0.05, max_hedges=1) as grid:
            got = grid.run_points(wanted)
        assert len(got) == 1
        assert [s.to_dict() for s in got] == truth
        assert grid._m_hedges.value == 1
        # The straggler finished too; its copy was discarded, not lost,
        # not double-counted.
        assert grid._m_duplicates.value == 1
        assert grid._m_points.value_of("remote") == 1

    def test_corrupted_duplicate_never_wins(self):
        wanted = specs(1)
        truth = serial(wanted)

        def slow(body):
            time.sleep(0.4)

        def corrupt(response):
            response["stats"] = dict(response["stats"], cycles=1)

        FakeServeClient.behaviors["http://a-slow"] = slow
        FakeServeClient.mangles["http://a-slow"] = corrupt
        with dispatcher(["http://a-slow", "http://b-fast"],
                        hedge_after_s=0.05, max_hedges=1) as grid:
            got = grid.run_points(wanted)
        assert len(got) == 1
        assert [s.to_dict() for s in got] == truth
        assert grid._m_hedges.value == 1
        assert grid._m_dispatch.value_of("http://a-slow", "invalid") == 1

    def test_hedge_winner_is_deterministic_bits(self):
        # Run the race twice; whoever wins, the bytes are the same.
        wanted = specs(1)
        outcomes = []
        for _ in range(2):
            def slow(body):
                time.sleep(0.2)

            FakeServeClient.behaviors = {"http://a-slow": slow}
            with dispatcher(["http://a-slow", "http://b-fast"],
                            hedge_after_s=0.05, max_hedges=1) as grid:
                outcomes.append(grid.run_points(wanted)[0].to_dict())
        assert outcomes[0] == outcomes[1]


class TestDegradation:
    def test_dead_pool_falls_back_locally_zero_lost(self):
        wanted = specs(3)
        truth = serial(wanted)

        def refuse(body):
            raise ServeError("connection refused", status=0)

        FakeServeClient.behaviors["http://a"] = refuse
        FakeServeClient.behaviors["http://b"] = refuse
        with dispatcher(["http://a", "http://b"], quarantine_after=1,
                        max_remote_attempts=2) as grid:
            got = grid.run_points(wanted)
        assert len(got) == 3 and all(s is not None for s in got)
        assert [s.to_dict() for s in got] == truth
        assert grid._m_points.value_of("local") >= 1

    def test_fallback_disabled_raises_grid_error(self):
        wanted = specs(1)

        def refuse(body):
            raise ServeError("connection refused", status=0)

        FakeServeClient.behaviors["http://a"] = refuse
        with dispatcher(["http://a"], quarantine_after=1,
                        max_remote_attempts=1,
                        local_fallback=False) as grid:
            with pytest.raises(GridError):
                grid.run_points(wanted)

    def test_status_is_json_ready(self):
        with dispatcher(["http://a"]) as grid:
            grid.run_points(specs(1))
            status = grid.status()
        assert json.loads(json.dumps(status)) == status
        assert status["nodes"][0]["url"] == "http://a"
