"""Property: farmed execution is bit-identical to serial execution.

``run_sweep(jobs=4)`` must return byte-identical serialized ``SimStats``
to ``jobs=1`` across write policies and bypass modes, and a cache round
trip must be equally invisible.  Reuses the checkpoint suite's fixtures
(same workload scale, same policy/bypass grid).
"""

import json
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.sweep import run_point, run_sweep
from repro.core.config import (
    BypassMode,
    WritePolicy,
    base_architecture,
    optimized_architecture,
    write_through_buffer,
)
from repro.farm import ResultCache, farm_session
from repro.farm.pool import fork_available
from repro.trace.benchmarks import default_suite

SUITE = default_suite(instructions_per_benchmark=25_000)[:3]
TIME_SLICE = 6_000

#: The checkpoint suite's policy/bypass grid.
POLICY_BYPASS = [
    (WritePolicy.WRITE_BACK, BypassMode.NONE),
    (WritePolicy.WRITE_MISS_INVALIDATE, BypassMode.NONE),
    (WritePolicy.WRITE_ONLY, BypassMode.DIRTY_BIT),
    (WritePolicy.WRITE_ONLY, BypassMode.ASSOCIATIVE),
    (WritePolicy.SUBBLOCK, BypassMode.ASSOCIATIVE),
]


def policy_config(policy, bypass):
    base = base_architecture()
    changes = {"name": f"{policy.value}/{bypass.value}",
               "write_policy": policy,
               "concurrency": replace(base.concurrency, bypass=bypass)}
    if policy is not WritePolicy.WRITE_BACK:
        changes["write_buffer"] = write_through_buffer()
    return base.with_(**changes)


ALL_CONFIGS = [(f"{p.value}/{b.value}", policy_config(p, b))
               for p, b in POLICY_BYPASS]


def serialized(points):
    """Canonical bytes of every point's stats, in sweep order."""
    return [json.dumps(point.stats.to_dict(), sort_keys=True).encode()
            for point in points]


# Serial references, computed once per session.
_SERIAL = {}


def serial_reference(configs):
    key = tuple(label for label, _ in configs)
    if key not in _SERIAL:
        _SERIAL[key] = serialized(
            run_sweep(configs, SUITE, time_slice=TIME_SLICE, jobs=1))
    return _SERIAL[key]


@pytest.mark.skipif(not fork_available(), reason="platform cannot fork")
class TestParallelMatchesSerial:
    def test_full_policy_grid_jobs4(self):
        parallel = run_sweep(ALL_CONFIGS, SUITE, time_slice=TIME_SLICE,
                             jobs=4)
        assert serialized(parallel) == serial_reference(ALL_CONFIGS)

    @pytest.mark.parametrize("policy,bypass", POLICY_BYPASS,
                             ids=[f"{p.value}-{b.value}"
                                  for p, b in POLICY_BYPASS])
    def test_each_policy_bypass_combo(self, policy, bypass):
        configs = [(f"{policy.value}/{bypass.value}",
                    policy_config(policy, bypass))]
        parallel = run_sweep(configs, SUITE, time_slice=TIME_SLICE, jobs=4)
        assert serialized(parallel) == serial_reference(configs)

    @given(budget=st.integers(min_value=1_000, max_value=60_000),
           subset=st.permutations(range(len(ALL_CONFIGS))))
    @settings(max_examples=6, deadline=None)
    def test_any_budget_and_order(self, budget, subset):
        """Any instruction budget, any sweep order: jobs=4 == jobs=1,
        point by point."""
        configs = [ALL_CONFIGS[i] for i in subset[:3]]
        serial = run_sweep(configs, SUITE, time_slice=TIME_SLICE,
                           max_instructions=budget, jobs=1)
        parallel = run_sweep(configs, SUITE, time_slice=TIME_SLICE,
                             max_instructions=budget, jobs=4)
        assert serialized(parallel) == serialized(serial)


class TestCacheIsInvisible:
    def test_cache_round_trip_is_byte_identical(self, tmp_path):
        cache = ResultCache(tmp_path)
        configs = ALL_CONFIGS[:2]
        cold = run_sweep(configs, SUITE, time_slice=TIME_SLICE,
                         jobs=1, cache=cache)
        warm = run_sweep(configs, SUITE, time_slice=TIME_SLICE,
                         jobs=1, cache=cache)
        assert serialized(warm) == serialized(cold)
        assert serialized(cold) == serial_reference(configs)
        assert cache.hits == len(configs)

    def test_warm_cache_hits_every_point(self, tmp_path):
        cache = ResultCache(tmp_path)
        configs = ALL_CONFIGS[:2]
        run_sweep(configs, SUITE, time_slice=TIME_SLICE, jobs=1,
                  cache=cache)
        before = cache.stats()["entries"]
        run_sweep(configs, SUITE, time_slice=TIME_SLICE, jobs=1,
                  cache=cache)
        assert cache.hits == len(configs)
        assert cache.stats()["entries"] == before  # nothing recomputed

    def test_run_point_inside_session_matches_bare_run_point(self, tmp_path):
        config = optimized_architecture()
        bare = run_point(config, SUITE, time_slice=TIME_SLICE)
        with farm_session(cache_dir=tmp_path / "c", quiet=True):
            cold = run_point(config, SUITE, time_slice=TIME_SLICE)
            warm = run_point(config, SUITE, time_slice=TIME_SLICE)
        assert cold.to_dict() == bare.to_dict()
        assert warm.to_dict() == bare.to_dict()


class TestSweepSemantics:
    def test_points_return_in_input_order(self):
        configs = ALL_CONFIGS[:3]
        points = run_sweep(configs, SUITE, time_slice=TIME_SLICE, jobs=1,
                           max_instructions=2_000)
        assert [p.label for p in points] == [label for label, _ in configs]

    def test_repeat_simulation_parallel_matches_serial(self):
        if not fork_available():
            pytest.skip("platform cannot fork")
        from repro.analysis.repeat import repeat_simulation

        serial = repeat_simulation(base_architecture(), SUITE, seeds=3,
                                   time_slice=TIME_SLICE, jobs=1)
        parallel = repeat_simulation(base_architecture(), SUITE, seeds=3,
                                     time_slice=TIME_SLICE, jobs=3)
        for name in serial:
            assert serial[name].samples == parallel[name].samples
