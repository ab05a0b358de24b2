"""Lockstep equivalence: the batched engine must be bit-identical to the
reference engine.

The batched engine's whole contract is "same numbers, faster".  These
tests run both engines over the same workloads — the fig4/fig5/fig9
experiment configurations, every write policy, every bypass mode,
multiprogramming levels 1 and 4, short and long time slices — and
assert the *complete* ``SimStats`` dataclass is equal field-for-field.
A single diverging stall cycle fails the suite.

A second battery runs adversarial profiles (dense index conflicts,
partial-word stores, syscalls on page crossings) that the calibrated
suite rarely concentrates.  ``tests/test_engine_slice_edges.py`` drives
``run_slice`` directly over generated traces and pins the slice edges.
"""

import dataclasses

import pytest

from repro.core.config import (
    BypassMode,
    CacheConfig,
    ConcurrencyConfig,
    L2Config,
    SystemConfig,
    TLBConfig,
    WriteBufferConfig,
    WritePolicy,
    base_architecture,
    base_write_buffer,
    fetch8_architecture,
    optimized_architecture,
    split_l2_architecture,
    write_through_buffer,
)
from repro.core.simulator import Simulation
from repro.trace.benchmarks import default_suite
from repro.trace.synthetic import BenchmarkProfile, CodeProfile, DataProfile

INSTRUCTIONS = 12_000

ALL_POLICIES = (
    WritePolicy.WRITE_BACK,
    WritePolicy.WRITE_MISS_INVALIDATE,
    WritePolicy.WRITE_ONLY,
    WritePolicy.SUBBLOCK,
)


def run_both(config, profiles, level=1, time_slice=3_000, **kwargs):
    """Run the same workload under both engines; return their stats."""
    out = []
    for engine in ("reference", "batched"):
        sim = Simulation(config=config, profiles=profiles, level=level,
                         time_slice=time_slice, engine=engine, **kwargs)
        out.append(sim.run())
    return out


def assert_identical(config, profiles, level=1, time_slice=3_000, **kwargs):
    ref, bat = run_both(config, profiles, level=level,
                        time_slice=time_slice, **kwargs)
    assert dataclasses.asdict(ref) == dataclasses.asdict(bat)


@pytest.fixture(scope="module")
def suite():
    return default_suite(instructions_per_benchmark=INSTRUCTIONS)


class TestExperimentConfigs:
    """The exact configurations the paper's figures sweep."""

    def test_fig4_base(self, suite):
        assert_identical(base_architecture(), suite[:2])

    @pytest.mark.parametrize("policy", ALL_POLICIES,
                             ids=lambda p: p.value)
    @pytest.mark.parametrize("access_time", (2, 8))
    def test_fig5_policy_grid(self, suite, policy, access_time):
        from repro.experiments.fig5_write_policy import config_for

        assert_identical(config_for(policy, access_time), suite[:2])

    @pytest.mark.parametrize("config", [
        base_architecture(), split_l2_architecture(),
        fetch8_architecture(), optimized_architecture(),
    ], ids=lambda c: c.name)
    def test_fig9_design_points(self, suite, config):
        assert_identical(config, suite[:2])

    def test_associative_bypass(self, suite):
        config = base_architecture().with_(
            name="assoc-bypass",
            write_policy=WritePolicy.WRITE_MISS_INVALIDATE,
            write_buffer=write_through_buffer(),
            concurrency=ConcurrencyConfig(bypass=BypassMode.ASSOCIATIVE),
        )
        assert_identical(config, suite[:2])

    def test_dirty_bit_bypass(self, suite):
        config = base_architecture().with_(
            name="dirty-bypass",
            write_policy=WritePolicy.WRITE_ONLY,
            write_buffer=write_through_buffer(),
            concurrency=ConcurrencyConfig(bypass=BypassMode.DIRTY_BIT),
        )
        assert_identical(config, suite[:2])


class TestSchedulingShapes:
    def test_multiprogrammed(self, suite):
        assert_identical(base_architecture(), suite[:4], level=4,
                         time_slice=1_500)

    def test_tiny_time_slice(self, suite):
        # Slices far smaller than a chunk: the budget cap and the
        # mid-run deadline cut dominate.
        assert_identical(base_architecture(), suite[:2], time_slice=311)

    def test_slice_longer_than_batch(self, suite):
        assert_identical(base_architecture(), suite[:1], time_slice=90_000)

    def test_long_slices_skip_provable_hits(self):
        # 100K-cycle slices reach more than FILTER_MIN_EVENTS events, so
        # most batched calls skip the hits their own accesses prove; a
        # process resumes on lines the other three evicted.
        suite = default_suite(instructions_per_benchmark=100_000)
        assert_identical(base_architecture(), suite[:4], level=4,
                         time_slice=100_000)

    @pytest.mark.parametrize("policy", ALL_POLICIES[1:],
                             ids=lambda p: p.value)
    def test_long_slices_skip_provable_write_through_loads(self, policy):
        # As above under each write-through policy, where a load is
        # proven only by an earlier load of its run (under subblock
        # placement, or a full-word store of its word).
        config = base_architecture().with_(
            name=f"long-{policy.value}", write_policy=policy,
            write_buffer=write_through_buffer())
        suite = default_suite(instructions_per_benchmark=60_000)
        assert_identical(config, suite[:3], level=3, time_slice=60_000)

    @pytest.mark.parametrize("policy", ALL_POLICIES,
                             ids=lambda p: p.value)
    def test_policies_multiprogrammed(self, suite, policy):
        buffer = (base_write_buffer() if policy is WritePolicy.WRITE_BACK
                  else write_through_buffer())
        config = base_architecture().with_(
            name=f"mp-{policy.value}", write_policy=policy,
            write_buffer=buffer)
        assert_identical(config, suite[:3], level=3, time_slice=2_000)

    def test_warmup_discard(self, suite):
        assert_identical(base_architecture(), suite[:2],
                         warmup_instructions=4_000)


class TestAdversarialColumns:
    """Hand-built traces that concentrate the batched engine's edge cases."""

    @staticmethod
    def _conflict_profile(seed):
        # A code region much larger than the L1-I with tiny loops, and
        # data traffic restricted to a handful of conflicting indices:
        # nearly every chain has heads and repairs in every chunk.
        return BenchmarkProfile(
            name=f"adversary{seed}", category="I",
            instructions=INSTRUCTIONS, syscalls=11,
            code=CodeProfile(code_words=65536, phase_regions=8,
                             loops_per_phase=4, loop_body_mean=6,
                             loop_trip_mean=2.0, phase_length=600,
                             far_call_prob=0.30),
            data=DataProfile(load_fraction=0.35, store_fraction=0.25,
                             partial_store_fraction=0.5,
                             hot_words=16, warm_words=65536,
                             warm_window_words=4096, warm_drift=2.0,
                             p_warm=0.45, p_stream=0.1, p_cold=0.01,
                             store_locality=1.0, store_run_q=0.0),
            seed=seed)

    @pytest.mark.parametrize("policy", ALL_POLICIES,
                             ids=lambda p: p.value)
    @pytest.mark.parametrize("seed", (1, 2))
    def test_conflict_storm(self, policy, seed):
        buffer = (base_write_buffer() if policy is WritePolicy.WRITE_BACK
                  else write_through_buffer())
        config = base_architecture().with_(
            name=f"storm-{policy.value}", write_policy=policy,
            write_buffer=buffer)
        assert_identical(config, [self._conflict_profile(seed)],
                         time_slice=1_024)

    def test_single_line_caches(self):
        # One-line L1s: every chain aliases onto index 0.
        config = base_architecture().with_(
            name="one-line",
            icache=CacheConfig(size_words=4, line_words=4),
            dcache=CacheConfig(size_words=4, line_words=4))
        assert_identical(config, [self._conflict_profile(3)],
                         time_slice=1_000)

    def test_no_tlb(self):
        config = base_architecture().with_(
            name="no-tlb", tlb=TLBConfig(enabled=False))
        assert_identical(config, [self._conflict_profile(4)])


class TestEngineSelection:
    def test_unknown_engine_rejected(self, suite):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            Simulation(config=base_architecture(), profiles=suite[:1],
                       engine="vectorized-nonsense")

    def test_engine_recorded_in_state(self, suite):
        sim = Simulation(config=base_architecture(), profiles=suite[:1],
                         engine="batched")
        assert sim.state_dict()["simulation"]["engine"] == "batched"
