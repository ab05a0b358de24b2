"""Lockstep energy equality: both engines must account identical energy.

Energy is an integer linear function of the SimStats counters, so the
engine-lockstep contract *should* extend to energy for free — these tests
make that checkable rather than assumed, running the fig4/fig5 experiment
configurations, every write policy and bypass mode, and every energy
technology under both engines and asserting the complete ``SimStats``
(energy fields included) is equal field-for-field.  The instructions
the batched engine skips are accounted in bulk by construction (the
accountant folds counters once per slice), which is exactly what these
runs exercise.
"""

import dataclasses

import pytest

from repro.core.config import (
    BypassMode,
    ConcurrencyConfig,
    WritePolicy,
    base_architecture,
    base_write_buffer,
    split_l2_architecture,
    write_through_buffer,
)
from repro.core.simulator import Simulation
from repro.energy import ENERGY_TECHNOLOGIES
from repro.trace.benchmarks import default_suite

INSTRUCTIONS = 12_000

ALL_POLICIES = (
    WritePolicy.WRITE_BACK,
    WritePolicy.WRITE_MISS_INVALIDATE,
    WritePolicy.WRITE_ONLY,
    WritePolicy.SUBBLOCK,
)

ALL_BYPASSES = (BypassMode.NONE, BypassMode.ASSOCIATIVE,
                BypassMode.DIRTY_BIT)


def run_both(config, profiles, level=1, time_slice=3_000, energy="paper",
             **kwargs):
    """Run the same workload under both engines with energy accounting."""
    out = []
    for engine in ("reference", "batched"):
        sim = Simulation(config=config, profiles=profiles, level=level,
                         time_slice=time_slice, engine=engine,
                         energy=energy, **kwargs)
        out.append(sim.run())
    return out


def assert_identical(config, profiles, **kwargs):
    ref, bat = run_both(config, profiles, **kwargs)
    assert dataclasses.asdict(ref) == dataclasses.asdict(bat)
    assert ref.energy_total_fj > 0  # accounting actually happened


@pytest.fixture(scope="module")
def suite():
    return default_suite(instructions_per_benchmark=INSTRUCTIONS)


class TestExperimentConfigs:
    def test_fig4_base(self, suite):
        assert_identical(base_architecture(), suite[:2])

    @pytest.mark.parametrize("policy", ALL_POLICIES,
                             ids=lambda p: p.value)
    @pytest.mark.parametrize("access_time", (2, 8))
    def test_fig5_policy_grid(self, suite, policy, access_time):
        from repro.experiments.fig5_write_policy import config_for

        assert_identical(config_for(policy, access_time), suite[:2])

    def test_split_l2(self, suite):
        assert_identical(split_l2_architecture(), suite[:2])

    @pytest.mark.parametrize("technology", sorted(ENERGY_TECHNOLOGIES))
    def test_every_technology(self, suite, technology):
        assert_identical(base_architecture(), suite[:2],
                         energy=technology)


class TestPolicyBypassGrid:
    @pytest.mark.parametrize("bypass", ALL_BYPASSES,
                             ids=lambda b: b.value)
    @pytest.mark.parametrize("policy", ALL_POLICIES,
                             ids=lambda p: p.value)
    def test_policy_x_bypass(self, suite, policy, bypass):
        if (bypass is BypassMode.DIRTY_BIT
                and policy is not WritePolicy.WRITE_ONLY):
            pytest.skip("dirty-bit bypass requires the write-only policy")
        buffer = (base_write_buffer() if policy is WritePolicy.WRITE_BACK
                  else write_through_buffer())
        config = base_architecture().with_(
            name=f"energy-{policy.value}-{bypass.value}",
            write_policy=policy, write_buffer=buffer,
            concurrency=ConcurrencyConfig(bypass=bypass))
        assert_identical(config, suite[:2])


class TestSchedulingShapes:
    def test_multiprogrammed(self, suite):
        assert_identical(base_architecture(), suite[:4], level=4,
                         time_slice=1_500)

    def test_warmup_discard(self, suite):
        # clear_stats zeroes the energy fields with the counters; the
        # post-warmup slices must re-account from the surviving counts.
        assert_identical(base_architecture(), suite[:2],
                         warmup_instructions=4_000)

    def test_tiny_time_slice(self, suite):
        assert_identical(base_architecture(), suite[:2], time_slice=311)
