"""Verification of the hierarchy protocol with the value-carrying model.

The key property: under any write policy and any loads-pass-stores
discipline, with arbitrary partial write-buffer drains interleaved, every
load observes the most recent store to its address.  This is the safety
argument behind the paper's dirty-bit bypass (Section 9) — checked here by
hypothesis over randomized operation sequences.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import (
    BypassMode,
    ConcurrencyConfig,
    WritePolicy,
)
from repro.core.functional import FunctionalMemorySystem, _memory_default
from repro.sched.process import PreparedBatch

from conftest import tiny_config

#: (op, addr, drain) triples: op 0 = load, 1 = store, 2 = partial store;
#: drain = entries to drain before the op (models time passing).
ops_strategy = st.lists(
    st.tuples(st.integers(0, 2), st.integers(0, 255), st.integers(0, 3)),
    min_size=1, max_size=300,
)

POLICY_BYPASS = [
    (WritePolicy.WRITE_BACK, BypassMode.NONE),
    (WritePolicy.WRITE_BACK, BypassMode.ASSOCIATIVE),
    (WritePolicy.WRITE_MISS_INVALIDATE, BypassMode.NONE),
    (WritePolicy.WRITE_MISS_INVALIDATE, BypassMode.ASSOCIATIVE),
    (WritePolicy.WRITE_ONLY, BypassMode.NONE),
    (WritePolicy.WRITE_ONLY, BypassMode.DIRTY_BIT),
    (WritePolicy.WRITE_ONLY, BypassMode.ASSOCIATIVE),
    (WritePolicy.SUBBLOCK, BypassMode.NONE),
    (WritePolicy.SUBBLOCK, BypassMode.ASSOCIATIVE),
]


def build(policy: WritePolicy, bypass: BypassMode) -> FunctionalMemorySystem:
    config = tiny_config(policy).with_(
        concurrency=ConcurrencyConfig(bypass=bypass))
    return FunctionalMemorySystem(config)


class TestLoadCorrectness:
    @pytest.mark.parametrize("policy,bypass", POLICY_BYPASS,
                             ids=[f"{p.value}-{b.value}"
                                  for p, b in POLICY_BYPASS])
    @settings(max_examples=25, deadline=None)
    @given(ops=ops_strategy)
    def test_loads_always_see_the_latest_store(self, policy, bypass, ops):
        system = build(policy, bypass)
        shadow = {}
        counter = 0
        for op, addr, drain in ops:
            system.drain(drain)
            if op == 0:
                expected = shadow.get(addr, _memory_default(addr))
                assert system.load(addr) == expected
            else:
                counter += 1
                shadow[addr] = counter
                system.store(addr, counter, partial=(op == 2))
        # Final sweep: drain everything and re-read every touched address.
        system.drain()
        for addr, expected in shadow.items():
            assert system.load(addr) == expected


class TestProtocolDetails:
    def test_write_only_line_readback_after_capture(self):
        system = build(WritePolicy.WRITE_ONLY, BypassMode.DIRTY_BIT)
        system.store(100, 7)          # write miss: captured write-only
        assert system.load(100) == 7  # read miss -> flush -> refill

    def test_neighbour_word_of_captured_line_is_not_corrupted(self):
        system = build(WritePolicy.WRITE_ONLY, BypassMode.DIRTY_BIT)
        before = system.load(101)     # establishes line with memory values
        system.store(100, 9)          # captures the line write-only
        assert system.load(101) == before

    def test_subblock_partial_store_word_reads_back(self):
        system = build(WritePolicy.SUBBLOCK, BypassMode.NONE)
        system.store(100, 5, partial=True)   # valid bit NOT set
        assert system.load(100) == 5         # read misses, refills from L2

    def test_write_back_victim_reaches_memory(self):
        system = build(WritePolicy.WRITE_BACK, BypassMode.NONE)
        system.store(0, 42)
        # Evict line 0 via a conflicting line (tiny L1: 64W, 4W lines).
        system.load(64)
        system.drain()
        # Evict it from L2 as well (tiny L2: 1024W, 32 lines of 32W).
        for k in range(1, 40):
            system.load(k * 1024)
        assert system.memory.get(0) == 42

    def test_buffer_capacity_forces_drains(self):
        system = build(WritePolicy.WRITE_ONLY, BypassMode.NONE)
        for i in range(64):
            system.store(i, i)
        assert system.buffered_writes <= system._wb_capacity

    def test_memory_default_is_deterministic(self):
        assert _memory_default(123) == _memory_default(123)
        assert _memory_default(1) != _memory_default(2)


class TestCrossModelEquivalence:
    """L1-D tag/flag state is timing-independent, so the cycle-accounting
    simulator and the functional verifier must agree on it exactly after
    any operation sequence (dirty bits excluded under the dirty-bit
    discipline, whose flash-clears are timing-driven)."""

    @pytest.mark.parametrize("policy", [
        WritePolicy.WRITE_BACK,
        WritePolicy.WRITE_MISS_INVALIDATE,
        WritePolicy.WRITE_ONLY,
        WritePolicy.SUBBLOCK,
    ], ids=lambda p: p.value)
    @settings(max_examples=20, deadline=None)
    @given(ops=ops_strategy)
    def test_l1d_state_matches_timing_model(self, policy, ops):
        from repro.core.hierarchy import MemorySystem

        config = tiny_config(policy)
        timing = MemorySystem(config)
        functional = FunctionalMemorySystem(config)
        touched = set()
        for op, addr, drain in ops:
            functional.drain(drain)
            touched.add(addr)
            if op == 0:
                functional.load(addr)
                timing.run_slice(
                    PreparedBatch([0], [1], [addr], [False], [False],
                                  timing._il_shift),
                    0, 1 << 60)
            else:
                partial = op == 2
                functional.store(addr, 1, partial=partial)
                timing.run_slice(
                    PreparedBatch([0], [2], [addr], [partial], [False],
                                  timing._il_shift),
                    0, 1 << 60)
        for addr in touched:
            t_state = timing.l1d_line_state(addr)
            f_state = functional.l1d_line_state(addr)
            for key in ("tag", "present", "write_only", "valid_mask"):
                assert t_state[key] == f_state[key], (addr, key)
            assert t_state["dirty"] == f_state["dirty"], addr
