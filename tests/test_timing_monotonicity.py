"""Property tests: the timing model responds monotonically to resources.

These are the sanity laws a cycle-accounting simulator must obey on any
trace (checked on randomized op sequences):

* a faster L2 never increases total cycles;
* cheaper main-memory penalties never increase total cycles;
* a deeper write buffer never increases total cycles (write-through);
* removing the TLB penalty never increases total cycles.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import TLBConfig, WriteBufferConfig, WritePolicy
from repro.core.hierarchy import MemorySystem
from repro.sched.process import PreparedBatch

from conftest import tiny_config

ops_strategy = st.lists(
    st.tuples(st.integers(0, 2),          # 0 none, 1 load, 2 store
              st.integers(0, 1023),       # data address
              st.integers(0, 255)),       # pc
    min_size=10, max_size=400,
)


def run_cycles(config, ops) -> int:
    ms = MemorySystem(config)
    pcs = [pc for _, _, pc in ops]
    kinds = [k for k, _, _ in ops]
    addrs = [a for _, a, _ in ops]
    n = len(ops)
    ms.run_slice(PreparedBatch(pcs, kinds, addrs, [False] * n, [False] * n,
                               ms._il_shift), 0, 1 << 60)
    return ms.now


class TestMonotonicity:
    @given(ops=ops_strategy)
    @settings(max_examples=40, deadline=None)
    def test_faster_l2_never_hurts(self, ops):
        slow = tiny_config(WritePolicy.WRITE_ONLY, l2_access=8)
        fast = tiny_config(WritePolicy.WRITE_ONLY, l2_access=4)
        assert run_cycles(fast, ops) <= run_cycles(slow, ops)

    @given(ops=ops_strategy)
    @settings(max_examples=40, deadline=None)
    def test_cheaper_memory_never_hurts(self, ops):
        from dataclasses import replace

        base = tiny_config(WritePolicy.WRITE_BACK)
        cheap = base.with_(l2=replace(base.l2, miss_penalty_clean=50,
                                      miss_penalty_dirty=80))
        assert run_cycles(cheap, ops) <= run_cycles(base, ops)

    @given(ops=ops_strategy)
    @settings(max_examples=40, deadline=None)
    def test_deeper_write_buffer_never_hurts(self, ops):
        shallow = tiny_config(WritePolicy.WRITE_ONLY, wb_depth=2)
        deep = tiny_config(WritePolicy.WRITE_ONLY, wb_depth=16)
        assert run_cycles(deep, ops) <= run_cycles(shallow, ops)

    @given(ops=ops_strategy)
    @settings(max_examples=30, deadline=None)
    def test_tlb_penalty_only_adds(self, ops):
        base = tiny_config(WritePolicy.WRITE_BACK, tlb_enabled=False)
        with_tlb = tiny_config(WritePolicy.WRITE_BACK, tlb_enabled=True)
        assert run_cycles(base, ops) <= run_cycles(with_tlb, ops)

    @given(ops=ops_strategy)
    @settings(max_examples=30, deadline=None)
    def test_hit_miss_counts_are_timing_independent(self, ops):
        """Changing access times must not change which references miss."""
        slow = MemorySystem(tiny_config(WritePolicy.WRITE_ONLY,
                                        l2_access=10))
        fast = MemorySystem(tiny_config(WritePolicy.WRITE_ONLY,
                                        l2_access=2))
        pcs = [pc for _, _, pc in ops]
        kinds = [k for k, _, _ in ops]
        addrs = [a for _, a, _ in ops]
        n = len(ops)
        batch = PreparedBatch(pcs, kinds, addrs, [False] * n, [False] * n,
                              slow._il_shift)
        for ms in (slow, fast):
            ms.run_slice(batch, 0, 1 << 60)
        assert slow.stats.l1i_misses == fast.stats.l1i_misses
        assert slow.stats.l1d_read_misses == fast.stats.l1d_read_misses
        assert slow.stats.l1d_write_misses == fast.stats.l1d_write_misses
        assert slow.stats.l2_misses == fast.stats.l2_misses
