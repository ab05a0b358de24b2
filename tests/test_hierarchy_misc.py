"""Additional memory-system scenarios: unified-L2 interference, fetch
sizes, split access times, and the Simulation-level per-process API."""

from repro.core.config import (
    CacheConfig,
    L2Config,
    TLBConfig,
    WritePolicy,
)
from repro.core.hierarchy import MemorySystem
from repro.core.simulator import Simulation
from repro.trace.benchmarks import default_suite

from conftest import instr, load, run_ops, store, tiny_config


class TestUnifiedInterference:
    """In a unified L2, instruction and data streams evict one another —
    the conflict source the split organization removes (Section 7)."""

    def test_data_read_can_evict_code_from_l2(self):
        ms = MemorySystem(tiny_config(WritePolicy.WRITE_BACK))
        run_ops(ms, [instr(0)])               # code in L2 line 0
        # L2 has 32 lines of 32W; word 1024 maps to L2 line 32 -> set 0.
        run_ops(ms, [load(1024)])             # data evicts L2 line 0
        # Evict the L1-I line too, then refetch: the L2 must now miss.
        run_ops(ms, [instr(64)])              # displaces L1-I line 0
        before = ms.stats.l2i_misses
        run_ops(ms, [instr(0)])
        assert ms.stats.l2i_misses == before + 1

    def test_split_l2_prevents_that_eviction(self):
        ms = MemorySystem(tiny_config(WritePolicy.WRITE_BACK, l2_size=2048,
                                      l2_split=True))
        run_ops(ms, [instr(0)])
        run_ops(ms, [load(1024)])             # data half only
        run_ops(ms, [instr(64)])
        before = ms.stats.l2i_misses
        run_ops(ms, [instr(0)])               # still in the I half
        assert ms.stats.l2i_misses == before


class TestFetchSize:
    def test_eight_word_line_pays_one_extra_transfer_beat(self):
        from repro.core.config import WriteBufferConfig

        config = tiny_config(WritePolicy.WRITE_BACK).with_(
            icache=CacheConfig(size_words=64, line_words=8),
            dcache=CacheConfig(size_words=64, line_words=8),
            write_buffer=WriteBufferConfig(depth=4, width_words=8),
        )
        ms = MemorySystem(config)
        run_ops(ms, [instr(0), load(256)])    # warm L2 line 8
        # L1-D line is 8W now: word 264 is a new L1 line, same L2 line.
        assert run_ops(ms, [load(272)]) == 1 + 7   # A=6 + (8/4 - 1)

    def test_split_access_times_differ_per_side(self):
        config = tiny_config(WritePolicy.WRITE_BACK).with_(
            l2=L2Config(size_words=2048, line_words=32, ways=1,
                        access_time=6, split=True, i_size_words=1024,
                        d_size_words=1024, i_access_time=2),
        )
        ms = MemorySystem(config)
        run_ops(ms, [instr(0), load(256)])    # warm both halves
        # Fresh L1-I line, L2-I hit: 2-cycle refill.
        assert run_ops(ms, [instr(4)]) == 1 + 2
        # Fresh L1-D line, L2-D hit: 6-cycle refill.
        assert run_ops(ms, [load(260)]) == 1 + 6


class TestBufferedWriteUpdatesL2AtEnqueue:
    """DESIGN §6: a buffered write allocates and dirties its L2 line when
    it enters the write buffer, while its drain *timing* is still pending.
    A demand access that follows therefore sees the drained state early."""

    def test_write_through_store_dirties_l2_before_its_drain(self):
        ms = MemorySystem(tiny_config(WritePolicy.WRITE_MISS_INVALIDATE))
        run_ops(ms, [store(2048)])            # L2 line 64, not resident
        (line, completion), = ms.wb.state_dict()["entries"]
        assert line == 2048 >> 2
        assert completion > ms.now            # drain still pending...
        assert ms.l2.data_half.is_dirty(2048 >> 5)   # ...L2 already dirty
        assert ms.stats.l2_write_misses == 1

    def test_victim_push_dirties_l2_before_the_refill_reads_it(self):
        ms = MemorySystem(tiny_config(WritePolicy.WRITE_BACK))
        # L1-D: 16 lines of 4 W, so words 256 and 1280 share index 0; L2:
        # 32 lines of 32 W, so L2 lines 8 (word 256) and 40 share set 0.
        run_ops(ms, [store(256)])             # L1 line dirty, L2 clean
        assert not ms.l2.data_half.is_dirty(256 >> 5)
        before = ms.now
        run_ops(ms, [load(1280)])
        # The load miss pushed the dirty victim (L2 hit, 6-cycle drain)
        # and then refilled from L2 at once; the refill already finds L2
        # line 8 dirty and pays the dirty-miss penalty.
        assert ms.stats.l2_write_accesses == 1
        assert ms.stats.l2_write_misses == 0
        assert ms.stats.l2d_dirty_victims == 1
        assert ms.now - before == 1 + 6 + 237


class TestTlbToggle:
    def test_disabled_tlb_never_probes(self):
        ms = MemorySystem(tiny_config(WritePolicy.WRITE_BACK,
                                      tlb_enabled=False))
        run_ops(ms, [instr(0), load(8192), load(0)])
        assert ms.stats.itlb_probes == 0
        assert ms.stats.dtlb_probes == 0
        assert ms.stats.stall_tlb == 0

    def test_custom_penalty(self):
        config = tiny_config(WritePolicy.WRITE_BACK).with_(
            tlb=TLBConfig(miss_penalty=7))
        ms = MemorySystem(config)
        run_ops(ms, [instr(0)])
        assert ms.stats.stall_tlb == 7


class TestSimulationPerProcess:
    def test_per_process_stats_exposed(self):
        suite = default_suite(instructions_per_benchmark=5000)[:2]
        from repro.core.config import base_architecture

        sim = Simulation(config=base_architecture(), profiles=suite,
                         time_slice=2500, track_per_process=True)
        total = sim.run()
        per = sim.per_process_stats
        assert set(per) == {suite[0].name, suite[1].name}
        assert (sum(s.instructions for s in per.values())
                == total.instructions)

    def test_per_process_cpi_is_sane(self):
        suite = default_suite(instructions_per_benchmark=5000)[:2]
        from repro.core.config import base_architecture

        sim = Simulation(config=base_architecture(), profiles=suite,
                         time_slice=2500, track_per_process=True)
        sim.run()
        for stats in sim.per_process_stats.values():
            assert stats.cpi() >= 1.238
