"""Cycle-exact tests of the write-back memory system (base architecture
semantics, Section 2), using a tiny deterministic configuration:

* L1: 64 W, 4 W lines (16 lines), direct-mapped.
* L2: 1024 W, 32 W lines (32 lines), unified, 6-cycle access.
* L1 refill = 6 cycles; L2 miss = 143 clean / 237 dirty; TLB disabled.
"""

import pytest

from repro.core.config import WritePolicy
from repro.core.hierarchy import MemorySystem
from repro.sched.process import PreparedBatch

from conftest import instr, load, run_ops, store, tiny_config


def fresh() -> MemorySystem:
    return MemorySystem(tiny_config(WritePolicy.WRITE_BACK))


class TestInstructionFetch:
    def test_cold_fetch_pays_l1_and_l2(self):
        ms = fresh()
        # 1 base + 6 refill + 143 L2 clean miss.
        assert run_ops(ms, [instr(0)]) == 150
        assert ms.stats.l1i_misses == 1
        assert ms.stats.l2i_misses == 1
        assert ms.stats.stall_l1i_miss == 6
        assert ms.stats.stall_l2i_miss == 143

    def test_hot_fetch_is_one_cycle(self):
        ms = fresh()
        run_ops(ms, [instr(0)])
        assert run_ops(ms, [instr(0)]) == 1
        assert run_ops(ms, [instr(1), instr(2), instr(3)]) == 3  # same line

    def test_l2_hit_refill_costs_six(self):
        ms = fresh()
        run_ops(ms, [instr(0)])        # brings L2 line 0 (words 0..31)
        assert run_ops(ms, [instr(4)]) == 1 + 6  # new L1 line, L2 hit

    def test_l1i_conflict_eviction(self):
        ms = fresh()
        run_ops(ms, [instr(0), instr(64)])  # 64 maps to the same L1 set
        assert not ms.l1i_contains(0)
        assert ms.l1i_contains(64)


class TestLoads:
    def test_load_hit_after_fill(self):
        ms = fresh()
        run_ops(ms, [instr(0), load(256)])
        assert run_ops(ms, [load(256)]) == 1
        assert run_ops(ms, [load(258)]) == 1  # same L1 line

    def test_load_miss_l2_hit(self):
        ms = fresh()
        run_ops(ms, [instr(0), load(256)])   # L2 line 8 resident now
        assert run_ops(ms, [load(260)]) == 1 + 6
        assert ms.stats.l1d_read_misses == 2

    def test_load_counts(self):
        ms = fresh()
        run_ops(ms, [load(0, pc=0), load(4, pc=0), load(0, pc=0)])
        assert ms.stats.loads == 3
        assert ms.stats.instructions == 3


class TestStores:
    def test_write_hit_takes_two_cycles(self):
        ms = fresh()
        run_ops(ms, [instr(0), load(256)])
        assert run_ops(ms, [store(256)]) == 2
        assert ms.stats.stall_l1_writes == 1

    def test_write_miss_allocates(self):
        ms = fresh()
        run_ops(ms, [instr(0), load(256)])    # L2 line 8 present
        # Write miss to another L1 line of the same L2 line: allocate, 1+6.
        assert run_ops(ms, [store(260)]) == 1 + 6
        assert ms.stats.l1d_write_misses == 1
        # Now it is a hit and dirty.
        assert run_ops(ms, [store(260)]) == 2
        state = ms.l1d_line_state(260)
        assert state["present"] and state["dirty"]

    def test_dirty_victim_goes_to_write_buffer(self):
        ms = fresh()
        run_ops(ms, [instr(0), load(256), store(256)])
        # 256 + 64 maps to the same L1 set; its L2 line (word 320 >> 5 = 10)
        # is absent, so: 1 + 6 refill + 143 L2 miss; victim enqueued.
        cycles = run_ops(ms, [load(256 + 64)])
        assert cycles == 150
        assert len(ms.wb) == 1
        assert ms.stats.l2_write_accesses == 1

    def test_clean_victim_skips_write_buffer(self):
        ms = fresh()
        run_ops(ms, [instr(0), load(256)])
        run_ops(ms, [load(256 + 64)])
        assert len(ms.wb) == 0
        assert ms.stats.l2_write_accesses == 0


class TestWriteBufferInteraction:
    def test_miss_waits_for_slow_victim_drain(self):
        """A dirty-victim drain that misses in L2 takes ~149 cycles; a fast
        read miss right behind it must wait for the buffer to empty."""
        ms = fresh()
        run_ops(ms, [instr(0), load(256)])   # L2 line 8; L1 line 64 (set 0)
        run_ops(ms, [load(512)])             # L2 line 16; L1 line 128 (set 0)
        run_ops(ms, [load(256)])             # line 64 back at set 0
        run_ops(ms, [store(256)])            # dirty
        run_ops(ms, [load(1284)])            # L2 line 40 evicts L2 line 8
        # Evict the dirty L1 line: its drain write misses in L2 (line 8 was
        # just displaced), so the drain costs 6 + 143 cycles.
        cycles = run_ops(ms, [load(512)])    # refill hits L2 line 16: fast
        assert cycles == 1 + 6
        assert len(ms.wb) == 1
        assert ms.stats.l2_write_misses == 1
        # A fast miss right behind it waits ~143 cycles for the buffer.
        before = ms.stats.stall_wb
        cycles = run_ops(ms, [load(516)])    # set 1; L2 line 16 resident
        assert ms.stats.stall_wb - before > 100
        assert cycles > 100

    def test_l2_dirty_miss_penalty(self):
        ms = fresh()
        run_ops(ms, [instr(0), store(256)])   # allocates L2 line 8, clean
        # Make L2 line 8 dirty by draining a victim write into it:
        run_ops(ms, [store(256)])             # dirty L1 line
        run_ops(ms, [load(256 + 64)])         # victim write -> L2 line 8 dirty
        # Now evict L2 line 8: line address 8 + 32 -> word 1280.
        before = ms.stats.stall_l2d_miss
        run_ops(ms, [load(1280)])
        # Dirty victim in L2: the 237-cycle penalty applies.
        assert ms.stats.stall_l2d_miss - before == 237
        assert ms.stats.l2d_dirty_victims == 1


class TestSliceMechanics:
    def test_deadline_stops_midway(self):
        ms = fresh()
        pcs = [0] * 100
        kinds = [0] * 100
        addrs = [0] * 100
        result = ms.run_slice(
            PreparedBatch(pcs, kinds, addrs, [False] * 100, [False] * 100,
                          ms._il_shift),
            0, ms.now + 153)
        # The first instruction costs 150 cycles; a couple more fit.
        assert result.reason == "slice"
        assert 1 <= result.consumed < 100

    def test_syscall_stops_after_instruction(self):
        ms = fresh()
        syscalls = [False, True, False]
        result = ms.run_slice(
            PreparedBatch([0, 1, 2], [0] * 3, [0] * 3, [False] * 3, syscalls,
                          ms._il_shift),
            0, 1 << 60)
        assert result.reason == "syscall"
        assert result.consumed == 2
        assert ms.stats.syscalls == 1

    def test_resume_from_offset(self):
        ms = fresh()
        result = ms.run_slice(
            PreparedBatch([0, 1, 2], [0] * 3, [0] * 3, [False] * 3,
                          [False] * 3, ms._il_shift), 2, 1 << 60)
        assert result.consumed == 1
        assert ms.stats.instructions == 1

    def test_clear_stats_keeps_state(self):
        ms = fresh()
        run_ops(ms, [instr(0), load(256)])
        ms.clear_stats()
        assert ms.stats.instructions == 0
        # Cache state survived: these are hits now.
        assert run_ops(ms, [instr(0), load(256)]) == 2
        assert ms.stats.cycles == 2
