"""Property-based tests (hypothesis) on the core data structures.

These check invariants over randomized inputs: LRU cache laws, write-buffer
timing monotonicity, page-table injectivity, din round-trips, and — most
importantly — equivalence of the hand-optimized L1-D hot path against the
reference :class:`repro.core.cache.Cache` model.
"""

import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cache import Cache
from repro.core.config import WritePolicy
from repro.core.hierarchy import MemorySystem
from repro.core.write_buffer import WriteBuffer
from repro.mmu.page_table import PageTable
from repro.mmu.tlb import TLB
from repro.params import PAGE_WORDS
from repro.sched.process import PreparedBatch
from repro.trace.record import KIND_LOAD, KIND_NONE, KIND_STORE, TraceBatch
from repro.trace.tracefile import export_din, import_din

from conftest import tiny_config

line_addrs = st.lists(st.integers(min_value=0, max_value=255),
                      min_size=1, max_size=200)


class TestCacheProperties:
    @given(addrs=line_addrs, ways=st.sampled_from([1, 2, 4]))
    @settings(max_examples=60, deadline=None)
    def test_just_accessed_line_is_resident(self, addrs, ways):
        cache = Cache(size_words=256, line_words=4, ways=ways)
        for addr in addrs:
            cache.access(addr)
            assert cache.contains(addr)

    @given(addrs=line_addrs, ways=st.sampled_from([1, 2, 4]))
    @settings(max_examples=60, deadline=None)
    def test_capacity_never_exceeded(self, addrs, ways):
        cache = Cache(size_words=256, line_words=4, ways=ways)
        for addr in addrs:
            cache.access(addr)
        assert cache.valid_lines <= cache.lines
        assert cache.hits + cache.misses == len(addrs)

    @given(addrs=line_addrs)
    @settings(max_examples=60, deadline=None)
    def test_direct_mapped_matches_reference_model(self, addrs):
        cache = Cache(size_words=256, line_words=4, ways=1)  # 64 lines
        reference = {}
        for addr in addrs:
            index = addr % 64
            expected_hit = reference.get(index) == addr
            hit, _ = cache.access(addr)
            assert hit == expected_hit
            reference[index] = addr

    @given(addrs=line_addrs, writes=st.lists(st.booleans(), min_size=1,
                                             max_size=200))
    @settings(max_examples=40, deadline=None)
    def test_dirty_only_if_resident(self, addrs, writes):
        cache = Cache(size_words=256, line_words=4, ways=2)
        for addr, write in zip(addrs, writes):
            cache.access(addr, write=write)
        for addr in set(addrs):
            if cache.is_dirty(addr):
                assert cache.contains(addr)


class TestWriteBufferProperties:
    pushes = st.lists(
        st.tuples(st.integers(0, 30),      # time gap to next push
                  st.integers(0, 63),      # line address
                  st.integers(1, 20)),     # drain cost
        min_size=1, max_size=100)

    @given(pushes=pushes, depth=st.sampled_from([1, 4, 8]))
    @settings(max_examples=60, deadline=None)
    def test_occupancy_and_monotonic_completions(self, pushes, depth):
        wb = WriteBuffer(depth=depth, overlap_cycles=2)
        now = 0
        last_completion = 0
        for gap, line, cost in pushes:
            now += gap
            stall = wb.push(now, line, cost)
            assert stall >= 0
            now += stall
            assert len(wb) <= depth
            completions = [c for _, c in wb._entries]
            # FIFO retirement: completion times strictly increase.
            assert all(a < b for a, b in zip(completions, completions[1:]))
            if completions:
                assert completions[-1] >= last_completion
                last_completion = completions[-1]

    @given(pushes=pushes)
    @settings(max_examples=40, deadline=None)
    def test_wait_empty_empties(self, pushes):
        wb = WriteBuffer(depth=4, overlap_cycles=2)
        now = 0
        for gap, line, cost in pushes:
            now += gap
            now += wb.push(now, line, cost)
        stall = wb.wait_empty(now)
        assert stall >= 0
        assert len(wb) == 0

    @given(pushes=pushes, probe=st.integers(0, 63))
    @settings(max_examples=40, deadline=None)
    def test_flush_through_never_slower_than_wait_empty(self, pushes, probe):
        wb_a = WriteBuffer(depth=4, overlap_cycles=2)
        wb_b = WriteBuffer(depth=4, overlap_cycles=2)
        now = 0
        for gap, line, cost in pushes:
            now += gap
            stall = wb_a.push(now, line, cost)
            wb_b.push(now, line, cost)
            now += stall
        assert wb_a.flush_through(now, probe) <= wb_b.wait_empty(now)


class TestTlbProperties:
    @given(pages=st.lists(st.tuples(st.integers(0, 3), st.integers(0, 99)),
                          min_size=1, max_size=300))
    @settings(max_examples=40, deadline=None)
    def test_just_accessed_entry_resident_and_bounded(self, pages):
        tlb = TLB(entries=16, ways=2)
        for pid, vpage in pages:
            tlb.access(pid, vpage)
            assert tlb.contains(pid, vpage)
        resident = sum(tlb.contains(pid, vpage)
                       for pid, vpage in set(pages))
        assert resident <= 16


class TestPageTableProperties:
    @given(requests=st.lists(st.tuples(st.integers(0, 7),
                                       st.integers(0, 4095)),
                             min_size=1, max_size=300))
    @settings(max_examples=40, deadline=None)
    def test_translation_is_injective_and_stable(self, requests):
        table = PageTable(colors=16)
        mapping = {}
        for pid, vpage in requests:
            frame = table.translate_page(pid, vpage)
            if (pid, vpage) in mapping:
                assert mapping[(pid, vpage)] == frame
            mapping[(pid, vpage)] = frame
        frames = list(mapping.values())
        assert len(set(frames)) == len(frames)

    @given(addrs=st.lists(st.integers(0, 2**24), min_size=1, max_size=200),
           pid=st.integers(0, 5))
    @settings(max_examples=40, deadline=None)
    def test_batch_translation_preserves_offsets(self, addrs, pid):
        table = PageTable()
        out = table.translate_batch(pid, np.asarray(addrs, dtype=np.int64))
        for virtual, physical in zip(addrs, out.tolist()):
            assert virtual % PAGE_WORDS == physical % PAGE_WORDS

    @given(batches=st.lists(
               st.lists(st.one_of(st.integers(0, 3 * PAGE_WORDS),
                                  st.integers(0, 2**24)), max_size=200),
               min_size=1, max_size=3),
           pid=st.integers(0, 5))
    @settings(max_examples=60, deadline=None)
    def test_batch_translation_matches_scalar_first_touch(self, batches,
                                                          pid):
        # Reference: allocate the batch's pages in ascending order, then
        # translate every address one at a time.
        table, reference = PageTable(), PageTable()
        for addrs in batches:
            out = table.translate_batch(pid, np.asarray(addrs,
                                                        dtype=np.int64))
            for vpage in sorted({a // PAGE_WORDS for a in addrs}):
                reference.translate_page(pid, vpage)
            assert out.tolist() == [reference.translate(pid, a)
                                    for a in addrs]
        assert table.state_dict() == reference.state_dict()


class TestTraceRoundtrip:
    batches = st.lists(
        st.tuples(st.integers(0, 2**20),                  # pc
                  st.sampled_from([KIND_NONE, KIND_LOAD, KIND_STORE]),
                  st.integers(0, 2**20)),                 # addr
        min_size=1, max_size=100)

    @given(rows=batches)
    @settings(max_examples=40, deadline=None)
    def test_din_roundtrip(self, rows):
        batch = TraceBatch(
            pc=np.array([r[0] for r in rows], dtype=np.int64),
            kind=np.array([r[1] for r in rows], dtype=np.uint8),
            addr=np.array([r[2] if r[1] != KIND_NONE else 0 for r in rows],
                          dtype=np.int64),
            partial=np.zeros(len(rows), dtype=bool),
            syscall=np.zeros(len(rows), dtype=bool),
        )
        out = io.StringIO()
        export_din(out, batch)
        loaded = import_din(io.StringIO(out.getvalue()))
        assert np.array_equal(loaded.pc, batch.pc)
        assert np.array_equal(loaded.kind, batch.kind)
        assert np.array_equal(loaded.addr, batch.addr)


class TestHierarchyEquivalence:
    """The hand-optimized write-back L1-D must agree with the reference
    Cache model: same hit/miss outcome for every access."""

    ops = st.lists(
        st.tuples(st.sampled_from([KIND_LOAD, KIND_STORE]),
                  st.integers(0, 511)),
        min_size=1, max_size=300)

    @given(ops=ops)
    @settings(max_examples=50, deadline=None)
    def test_l1d_miss_count_matches_reference(self, ops):
        ms = MemorySystem(tiny_config(WritePolicy.WRITE_BACK))
        reference = Cache(size_words=64, line_words=4, ways=1)
        expected_misses = 0
        for kind, addr in ops:
            hit, _ = reference.access(addr >> 2, write=(kind == KIND_STORE))
            if not hit:
                expected_misses += 1
        n = len(ops)
        ms.run_slice(PreparedBatch([0] * n, [k for k, _ in ops],
                                   [a for _, a in ops], [False] * n,
                                   [False] * n, ms._il_shift), 0, 1 << 60)
        observed = ms.stats.l1d_read_misses + ms.stats.l1d_write_misses
        assert observed == expected_misses

    @given(ops=ops)
    @settings(max_examples=30, deadline=None)
    def test_cycles_at_least_instructions(self, ops):
        ms = MemorySystem(tiny_config(WritePolicy.WRITE_ONLY))
        n = len(ops)
        ms.run_slice(PreparedBatch([0] * n, [k for k, _ in ops],
                                   [a for _, a in ops], [False] * n,
                                   [False] * n, ms._il_shift), 0, 1 << 60)
        assert ms.stats.cycles >= ms.stats.instructions
        assert ms.stats.memory_stall_cycles >= 0
