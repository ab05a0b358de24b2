"""Unit tests for the page-coloring page table."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError, TraceError
from repro.mmu.page_table import DENSE_SLOTS_PER_RECORD, PageTable
from repro.params import PAGE_WORDS
from repro.sched.process import PreparedBatch
from repro.trace.benchmarks import default_suite
from repro.trace.record import KIND_LOAD, KIND_NONE, KIND_STORE, TraceBatch
from repro.trace.synthetic import SyntheticBenchmark


class TestTranslation:
    def test_mapping_is_stable(self):
        table = PageTable()
        first = table.translate(1, 12345)
        again = table.translate(1, 12345)
        assert first == again

    def test_offsets_preserved(self):
        table = PageTable()
        phys = table.translate(1, 5 * PAGE_WORDS + 99)
        assert phys % PAGE_WORDS == 99

    def test_distinct_pids_get_distinct_frames(self):
        table = PageTable()
        a = table.translate_page(1, 7)
        b = table.translate_page(2, 7)
        assert a != b

    def test_distinct_pages_get_distinct_frames(self):
        table = PageTable()
        frames = {table.translate_page(1, vpage) for vpage in range(1000)}
        assert len(frames) == 1000

    def test_sequential_pages_get_sequential_colors(self):
        # Page coloring: contiguous virtual pages must not collide within
        # the color span.
        table = PageTable(colors=64)
        colors = [table.translate_page(3, vpage) % 64 for vpage in range(64)]
        assert len(set(colors)) == 64

    def test_frame_color_is_deterministic_per_page(self):
        table = PageTable(colors=16)
        frame1 = table.translate_page(1, 100)
        # Allocate lots of other pages, then re-ask.
        for vpage in range(200, 300):
            table.translate_page(2, vpage)
        assert table.translate_page(1, 100) == frame1

    def test_pid_range_checked(self):
        table = PageTable()
        with pytest.raises(ConfigurationError):
            table.translate_page(-1, 0)
        with pytest.raises(ConfigurationError):
            table.translate_page(256, 0)

    def test_colors_must_be_power_of_two(self):
        with pytest.raises(ConfigurationError):
            PageTable(colors=100)


class TestBatchTranslation:
    def test_matches_scalar_translation(self):
        table_a = PageTable()
        table_b = PageTable()
        addrs = np.array([0, 5, PAGE_WORDS, 3 * PAGE_WORDS + 17, 5],
                         dtype=np.int64)
        batch = table_a.translate_batch(2, addrs)
        scalars = [table_b.translate(2, int(a)) for a in sorted(set(addrs))]
        # Allocation order differs (batch allocates in sorted-unique order),
        # but the set of (virtual, physical) pairs must be consistent within
        # each table; check the batch result is internally consistent:
        assert batch[1] - batch[0] == 5           # same page, offset delta
        assert batch[4] == batch[1]               # repeated address
        assert all(b % PAGE_WORDS == a % PAGE_WORDS
                   for a, b in zip(addrs.tolist(), batch.tolist()))

    def test_batch_then_scalar_consistent(self):
        table = PageTable()
        addrs = np.array([10, PAGE_WORDS + 10], dtype=np.int64)
        batch = table.translate_batch(1, addrs)
        assert table.translate(1, 10) == batch[0]
        assert table.translate(1, PAGE_WORDS + 10) == batch[1]

    def test_frames_allocated_counts(self):
        table = PageTable()
        table.translate_batch(1, np.arange(0, 5 * PAGE_WORDS, PAGE_WORDS,
                                           dtype=np.int64))
        assert table.frames_allocated == 5
        assert len(table) == 5

    def test_reset(self):
        table = PageTable()
        before = table.translate_page(1, 3)
        table.reset()
        assert table.frames_allocated == 0
        # After reset the allocator restarts; same page may get a new frame,
        # but translation must again be stable.
        after = table.translate_page(1, 3)
        assert table.translate_page(1, 3) == after


# ------------------------------------------------- batch translation oracle

def oracle_translate(table: PageTable, pid: int, addrs) -> np.ndarray:
    """The batch contract, one page at a time: first touches in ascending
    page order, then one lookup per address."""
    addrs = [int(a) for a in addrs]
    for vpage in sorted({a // PAGE_WORDS for a in addrs}):
        table.translate_page(pid, vpage)
    return np.array([table.translate(pid, a) for a in addrs],
                    dtype=np.int64)


def assert_same_tables(table: PageTable, oracle: PageTable) -> None:
    # state_dict() lists the map in insertion order: allocation order.
    assert table.state_dict() == oracle.state_dict()
    assert table.frames_allocated == oracle.frames_allocated


def _word(page: int, offset: int) -> int:
    return page * PAGE_WORDS + offset % PAGE_WORDS


#: Pieces of a column: a long run on one page, short runs alternating
#: with page 0 (a data column's non-data rows carry address 0), a
#: scatter of far pages that makes the span too wide for a slot table
#: (alone, pages past 2**31 give frame - page values beyond int32), or
#: uniformly random addresses.
_offsets = st.integers(0, PAGE_WORDS - 1)
_long_run = st.builds(
    lambda page, n, offset: [_word(page, offset + i) for i in range(n)],
    st.integers(0, 40), st.integers(1, 300), _offsets)
_alternating = st.builds(
    lambda pages, offsets: [a for page, offset in zip(pages, offsets)
                            for a in (0, _word(page, offset))],
    st.lists(st.integers(1, 12), min_size=1, max_size=60),
    st.lists(_offsets, min_size=60, max_size=60))
_far = st.lists(st.builds(_word, st.sampled_from([3, 500, 70_000, 2**20,
                                                  2**30, 2**40, 2**40 + 2]),
                          _offsets), min_size=1, max_size=8)
_scatter = st.lists(st.integers(0, 2**24), min_size=1, max_size=200)
_columns = st.lists(st.one_of(_long_run, _alternating, _far, _scatter),
                    max_size=6).map(lambda parts: np.array(
                        [a for part in parts for a in part], dtype=np.int64))


class TestPhantomPageZero:
    def test_preparing_a_batch_maps_page_0(self):
        # Non-data rows carry address 0 and from_batch maps page 0 as
        # translating the whole addr column would, so preparing a Table 1
        # batch for pid 3 maps (3, 0), though none of the batch's fetches
        # or data accesses is on page 0 (DESIGN §6).  The phantom frame
        # takes a slot of its colour, so the next page of that colour
        # lands one colour span (256 frames, 1,024 KW) higher than
        # without it: only frame bits above the colour bits move.
        batch = SyntheticBenchmark(default_suite()[0]).next_batch()
        data = batch.kind != KIND_NONE
        assert not data.all()
        assert (batch.pc // PAGE_WORDS).min() > 0
        assert (batch.addr[data] // PAGE_WORDS).min() > 0
        table, without = PageTable(), PageTable()
        PreparedBatch.from_batch(batch, pid=3, page_table=table, il_shift=2)
        without.translate_batch(3, batch.pc)
        without.translate_batch(3, batch.addr[data])

        def pages(t):
            return {(pid, vpage) for pid, vpage, _ in t.state_dict()["map"]}

        assert (3, 0) not in pages(without)
        assert pages(table) == pages(without) | {(3, 0)}
        assert table.translate_page(3, 256) == (
            without.translate_page(3, 256) + table.colors)


class TestBatchTranslationOracle:
    @given(batches=st.lists(st.tuples(st.integers(0, 5), _columns),
                            min_size=1, max_size=5),
           colors=st.sampled_from([16, 256]))
    @settings(max_examples=150, deadline=None)
    def test_matches_oracle(self, batches, colors):
        # Several pids share one table, each batch sees the pages its
        # predecessors allocated, and columns run both lookup paths.
        table, oracle = PageTable(colors), PageTable(colors)
        for pid, column in batches:
            out = table.translate_batch(pid, column)
            expected = oracle_translate(oracle, pid, column)
            assert out.dtype == expected.dtype
            assert np.array_equal(out, expected)
            assert_same_tables(table, oracle)

    @pytest.mark.parametrize("extra", [0, 1])
    def test_both_paths_at_the_dense_limit(self, extra, monkeypatch):
        # A column of n records whose pages span DENSE_SLOTS_PER_RECORD *
        # n slots uses the slot table; one slot more sorts the runs.
        n = 50
        span = DENSE_SLOTS_PER_RECORD * n + extra
        column = np.array([_word(7, 3)] * (n - 1) + [_word(7 + span - 1, 9)],
                          dtype=np.int64)
        sorts = []
        original = PageTable._run_deltas
        monkeypatch.setattr(
            PageTable, "_run_deltas",
            lambda self, pid, vpages: sorts.append(1)
            or original(self, pid, vpages))
        table, oracle = PageTable(), PageTable()
        table.translate_page(2, 12)
        oracle.translate_page(2, 12)
        out = table.translate_batch(2, column)
        assert len(sorts) == extra
        assert np.array_equal(out, oracle_translate(oracle, 2, column))
        assert_same_tables(table, oracle)

    def test_wide_frame_offsets(self):
        # Dense, but frame - page is below -2**31: no int32 slot holds it.
        column = np.array([_word(2**40, 5), _word(2**40 + 2, 7),
                           _word(2**40, 9)], dtype=np.int64)
        table, oracle = PageTable(), PageTable()
        out = table.translate_batch(4, column)
        assert np.array_equal(out, oracle_translate(oracle, 4, column))
        assert_same_tables(table, oracle)

    def test_empty_column(self):
        table = PageTable()
        out = table.translate_batch(1, np.zeros(0, dtype=np.int64))
        assert out.dtype == np.int64 and len(out) == 0
        assert table.frames_allocated == 0

    def test_prepared_batch_in_both_modes(self):
        # Preparation translates only what a batch's events keep: the
        # event pcs and the data rows' addresses.  Each event's L1-I line
        # and each data event's address must still be what translating
        # the whole pc column, then the whole address column, gives, and
        # so must every frame allocated, in order, after every batch.  A
        # non-data row carries address 0, as a trace's do, except in a
        # foreign trace file, where its address may be any (stray).
        rows = st.lists(st.tuples(
            _offsets | st.integers(0, 2**21),
            st.sampled_from([KIND_NONE, KIND_LOAD, KIND_STORE]),
            st.integers(0, 40), st.booleans(),
            st.sampled_from(["ok", "ok", "ok", "pc", "addr", "kind",
                             "partial"]),
            st.integers(0, 3)), max_size=120)
        seen = set()

        @given(batches=st.lists(st.tuples(rows, st.integers(0, 7)),
                                min_size=1, max_size=3),
               il_shift=st.sampled_from((0, 2, 3)), warm=st.booleans(),
               foreign=st.booleans())
        @settings(max_examples=120, deadline=None)
        def check(batches, il_shift, warm, foreign):
            for mode in ("raise", "skip"):
                table, oracle = PageTable(), PageTable()
                if warm:
                    warm_column = np.arange(0, 9 * PAGE_WORDS, PAGE_WORDS)
                    table.translate_batch(batches[0][1], warm_column)
                    oracle_translate(oracle, batches[0][1], warm_column)
                for raw, pid in batches:
                    prepare_and_compare(raw, pid, il_shift, foreign, mode,
                                        table, oracle)

        def prepare_and_compare(raw, pid, il_shift, foreign, mode, table,
                                oracle):
            pcs, kinds, addrs, partials, bad = [], [], [], [], []
            for pc, kind, page, partial, fault, stray in raw:
                if kind != KIND_NONE:
                    addr = _word(page, pc)
                else:
                    addr = _word(page, pc) if foreign and not stray else 0
                partial = partial and kind == KIND_STORE
                if fault == "pc":
                    pc = -1 - pc
                elif fault == "addr":
                    addr = -1 - addr
                elif fault == "kind":
                    kind = 3
                elif fault == "partial":
                    partial, kind = True, KIND_LOAD
                pcs.append(pc)
                kinds.append(kind)
                addrs.append(addr)
                partials.append(partial)
                bad.append(fault != "ok")
            batch = TraceBatch(pc=np.array(pcs, dtype=np.int64),
                               kind=np.array(kinds, dtype=np.uint8),
                               addr=np.array(addrs, dtype=np.int64),
                               partial=np.array(partials, dtype=bool),
                               syscall=np.zeros(len(raw), dtype=bool))
            if mode == "raise" and any(bad):
                with pytest.raises(TraceError):
                    PreparedBatch.from_batch(batch, pid, table, il_shift,
                                             mode)
                assert_same_tables(table, oracle)
                return
            prepared = PreparedBatch.from_batch(batch, pid, table, il_shift,
                                                mode)
            good = [i for i, b in enumerate(bad) if not b]
            kinds = np.array(kinds, dtype=np.uint8)[good]
            addrs = np.array(addrs, dtype=np.int64)[good]
            non_data = kinds == KIND_NONE
            seen.add("stray address" if addrs[non_data].any()
                     else "page 0" if non_data.any()
                     else "data only" if good else "empty")
            expected_pc = oracle_translate(oracle, pid,
                                           [pcs[i] for i in good])
            expected_addr = oracle_translate(oracle, pid, addrs)
            assert prepared.dropped == len(raw) - len(good)
            assert len(prepared) == len(good)
            lines = expected_pc >> il_shift
            event = ~non_data
            event[:1] = True
            event[1:] |= lines[1:] != lines[:-1]
            events = np.flatnonzero(event)
            assert np.array_equal(prepared.positions, events)
            assert np.array_equal(prepared.lines, lines[events])
            data = ~non_data[events]
            assert np.array_equal(prepared.codes & 3, kinds[events])
            assert np.array_equal(prepared.addrs[data],
                                  expected_addr[events][data])
            assert not prepared.addrs[~data].any()
            assert_same_tables(table, oracle)

        check()
        assert {"stray address", "page 0", "data only"} <= seen
