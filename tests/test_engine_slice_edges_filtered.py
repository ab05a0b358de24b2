"""The slice-edge battery again, with every call filtering.

``batched`` skips provable L1 hits only on calls that can reach more
than ``FILTER_MIN_EVENTS`` events, which the battery's short slices
never do.  This module collects every test of
``tests/test_engine_slice_edges.py`` once more with the constant at 0,
so that every call filters, and pins the cases a filtering call could
get wrong: batches in which an earlier access to the same set must
*not* prove a later one a hit, and write-back store hits that are
skipped but still take their second cycle.
"""

from __future__ import annotations

import pytest

from repro.core.config import BypassMode, WritePolicy
from repro.core.engine import (
    REASON_END,
    REASON_SLICE,
    REASON_SYSCALL,
    batched,
)
from repro.params import PAGE_WORDS

from test_engine_slice_edges import *  # noqa: F401,F403 - collected again
from test_engine_slice_edges import Pair, machine, prepared, sweep


@pytest.fixture(autouse=True, scope="module")
def every_call_filters():
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(batched, "FILTER_MIN_EVENTS", 0)
        yield


def skippable(batch, start: int) -> list:
    """The events a filtering call from ``start`` skips, by position."""
    return [p for p, q in zip(batch.positions.tolist(),
                              batch.hits.thresholds.tolist()) if q >= start]


def test_far_call_to_the_same_set_between_two_fetches():
    # Lines 0 (pcs 0-3) and 4 (pcs 16-19) share L1-I set 0: returning to
    # line 0 misses, although the batch fetched it before.
    pair = Pair(machine())
    batch = prepared([0, 1, 16, 17, 2, 3])
    assert pair.call(batch, 0, 1 << 40) == (6, REASON_END)
    assert pair.ref.stats.l1i_misses == 3
    assert skippable(batch, 0) == []


def test_line_touched_in_the_previous_call_and_evicted_by_another_process():
    # pcs 4-5 prove the return to line 1 at position 4 only within the
    # call that ran them.  The next call starts at position 3, after
    # another process evicted line 1, and reaches line 1 after its own
    # first instruction.
    pair = Pair(machine())
    mine = prepared([4, 5, 8, 9, 4, 5],
                    syscalls=[i == 2 for i in range(6)])
    theirs = prepared([20, 21])  # line 5: L1-I set 1, as line 1
    assert pair.call(mine, 0, 1 << 40) == (3, REASON_SYSCALL)
    assert skippable(mine, 0) == [4]
    pair.call(theirs, 0, 1 << 40)
    misses = pair.ref.stats.l1i_misses
    assert pair.call(mine, 3, 1 << 40) == (3, REASON_END)
    assert pair.ref.stats.l1i_misses == misses + 1
    assert skippable(mine, 3) == []


def test_write_miss_invalidate_store_miss_between_two_loads():
    # Loading word 56 (line 14) evicts line 10 from L1-D set 2, so the
    # store to word 42 misses and invalidates the set: the load of word
    # 41 misses, although the access before it in its set wrote its line.
    pair = Pair(machine(WritePolicy.WRITE_MISS_INVALIDATE))
    batch = prepared(range(4), kinds=[1, 1, 2, 1], addrs=[40, 56, 42, 41])
    assert pair.call(batch, 0, 1 << 40) == (4, REASON_END)
    assert pair.ref.stats.l1d_read_misses == 3
    assert skippable(batch, 0) == []


def test_write_only_store_then_a_load():
    # The store misses and allocates line 10 write-only: the load finds
    # its tag but misses.
    pair = Pair(machine(WritePolicy.WRITE_ONLY))
    batch = prepared(range(2), kinds=[2, 1], addrs=[40, 41])
    assert pair.call(batch, 0, 1 << 40) == (2, REASON_END)
    assert pair.ref.stats.l1d_write_only_read_misses == 1
    assert skippable(batch, 0) == []


def test_subblock_load_of_another_word():
    # A full-word store miss installs line 10 with only word 41 valid.
    # The store proves the loads of 41, but not the load of 42, which
    # misses.  All four share one L1-I line, so only the data side
    # decides.
    pair = Pair(machine(WritePolicy.SUBBLOCK))
    batch = prepared(range(4), kinds=[2, 1, 1, 1], addrs=[41, 41, 41, 42])
    assert pair.call(batch, 0, 1 << 40) == (4, REASON_END)
    assert pair.ref.stats.l1d_read_misses == 1
    assert skippable(batch, 0) == [1, 2]


def test_subblock_partial_store_and_store_to_another_word():
    # The partial-word store miss installs line 10 with no valid word,
    # and the full-word store validates word 42 only: the load of 41
    # misses.
    pair = Pair(machine(WritePolicy.SUBBLOCK))
    batch = prepared(range(3), kinds=[2, 2, 1], addrs=[41, 42, 41],
                     partials=[True, False, False])
    assert pair.call(batch, 0, 1 << 40) == (3, REASON_END)
    assert pair.ref.stats.l1d_read_misses == 1
    assert skippable(batch, 0) == []


#: Under write-back: the load installs line 10, the store to 41 hits,
#: and the store to 42 hits with an earlier store of its run behind it.
STORES = prepared(range(6), kinds=[1, 2, 2, 0, 0, 0],
                  addrs=[40, 41, 42, 0, 0, 0])


def test_write_back_store_after_only_loads_runs():
    # Only the second store has a store before it in its run.
    pair = Pair(machine())
    assert pair.call(STORES, 0, 1 << 40) == (6, REASON_END)
    assert skippable(STORES, 0) == [2]
    assert pair.ref.stats.stall_l1_writes == pair.ref.stats.stores == 2


def test_write_back_store_cut_off_by_another_line():
    # Loading word 56 (line 14) evicts line 10 from L1-D set 2 between
    # the stores, so the second one misses.
    pair = Pair(machine())
    batch = prepared(range(3), kinds=[2, 1, 2], addrs=[40, 56, 41])
    assert pair.call(batch, 0, 1 << 40) == (3, REASON_END)
    assert pair.ref.stats.l1d_write_misses == 2
    assert skippable(batch, 0) == []


@pytest.mark.parametrize("past", (0, 1), ids=("second-cycle", "first"))
def test_deadline_on_a_skipped_store(past):
    # The deadline falls on the skipped store's second cycle, or on its
    # first, which the second then passes: either way the call ends
    # there.
    ends = [deadline for deadline, result, ms in sweep(machine(), STORES)
            if result == (3, REASON_SLICE) and ms.now == deadline + past]
    assert len(ends) == 1
    assert skippable(STORES, 0) == [2]


def test_syscall_on_a_skipped_store():
    pair = Pair(machine())
    batch = prepared(range(6), kinds=[1, 2, 2, 0, 0, 0],
                     addrs=[40, 41, 42, 0, 0, 0],
                     syscalls=[i == 2 for i in range(6)])
    assert pair.call(batch, 0, 1 << 40) == (3, REASON_SYSCALL)
    assert skippable(batch, 0) == [2]
    assert pair.call(batch, 3, 1 << 40) == (3, REASON_END)


def test_dirty_bit_scheme_proves_no_store():
    # As in test_epoch_bump_then_inline_store_hit, the load miss bumps
    # the epoch between the stores, so the second store's dirty mark is
    # not the first one's: it runs.  Without the scheme it is skipped.
    batch = prepared(range(3), kinds=[2, 1, 2], addrs=[40, 20, 41])
    assert Pair(machine()).call(batch, 0, 1 << 40) == (3, REASON_END)
    assert skippable(batch, 0) == [2]
    pair = Pair(machine())
    for ms in pair.systems:
        ms._bypass = BypassMode.DIRTY_BIT
        ms._dirty_bit_bypass = True
    assert pair.call(batch, 0, 1 << 40) == (3, REASON_END)
    assert skippable(batch, 0) == []
    ref = pair.ref
    assert ref._ddirty[10 & ref._d_mask] == ref._dirty_epoch == 3


@pytest.mark.parametrize("policy", list(WritePolicy))
def test_page_change_between_two_same_line_loads(policy):
    # Word 4 of the next page is in another L1-D set, so line 10 stays
    # resident and the second load of word 40 hits; it still probes the
    # D-TLB, because the data access before it was on another page.
    pair = Pair(machine(policy, tlb=True))
    batch = prepared(range(3), kinds=[1, 1, 1],
                     addrs=[40, PAGE_WORDS + 4, 40])
    assert pair.call(batch, 0, 1 << 40) == (3, REASON_END)
    assert pair.ref.stats.l1d_read_misses == 2
    assert pair.ref.dtlb.probes == 3
    assert skippable(batch, 0) == []


def test_page_change_between_two_fetches_of_a_line():
    # The same on the instruction side: line 1025 is in L1-I set 1 and
    # on the next page, so the return to line 0 hits and probes the
    # I-TLB.
    pair = Pair(machine(tlb=True))
    batch = prepared([0, 1, PAGE_WORDS + 4, 2])
    assert pair.call(batch, 0, 1 << 40) == (4, REASON_END)
    assert pair.ref.stats.l1i_misses == 2
    assert pair.ref.itlb.probes == 3
    assert skippable(batch, 0) == []
