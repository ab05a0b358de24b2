"""A prepared batch, which holds only its events, still holds every
instruction.

A :class:`~repro.sched.process.PreparedBatch` keeps only its event
columns, and the reference engine and the invariant auditor read
windows rebuilt from them
(:meth:`~repro.sched.process.PreparedBatch.window`).  So ``reference``
stays an oracle only if every window equals the raw columns: each
instruction's L1-I line (``pc >> il_shift``, whose page is
``pc >> 12``), each data row's kind, address and partial flag, and the
system-call flags.  Generated columns cover back-edges inside a line,
line and page crossings, all three kinds, partial stores, system calls
on event and non-event rows, addresses past int32, and 4- and 8-word
L1-I lines; the test fails if the examples miss any of these.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.params import PAGE_WORDS
from repro.sched.process import PreparedBatch

#: Offset that takes an address, and its L1-I line, past int32.
HIGH = 1 << 40


@st.composite
def columns(draw):
    """Raw columns (pcs, kinds, addresses, partial and system-call
    flags): mostly sequential code with back-edges inside a 4-word line,
    jumps, and runs up to a page boundary; non-data rows carry address
    0, as a trace's do."""
    n = draw(st.integers(1, 150))
    base = HIGH if draw(st.integers(0, 4)) == 0 else 0
    pc = draw(st.integers(0, 3 * PAGE_WORDS))
    pcs, kinds, addrs, partials, syscalls = [], [], [], [], []
    for i in range(n):
        step = draw(st.sampled_from(("next", "next", "next", "back",
                                     "jump", "page")))
        if not i:
            pass
        elif step == "next":
            pc += 1
        elif step == "back":
            pc -= draw(st.integers(0, pc % 4))
        elif step == "jump":
            pc = draw(st.integers(0, 3 * PAGE_WORDS))
        else:
            pc = (pc // PAGE_WORDS + 1) * PAGE_WORDS - draw(
                st.integers(1, 3))
        kind = draw(st.sampled_from((0, 0, 1, 2)))
        pcs.append(base + pc)
        kinds.append(kind)
        addrs.append(base + draw(st.integers(0, 4 * PAGE_WORDS))
                     if kind else 0)
        partials.append(kind == 2 and draw(st.booleans()))
        syscalls.append(draw(st.integers(0, 7)) == 0)
    return pcs, kinds, addrs, partials, syscalls


def features(raw, il_shift: int) -> set:
    """What an example covers, for the coverage check."""
    pcs, kinds, _, partials, syscalls = (np.array(c) for c in raw)
    lines = pcs >> il_shift
    moved = np.diff(pcs)
    same_line = lines[1:] == lines[:-1]
    event = np.ones(len(pcs), bool)
    event[1:] = ~same_line
    event |= kinds != 0
    found = {f"line {1 << il_shift}", *(f"kind {k}" for k in set(kinds))}
    for name, seen in (
            ("back-edge in a line", same_line & (moved < 0)),
            ("line crossing", ~same_line),
            ("page crossing", np.diff(pcs >> 12) != 0),
            ("partial store", partials),
            ("syscall on an event", syscalls & event),
            ("syscall on a non-event", syscalls & ~event),
            ("past int32", pcs >= HIGH)):
        if seen.any():
            found.add(name)
    return found


def test_windows_rebuild_the_raw_columns():
    seen = set()

    @settings(max_examples=300, deadline=None)
    @given(raw=columns(), il_shift=st.sampled_from((2, 3)), data=st.data())
    def check(raw, il_shift, data):
        seen.update(features(raw, il_shift))
        pcs, kinds, addrs, partials, syscalls = (np.array(c) for c in raw)
        n = len(pcs)
        batch = PreparedBatch(*raw, il_shift)
        assert len(batch) == n
        for column, values in ((batch.lines, pcs >> il_shift),
                               (batch.addrs, addrs)):
            wide = values.max() >= 1 << 31
            assert column.dtype == (np.int64 if wide else np.int32)
        assert batch.positions.dtype == batch.syscalls.dtype == np.int32
        assert batch.codes.dtype == np.uint8
        start = data.draw(st.integers(0, n), label="start")
        for lo, hi in ((0, n), (start, data.draw(st.integers(start, n),
                                                 label="stop"))):
            lines, kinds_, addrs_, partials_, syscalls_ = batch.window(lo,
                                                                       hi)
            rows = slice(lo, hi)
            data_rows = kinds[rows] != 0
            assert np.array_equal(lines, pcs[rows] >> il_shift)
            assert np.array_equal(lines >> (12 - il_shift), pcs[rows] >> 12)
            assert np.array_equal(kinds_, kinds[rows])
            assert np.array_equal(addrs_[data_rows], addrs[rows][data_rows])
            assert np.array_equal(partials_[data_rows],
                                  partials[rows][data_rows])
            assert np.array_equal(syscalls_, syscalls[rows])

    check()
    assert seen == {
        "line 4", "line 8", "kind 0", "kind 1", "kind 2",
        "back-edge in a line", "line crossing", "page crossing",
        "partial store", "syscall on an event", "syscall on a non-event",
        "past int32"}
