"""The batched engine: a scalar loop that visits only events.

Most instructions hit everywhere and cost exactly one cycle.  This
engine finds, once per prepared batch and with NumPy, the instructions
that might not, and its loop executes only those *events*; every other
instruction is a free step that advances the clock by one.

The event index
---------------

An instruction is an event when its L1-I line differs from the previous
instruction's, or when it accesses data.  :func:`event_index` compacts
the batch's columns to its events, as NumPy arrays: their positions
(int32), each event's L1-I line, kind, address and partial flag, and
the system-call positions.  The index depends only on the batch and the
L1-I line size, so it is built on the first call that runs the batch,
kept on the :class:`~repro.sched.process.PreparedBatch` next to its
columns, rebuilt only for a different line size, and freed with the
batch.  Each call finds the slice of the index it can reach (at one
cycle per instruction, none past ``start + deadline - now``) and zips
memoryviews of it, which yield one event at a time: a call converts only
the events it runs.  Every value the loop passes on is a Python ``int``
or ``bool``: a NumPy scalar would leak into statistics, obs events and
``state_dict()``.

Why skipping is exact
---------------------

* Only ``ifetch_miss`` writes L1-I tags, and it installs the line it
  fetches.  So an instruction in the same line as the one before it, in
  the same call, hits.  A line is never larger than a page (an L1 is at
  most a page), so it is also on the same page: no I-TLB probe.  The
  I-TLB page check therefore sits under the line-change test.
* The first instruction of every call is always an event: another
  process may have evicted its line, or moved the TLB's last page,
  since this batch last ran.  When the index does not list it, it is
  prepended as a kind-0 instruction: every data access is listed.
* A free instruction touches no state, so the only question is where
  the call stops.  The clock after a free step at position ``q`` is
  ``q + c``, and ``c`` moves only when an event stalls.  The reference
  loop tests ``now >= deadline`` after every instruction, and a system
  call wins a tie with it.  So an event runs only if the clock before
  it is below the deadline, and after the last one the call takes free
  steps up to where they reach the deadline, the next system call or
  the batch end, whichever comes first.  A call with
  ``start < len(batch)`` always runs at least one instruction, as
  ``reference`` does.

Events run the reference loop's code.  Misses and stores go through the
same bound handlers, with two exceptions, the common store hits, which
are accounted inline:

* A write-back store hit sets the line's dirty mark and costs one extra
  cycle, as ``store_write_back``'s hit branch does.
* A write-through store hit (write-miss-invalidate, write-only,
  subblock) whose L2-D line is in a direct-mapped half and that finds
  room in the write buffer once finished drains retire.  It does what
  ``push_write``'s direct-mapped hit, ``WriteBuffer.push`` without a
  stall and the policy's hit branch do, and costs no extra cycle.  The
  checks run in that order: L1-D tag, L2-D tag, retire, room.  Retiring
  is the only change made before the path commits, and the handler's
  own ``expire`` at the same cycle is then a no-op, so a fallback to
  ``ms._store`` stays exact.  Its counters (L2 write accesses, L2-D
  hits, buffer pushes, retirements and peak occupancy) are kept in
  locals and flushed at the end of the call, before the energy fold;
  faults and audits run only between calls.

Both read ``ms._dirty_epoch`` at the moment of the store, because
handlers may bump the epoch, and neither emits an obs event, as none of
the code they mirror does on these paths.  Statistics, obs event
streams and checkpoints are bit-identical to ``reference``
(``tests/test_engine_*``, ``tests/test_golden_miss_path.py``).
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import chain

import numpy as np

from repro.core.config import WritePolicy
from repro.core.engine import (
    REASON_END,
    REASON_SLICE,
    REASON_SYSCALL,
    Engine,
    SliceResult,
)
from repro.params import PAGE_WORDS, log2i

_PAGE_SHIFT = log2i(PAGE_WORDS)


def event_index(batch, il_shift: int) -> tuple:
    """The event index of a :class:`~repro.sched.process.PreparedBatch`.

    Returns ``(il_shift, positions, lines, kinds, addrs, partials,
    system-call positions)``, all but the first NumPy arrays.
    ``positions`` is a sorted int32 array of the positions whose L1-I
    line (``pc >> il_shift``) differs from the previous position's or
    that access data; ``lines``, ``kinds``, ``addrs`` and ``partials``
    hold each event's L1-I line and data access.
    """
    lines = batch.pc >> il_shift
    event = batch.kind != 0
    if lines.size:
        event[0] = True
        event[1:] |= lines[1:] != lines[:-1]
    positions = np.flatnonzero(event)
    return (il_shift, positions.astype(np.int32), lines[positions],
            batch.kind[positions], batch.addr[positions],
            batch.partial[positions], np.flatnonzero(batch.syscall))


class BatchedEngine(Engine):
    """Event-indexed execution, bit-identical to ``reference``."""

    name = "batched"

    def __init__(self, ms):
        super().__init__(ms)
        policy = ms.config.write_policy
        self._wb_store_hits = policy is WritePolicy.WRITE_BACK
        self._subblock = policy is WritePolicy.SUBBLOCK

    def run_slice(self, batch, start: int, deadline: int) -> SliceResult:
        ms = self.ms
        st = ms.stats
        now = ms.now
        last_ipage = ms._last_ipage
        last_dpage = ms._last_dpage
        n = len(batch)
        end = start
        reason = REASON_END
        if start < n:
            il_shift = ms._il_shift
            if batch.events is None or batch.events[0] != il_shift:
                batch.events = event_index(batch, il_shift)
            _, ev, ev_lines, ev_kinds, ev_addrs, ev_partials, sys_pos = (
                batch.events)
            j = sys_pos.searchsorted(start)
            sys_at = int(sys_pos[j]) if j < len(sys_pos) else n
            last = sys_at if sys_at < n else n - 1
            # The call runs at least one instruction, so at least one
            # cycle; at one cycle each, none runs past ``reach``.
            cutoff = deadline if deadline > now else now + 1
            reach = start + cutoff - now - 1
            # int32 queries: a Python int would make NumPy cast the
            # whole index to int64.
            lo, hi = ev.searchsorted(np.array(
                (start, (reach if reach < last else last) + 1),
                np.int32)).tolist()
            # Memoryviews yield Python ints and bools, one per step, so
            # the loop converts only the events it reaches.
            positions = memoryview(ev[lo:hi])
            rows = zip(positions, memoryview(ev_lines[lo:hi]),
                       memoryview(ev_kinds[lo:hi]),
                       memoryview(ev_addrs[lo:hi]),
                       memoryview(ev_partials[lo:hi]))
            if lo == hi or positions[0] != start:
                # Not an event, so it accesses no data.
                rows = chain((
                    (start, int(batch.pc[start]) >> il_shift, 0, 0, False),),
                    rows)

            itags = ms._itags
            ip_shift = _PAGE_SHIFT - il_shift
            i_mask = ms._i_mask
            dtags = ms._dtags
            ddirty = ms._ddirty
            dwrite_only = ms._dwrite_only
            dvalid = ms._dvalid
            dl_shift = ms._dl_shift
            d_mask = ms._d_mask
            dline_mask = ms._dline_mask
            tlb_on = ms._tlb_enabled
            itlb_access = ms.itlb.access
            dtlb_access = ms.dtlb.access
            tlb_penalty = ms._tlb_penalty
            ifetch_miss = ms._ifetch_miss
            load_miss = ms._load_miss
            store = ms._store
            wb_store_hits = self._wb_store_hits
            # A write-through store hit needs a direct-mapped L2-D half.
            # Resolved per call: a test may clear the tags after
            # construction to force ``Cache.access``.
            l2d_tags = ms._l2d_tags
            wt_store_hits = not wb_store_hits and l2d_tags is not None
            if wt_store_hits:
                subblock = self._subblock
                d_l2_delta = ms._d_l2_delta
                l2d_mask = ms._l2d_mask
                l2d_dirty = ms._l2d_dirty
                wb = ms.wb
                entries = wb._entries
                append = entries.append
                popleft = entries.popleft
                depth = wb.depth
                word_cost = ms._wb_word_cost
                step = max(1, word_cost - wb.overlap_cycles)
                max_occupancy = wb.max_occupancy

            loads = stores = write_hits = wt_hits = retired = 0
            iline_prev = None  # the call's first instruction is an event
            # The clock after a free step at position q is q + c; only a
            # stall moves c.
            c = now + 1 - start
            for i, iline, kind, addr, partial in rows:
                if i + c > cutoff:
                    break  # the deadline falls before i
                if iline != iline_prev:
                    iline_prev = iline
                    if tlb_on:
                        page = iline >> ip_shift
                        if page != last_ipage:
                            last_ipage = page
                            if not itlb_access(0, page):
                                c += tlb_penalty
                                st.stall_tlb += tlb_penalty
                    if itags[iline & i_mask] != iline:
                        c = ifetch_miss(i + c, iline) - i
                if kind:
                    if tlb_on:
                        page = addr >> _PAGE_SHIFT
                        if page != last_dpage:
                            last_dpage = page
                            if not dtlb_access(0, page):
                                c += tlb_penalty
                                st.stall_tlb += tlb_penalty
                    dline = addr >> dl_shift
                    index = dline & d_mask
                    if kind == 1:
                        loads += 1
                        if not (dtags[index] == dline
                                and not dwrite_only[index]
                                and (dvalid[index] >> (addr & dline_mask))
                                & 1):
                            c = load_miss(i + c, dline, index) - i
                    else:
                        stores += 1
                        if dtags[index] == dline:
                            if wb_store_hits:
                                ddirty[index] = ms._dirty_epoch
                                write_hits += 1
                                c += 1
                                continue
                            if wt_store_hits:
                                line2 = dline >> d_l2_delta
                                index2 = line2 & l2d_mask
                                if l2d_tags[index2] == line2:
                                    t = i + c
                                    while entries and entries[0][1] <= t:
                                        popleft()
                                        retired += 1
                                    occupancy = len(entries)
                                    if occupancy < depth:
                                        # push_write's direct-mapped hit,
                                        # WriteBuffer.push without a stall
                                        # and the policy's hit branch;
                                        # keep them in step.
                                        l2d_dirty[index2] = True
                                        done = wb._last_completion + step
                                        if done < t + word_cost:
                                            done = t + word_cost
                                        wb._last_completion = done
                                        append((dline, done))
                                        wt_hits += 1
                                        if occupancy >= max_occupancy:
                                            max_occupancy = occupancy + 1
                                        if subblock and not partial:
                                            dvalid[index] |= 1 << (
                                                addr & dline_mask)
                                        ddirty[index] = ms._dirty_epoch
                                        continue
                        c = store(i + c, addr, partial) - i
            else:
                i = reach + 1  # every reachable event ran
            # The last instruction run: where free steps after the last
            # event reach the deadline, the system call or the batch end.
            end = cutoff - c
            if end > last:
                end = last
            k = bisect_left(positions, i)
            ran = positions[k - 1] if k else start
            if end < ran:
                end = ran
            now = end + c
            if end == sys_at:
                reason = REASON_SYSCALL
            elif now >= deadline:
                reason = REASON_SLICE
            end += 1
            st.stall_l1_writes += write_hits
            st.loads += loads
            st.stores += stores
            if wt_store_hits:
                st.l2_write_accesses += wt_hits
                ms._l2d.hits += wt_hits
                wb.pushes += wt_hits
                wb.retired += retired
                if max_occupancy > wb.max_occupancy:
                    wb.max_occupancy = max_occupancy

        consumed = end - start
        ms.now = now
        ms._last_ipage = last_ipage
        ms._last_dpage = last_dpage
        st.instructions += consumed
        if reason == REASON_SYSCALL:
            st.syscalls += 1
        st.cycles = now - ms._cycles_base
        ms._sync_tlb_stats()
        if ms.energy is not None:
            ms.energy.account(st)
        return SliceResult(consumed, reason)
