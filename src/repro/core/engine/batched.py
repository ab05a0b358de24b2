"""The batched engine: a scalar loop that visits only events.

Most instructions hit everywhere and cost exactly one cycle.  This
engine finds, once per prepared batch and with NumPy, the instructions
that might not, and its loop executes only those *events*; every other
instruction is a free step that advances the clock by one.  A call that
can reach a long stretch of the batch also drops the events that the
batch alone proves are L1 hits.

The event columns
-----------------

An instruction is an event when its L1-I line differs from the previous
instruction's, or when it accesses data.  A
:class:`~repro.sched.process.PreparedBatch` is its events, built when
its process pulled it: NumPy columns of int32 wherever every value
fits, of their positions, each event's L1-I line, code (kind and
partial flag in one byte) and address, and of the system-call
positions.  Each call finds the slice of the events it can reach (at
one cycle per instruction, none past ``start + deadline - now``) and
zips memoryviews of its four columns, which yield one event at a time:
a call converts only the events it runs.  Every value the loop passes
on is a Python ``int`` or ``bool``: a NumPy scalar would leak into
statistics, obs events and ``state_dict()``.

Provable hits
-------------

Both L1s are direct-mapped, so a line stays resident through its
*run*, the accesses to its set since another line last touched it.  Per
event, :class:`HitThresholds` holds a *threshold*, built from the event
columns on the first call that filters and kept with them (a call that
never filters never builds them): the position
of the latest earlier access ``q`` of its run, in the batch, that proves
it an L1 hit, or -1.

* A line change (kind 0, or the L1-I side of a data access) takes the
  run's previous access (an L1-I access is a run of one line, at the
  run's last position) if the line before it is on the same page, so
  no I-TLB probe happens.
* A data access needs the data access before it on the same page.  A
  write-back load takes the run's previous access, a write-back store
  the latest earlier store, a write-through load the latest earlier
  load and, under subblock placement, the latest earlier load or
  full-word store of its word.  No other store is proven (the
  thresholds' key says whether stores are): a write-through store's push
  must run, and the dirty-bit scheme's epoch bumps would need a store's
  mark.

An event that is both a line change and a data access needs both
sides, so its threshold is the smaller.  A call skips the events whose
threshold is at least ``start``: their ``q`` ran in the same call.  It
filters only when the slice it can reach holds more than
:data:`FILTER_MIN_EVENTS` events, since the compare and the gather of
the events that run cost more than they save on short slices.

Why skipping is exact
---------------------

* Only ``ifetch_miss`` writes L1-I tags, and it installs the line it
  fetches.  So an instruction in the same line as the one before it, in
  the same call, hits.  A line is never larger than a page (an L1 is at
  most a page), so it is also on the same page: no I-TLB probe.  The
  I-TLB page check therefore sits under the line-change test.
* The first instruction of every call is always an event: another
  process may have evicted its line, or moved the TLB's last page,
  since this batch last ran.  When the events do not list it, it is
  prepended as a kind-0 instruction in the line of the event before it:
  every data access is listed.  When it is listed, no access at or
  after ``start`` precedes it, so it is never skipped.
* ``ifetch_miss`` writes only at its own index, and the policy handlers
  write L1-D tag, valid and write-only state only at the accessed
  index, whose victim they evict; faults and audits run only between
  calls.  So after ``q`` the line stays resident: under write-back it
  is fully valid; a write-through store hit only marks it dirty (under
  subblock, also validating a full word), so it stays readable after a
  load; a subblock load or full-word store leaves its word valid.
* A load or line-change hit costs no extra cycle, changes no state (its
  page is the last one probed) and emits no obs event, so a skipped one
  is a free step; only ``st.loads`` counts it, from the events.  A
  skipped write-back store hit's dirty mark is a no-op (a store of its
  run set it in this call, and without the dirty-bit scheme the epoch
  never moves); its second cycle still counts.
* A free instruction touches no state, so the only question is where
  the call stops.  The loop runs on positions moved one later per
  skipped store before them, so the clock after a free step at moved
  position ``i`` is ``i + c``, and ``c`` moves only when an event
  stalls.  The reference loop tests ``now >= deadline`` after every
  instruction, and a system call wins a tie with it.  So an event runs
  only if the clock before it is below the deadline, and after the last
  one the call takes free steps up to where they reach the deadline (a
  skipped store at moved position ``v`` at ``v + 1``), the next system
  call or the batch end.  A call with ``start < len(batch)`` always
  runs at least one instruction, as ``reference`` does.

Inline stores and misses
------------------------

Events run the reference loop's code.  The common cases of the TLB
probe and of the miss and store handlers are finished inline, with no
call; everything else calls the same bound methods (``TLB.access``,
``ms._ifetch_miss``, ``ms._load_miss``, ``ms._store``).  The inline
paths are:

* A probe of a page that is its TLB set's most recently used entry only
  counts the probe, as ``TLB.access``'s hit on that entry does.

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
  ``ms._store`` stays exact.
* An L1 miss whose refill hits a direct-mapped L2 half, while obs is
  off: an L1-I miss, an L1-D load miss under any policy, or a
  write-back store miss, the last two only under the baseline buffer
  discipline (no bypass).  The path first reads: the refill's L2 line
  is resident and, under write-back, so is a dirty victim's L2-D line.
  Then it commits in the handler's order: the wait for the buffer to
  drain (``WriteBuffer.wait_empty``; the L1-I side only when it waits
  for the buffer), the victim's push into the then empty buffer
  (``push_write``'s direct-mapped hit, ``WriteBuffer.push`` without a
  stall), the refill cycles and the L1 install.

Their counters (TLB probes, misses, L2 accesses and hits, refill and
buffer stalls, L2 write accesses, buffer pushes, retirements and peak
occupancy) are kept in locals and flushed at the end of the call,
before the statistics copy the TLBs' counters and before the energy
fold.  Why the inline misses are exact:

* The probes only read, and the wait touches only the buffer, because
  L2 is updated when a write enters the buffer (DESIGN §6).  So a probe
  made before the wait sees what the handler's probe sees after it.
* A victim whose L2 line hits changes no L2 tag, only its dirty bit, so
  the refill still hits.  A victim that would evict the refill's line
  misses, and the whole miss falls back to the handler.
* The baseline wait empties the buffer, so the victim's push never
  stalls.
* An L2-hit miss emits no obs event except those gated on
  ``_obs.enabled``, and that flag sends every miss of the call to the
  handlers, which emit them.
* Faults are injected and audits run only between calls, so nothing
  sees a counter before it is flushed.

The inline paths read ``ms._dirty_epoch`` when they mark or test a
line, because handlers may bump the epoch.  Each mirrored handler
branch is marked "keep in step" on both sides.  Statistics, obs event
streams and checkpoints are bit-identical to ``reference``
(``tests/test_engine_*``, ``tests/test_golden_miss_path.py``).
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import chain

import numpy as np

from repro.core.cache import INVALID
from repro.core.config import BypassMode, WritePolicy
from repro.core.engine import (
    REASON_END,
    REASON_SLICE,
    REASON_SYSCALL,
    Engine,
    SliceResult,
)
from repro.obs import runtime as _obs
from repro.params import PAGE_WORDS, log2i
from repro.sched.process import PARTIAL, changes
from repro.trace.record import KIND_LOAD, KIND_STORE

_PAGE_SHIFT = log2i(PAGE_WORDS)


#: A call skips provable hits only when the slice it can reach holds
#: more than this many events.  Filtering costs a compare of that slice,
#: an ``np.flatnonzero`` and a four-column ``take``, plus the batch's
#: thresholds on its first filtering call.  With every call filtering
#: (and a boolean-mask compress in place of the ``take``), ``short_slice``
#: (2,000-cycle slices: 5,871 calls reaching 966 events each on average,
#: most never run) lost 11% of its ``sim_instr_per_s`` and gained 1.8 MB
#: of peak RSS (3 alternating pairs on a 2-vCPU host).  At this size it
#: never filters, while 106 of ``paper_l8``'s 107 calls do.
FILTER_MIN_EVENTS = 2048

#: The threshold of an event no earlier access proves an L1 hit.
_UNPROVEN = -1


def _run_witnesses(sets, lines, witness, provable, flagged=None,
                   words=None) -> np.ndarray:
    """Over a sequence of accesses to direct-mapped sets, per access
    ``p``: when ``p`` is ``provable``, ``witness[q]`` of the latest
    earlier access ``q`` in ``p``'s *run*, the accesses to its set since
    another line last touched it; else ``_UNPROVEN`` (int32).  With
    ``flagged``, a flagged ``p`` takes the latest flagged ``q``; with
    ``words`` (each access's word in its line) too, only flagged
    accesses are proven, and a run is also of one word."""
    # An L1 is at most a page, so it has at most 4,096 sets: uint16 keys
    # take NumPy's radix sort.  In set order each set's accesses keep
    # their order, so a run is a stretch of one line.
    order = np.argsort(sets.astype(np.uint16), kind="stable")
    starts = changes(lines.take(order))
    if words is not None:
        # Number the runs and keep the flagged accesses, sorted by word
        # (a line is at most a page): a stretch of one run and one word
        # is a run of that word.
        runs = np.cumsum(starts, dtype=np.int32)
        kept = np.flatnonzero(flagged.take(order))
        order = order.take(kept)
        ordered = words.take(order).astype(np.uint16)
        by_word = np.argsort(ordered, kind="stable")
        order = order.take(by_word)
        starts = changes(runs.take(kept.take(by_word)))
        starts |= changes(ordered.take(by_word))
    ordered = witness.take(order)
    found = np.empty(len(order), np.int32)
    found[:1] = _UNPROVEN
    found[1:] = np.where(starts[1:], _UNPROVEN, ordered[:-1])
    if flagged is not None and words is None:
        # Keep the flagged accesses and the run starts: a flagged access
        # then follows the latest flagged access of its run, or its run's
        # start.
        marks = flagged.take(order)
        kept = np.flatnonzero(marks | starts)
        before = kept[:-1]
        proves = marks.take(before) & ~starts.take(kept[1:])
        found[kept[1:]] = np.where(proves, ordered.take(before), _UNPROVEN)
    result = np.full(len(sets), _UNPROVEN, np.int32)
    result[order] = found
    return np.where(provable, result, _UNPROVEN)


class HitThresholds:
    """Per event of a :class:`~repro.sched.process.PreparedBatch`, the
    position of the latest earlier access in the batch that proves it an
    L1 hit, or -1 (``thresholds``, int32; see the module docstring).

    ``key`` is ``(i_mask, dl_shift, d_mask, write policy, whether stores
    are proven)``: with the batch's L1-I line size, all they depend on
    besides the batch.  ``proven_stores`` holds the positions and
    thresholds (int32) of the proven stores, if any.
    """

    __slots__ = ("key", "thresholds", "proven_stores")

    def __init__(self, batch, key: tuple):
        i_mask, dl_shift, d_mask, policy, stores = key
        il_shift = batch.il_shift
        positions = batch.positions
        lines = batch.lines
        codes = batch.codes
        self.key = key
        self.proven_stores = None
        # L1-I side: a run of one line is one access to its set, proven
        # when its page is the previous run's.  Run q's witness is its
        # last position, one before run q + 1 starts; since q < p, run
        # q + 1 exists.
        runs = np.flatnonzero(changes(lines))
        run_lines = lines.take(runs)
        provable = ~changes(run_lines >> (_PAGE_SHIFT - il_shift))
        ends = np.empty(len(runs), np.int32)
        ends[-1:] = _UNPROVEN
        np.subtract(positions.take(runs[1:]), 1, out=ends[:-1])
        # Every event starts a run of one line or accesses data, so one
        # of the two sides lowers this bound.
        thresholds = np.full(len(positions), np.iinfo(np.int32).max,
                             np.int32)
        thresholds[runs] = _run_witnesses(run_lines & i_mask, run_lines,
                                          ends, provable)
        # L1-D side: every data access is one, proven when its page is the
        # previous data access's and an earlier access of its run leaves
        # the line readable: any access for a write-back load, a store
        # for a write-back store, a load for a write-through load, and
        # under subblock placement a load or full-word store of its word.
        data = np.flatnonzero(codes != 0)
        addrs = batch.addrs.take(data)
        codes = codes.take(data)
        loads = codes == KIND_LOAD
        provable = ~changes(addrs >> _PAGE_SHIFT)
        at = positions.take(data)
        dlines = addrs >> dl_shift
        flagged = words = None
        if stores:
            flagged = ~loads
        else:
            provable &= loads
            if policy is WritePolicy.SUBBLOCK:
                # A load or a full-word store.
                flagged = codes != (KIND_STORE | PARTIAL)
                words = addrs & ((1 << dl_shift) - 1)
            elif policy is not WritePolicy.WRITE_BACK:
                flagged = loads
        found = _run_witnesses(dlines & d_mask, dlines, at, provable,
                               flagged, words)
        np.minimum(thresholds.take(data), found, out=found)
        thresholds[data] = found
        if stores:
            proven = np.flatnonzero(flagged & (found >= 0))
            self.proven_stores = at.take(proven), found.take(proven)
        self.thresholds = thresholds


class BatchedEngine(Engine):
    """Event-indexed execution, bit-identical to ``reference``."""

    name = "batched"

    def __init__(self, ms):
        super().__init__(ms)
        policy = ms.config.write_policy
        self._write_back = policy is WritePolicy.WRITE_BACK
        self._subblock = policy is WritePolicy.SUBBLOCK
        self._key = (ms._i_mask, ms._dl_shift, ms._d_mask, policy)

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
            ev = batch.positions
            sys_pos = batch.syscalls
            # int32 queries: a Python int would make NumPy cast the
            # whole column to int64.
            j = sys_pos.searchsorted(np.int32(start))
            sys_at = int(sys_pos[j]) if j < len(sys_pos) else n
            last = sys_at if sys_at < n else n - 1
            # The call runs at least one instruction, so at least one
            # cycle; at one cycle each, none runs past ``reach``.
            cutoff = deadline if deadline > now else now + 1
            reach = start + cutoff - now - 1
            bounds = np.array(
                (start, (reach if reach < last else last) + 1), np.int32)
            lo, hi = ev.searchsorted(bounds).tolist()
            columns = [column[lo:hi] for column in (
                ev, batch.lines, batch.codes, batch.addrs)]
            skipped = ()
            filtered = hi - lo > FILTER_MIN_EVENTS
            if filtered:
                # Skip the events an access earlier in this call proves
                # L1 hits.  The dirty-bit scheme's epoch bumps would need
                # a skipped store's mark: resolved per call, as the
                # inline paths are.
                key = (*self._key,
                       self._write_back and not ms._dirty_bit_bypass)
                proofs = batch.hits
                if proofs is None or proofs.key != key:
                    proofs = batch.hits = HitThresholds(batch, key)
                run = np.flatnonzero(proofs.thresholds[lo:hi] < start)
                columns = [column.take(run) for column in columns]
                if proofs.proven_stores is not None:
                    at, below = proofs.proven_stores
                    first, after = at.searchsorted(bounds).tolist()
                    skipped = at[first:after].compress(
                        below[first:after] >= start)
            real = columns[0]
            if len(skipped):
                # A skipped store still takes its second cycle: the loop
                # runs on positions moved one later per skipped store
                # before them, so i + c stays the clock.
                columns[0] = real + skipped.searchsorted(real)
            # Memoryviews yield Python ints, one per step, so
            # the loop converts only the events it reaches.
            positions, *rest = map(memoryview, columns)
            rows = zip(positions, *rest)
            if not positions or positions[0] != start:
                # Not an event, so it accesses no data and is in the line
                # of the event before it.
                rows = chain(((start, int(batch.lines[lo - 1]), 0, 0),),
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
            d_full_valid = ms._d_full_valid
            tlb_on = ms._tlb_enabled
            itlb = ms.itlb
            dtlb = ms.dtlb
            itlb_access = itlb.access
            dtlb_access = dtlb.access
            itlb_sets = itlb._sets
            dtlb_sets = dtlb._sets
            itlb_set_mask = itlb.sets - 1
            dtlb_set_mask = dtlb.sets - 1
            tlb_penalty = ms._tlb_penalty
            ifetch_miss = ms._ifetch_miss
            load_miss = ms._load_miss
            store = ms._store
            write_back = self._write_back
            subblock = self._subblock
            # The inline paths need direct-mapped L2 halves, and an inline
            # miss needs obs off: the handlers emit its events.  Resolved
            # per call: a test may clear the tags or switch the bypass
            # after construction.
            l2i_tags = ms._l2i_tags
            l2d_tags = ms._l2d_tags
            obs_off = not _obs.enabled
            i_inline = obs_off and l2i_tags is not None
            d_inline = (obs_off and l2d_tags is not None
                        and ms._bypass is BypassMode.NONE)
            wt_store_hits = not write_back and l2d_tags is not None
            i_waits = ms._i_waits_for_wb
            i_l2_delta = ms._i_l2_delta
            l2i_mask = ms._l2i_mask
            i_refill = ms._i_refill_cycles
            d_l2_delta = ms._d_l2_delta
            l2d_mask = ms._l2d_mask
            l2d_dirty = ms._l2d_dirty
            d_refill = ms._d_refill_cycles
            wb = ms.wb
            entries = wb._entries
            append = entries.append
            popleft = entries.popleft
            depth = wb.depth
            word_cost = ms._wb_word_cost
            step = max(1, word_cost - wb.overlap_cycles)
            victim_cost = ms._wb_victim_cost
            victim_step = max(1, victim_cost - wb.overlap_cycles)
            max_occupancy = wb.max_occupancy

            itlb_probes = dtlb_probes = 0
            loads = stores = write_hits = wt_hits = retired = 0
            i_misses = read_misses = wo_misses = write_misses = 0
            victims = stall_wb = 0
            iline_prev = None  # the call's first instruction is an event
            # The clock after a free step at position i is i + c; only a
            # stall moves c.
            c = now + 1 - start
            for i, iline, code, addr in rows:
                if i + c > cutoff:
                    # The deadline falls before i: k events ran.
                    k = bisect_left(positions, i)
                    break
                if iline != iline_prev:
                    iline_prev = iline
                    if tlb_on:
                        page = iline >> ip_shift
                        if page != last_ipage:
                            last_ipage = page
                            # TLB.access's hit on its set's most recently
                            # used entry; keep them in step.
                            tlb_set = itlb_sets[page & itlb_set_mask]
                            if tlb_set and tlb_set[0] == (0, page):
                                itlb_probes += 1
                            elif not itlb_access(0, page):
                                c += tlb_penalty
                                st.stall_tlb += tlb_penalty
                    if itags[iline & i_mask] != iline:
                        line2 = iline >> i_l2_delta
                        if i_inline and l2i_tags[line2 & l2i_mask] == line2:
                            # ifetch_miss's direct-mapped L2-I hit, and
                            # WriteBuffer.wait_empty; keep them in step.
                            if i_waits and entries:
                                retired += len(entries)
                                stall = entries[-1][1] - i - c
                                entries.clear()
                                if stall > 0:
                                    stall_wb += stall
                                    c += stall
                            i_misses += 1
                            c += i_refill
                            itags[iline & i_mask] = iline
                        else:
                            c = ifetch_miss(i + c, iline) - i
                if not code:
                    continue
                if tlb_on:
                    page = addr >> _PAGE_SHIFT
                    if page != last_dpage:
                        last_dpage = page
                        # TLB.access's hit on its set's most recently
                        # used entry; keep them in step.
                        tlb_set = dtlb_sets[page & dtlb_set_mask]
                        if tlb_set and tlb_set[0] == (0, page):
                            dtlb_probes += 1
                        elif not dtlb_access(0, page):
                            c += tlb_penalty
                            st.stall_tlb += tlb_penalty
                dline = addr >> dl_shift
                index = dline & d_mask
                if code == KIND_LOAD:
                    loads += 1
                    if (dtags[index] == dline and not dwrite_only[index]
                            and (dvalid[index] >> (addr & dline_mask)) & 1):
                        continue
                else:
                    stores += 1
                    if write_back:
                        if dtags[index] == dline:
                            # store_write_back's hit; keep them in step.
                            ddirty[index] = ms._dirty_epoch
                            write_hits += 1
                            c += 1
                            continue
                    else:
                        if wt_store_hits and dtags[index] == dline:
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
                                    # WriteBuffer.push without a stall and
                                    # the policy's hit branch; keep them in
                                    # step.
                                    l2d_dirty[index2] = True
                                    done = wb._last_completion + step
                                    if done < t + word_cost:
                                        done = t + word_cost
                                    wb._last_completion = done
                                    append((dline, done))
                                    wt_hits += 1
                                    if occupancy >= max_occupancy:
                                        max_occupancy = occupancy + 1
                                    if subblock and code == KIND_STORE:
                                        dvalid[index] |= 1 << (
                                            addr & dline_mask)
                                    ddirty[index] = ms._dirty_epoch
                                    continue
                        # A store's code is KIND_STORE, with PARTIAL for
                        # a partial-word one.
                        c = store(i + c, addr, code != KIND_STORE) - i
                        continue
                # A load miss, or a write-back store miss: both refill the
                # line from L2-D.  The policy's miss branch, with
                # wb_consistency_wait's baseline wait, push_write's and
                # l2_data_refill's direct-mapped hits and WriteBuffer.push
                # into an empty buffer; keep them in step.
                line2 = dline >> d_l2_delta
                if d_inline and l2d_tags[line2 & l2d_mask] == line2:
                    victim = dtags[index]
                    flush = (write_back and victim != INVALID
                             and ddirty[index] == ms._dirty_epoch)
                    if flush:
                        vline2 = victim >> d_l2_delta
                        vindex2 = vline2 & l2d_mask
                    if not flush or l2d_tags[vindex2] == vline2:
                        if entries:
                            retired += len(entries)
                            stall = entries[-1][1] - i - c
                            entries.clear()
                            if stall > 0:
                                stall_wb += stall
                                c += stall
                        if flush:
                            l2d_dirty[vindex2] = True
                            done = wb._last_completion + victim_step
                            if done < i + c + victim_cost:
                                done = i + c + victim_cost
                            wb._last_completion = done
                            append((victim, done))
                            victims += 1
                            if not max_occupancy:
                                max_occupancy = 1
                        c += d_refill
                        if code == KIND_LOAD:
                            read_misses += 1
                            if victim == dline and dwrite_only[index]:
                                wo_misses += 1
                            ddirty[index] = 0
                        else:
                            write_misses += 1
                            ddirty[index] = ms._dirty_epoch
                        dtags[index] = dline
                        dwrite_only[index] = 0
                        dvalid[index] = d_full_valid
                        continue
                if code == KIND_LOAD:
                    c = load_miss(i + c, dline, index) - i
                else:
                    c = store(i + c, addr, code != KIND_STORE) - i
            else:
                k = len(positions)  # every reachable event ran
            # The last instruction run: where free steps after the last
            # event reach the deadline, the system call or the batch end.
            end = cutoff - c
            if len(skipped):
                # Back from a moved position to a real one; a skipped
                # store at moved position v reaches the deadline at v + 1.
                end -= int(np.searchsorted(
                    skipped + np.arange(len(skipped), dtype=np.int32),
                    end - 1, "right"))
            if end > last:
                end = last
            ran = int(real[k - 1]) if k else start
            if end < ran:
                end = ran
            now = end + c
            if len(skipped):
                # Each skipped store up to end was a write-back store hit.
                hits = int(skipped.searchsorted(end, "right"))
                now += hits
                stores += hits
                write_hits += hits
            if end == sys_at:
                reason = REASON_SYSCALL
            elif now >= deadline:
                reason = REASON_SLICE
            if filtered:
                # A skipped load still counts: count every load up to end.
                m = ev.searchsorted(np.int32(end), "right")
                loads = int(np.count_nonzero(
                    batch.codes[lo:m] == KIND_LOAD))
            end += 1
            # The inline paths' counters, flushed before the energy fold.
            d_misses = read_misses + write_misses
            pushes = wt_hits + victims
            st.stall_l1_writes += write_hits
            st.loads += loads
            st.stores += stores
            st.l1i_misses += i_misses
            st.l2i_accesses += i_misses
            st.stall_l1i_miss += i_misses * i_refill
            st.l1d_read_misses += read_misses
            st.l1d_write_only_read_misses += wo_misses
            st.l1d_write_misses += write_misses
            st.l2d_accesses += d_misses
            st.stall_l1d_miss += d_misses * d_refill
            st.stall_wb += stall_wb
            st.l2_write_accesses += pushes
            ms._l2i.hits += i_misses
            ms._l2d.hits += d_misses + pushes
            wb.pushes += pushes
            wb.retired += retired
            if max_occupancy > wb.max_occupancy:
                wb.max_occupancy = max_occupancy
            # TLB.access's probe count; keep them in step.
            itlb.probes += itlb_probes
            dtlb.probes += dtlb_probes

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
