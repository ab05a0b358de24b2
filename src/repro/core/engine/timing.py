"""Miss and refill timing shared by every engine.

These are the cycle-accounting rules of Sections 2, 6, 8 and 9 of the
paper, extracted from ``MemorySystem`` so the hot loops (reference and
batched) and the write-policy handlers (:mod:`repro.core.engine.policies`)
call one implementation.  Every function takes the memory system as its
first argument and returns the advanced cycle counter; the memory system
binds :func:`ifetch_miss` as a method at construction.

The miss path is flat: an L1 miss or a store costs one handler call
(``ms._ifetch_miss``, ``ms._load_miss`` or ``ms._store``) plus only the
timing steps it needs, each one call deep.  The batched engine makes no
call for the common store hits, nor, with tracing off, for an L1 miss
whose refill hits a direct-mapped L2 half under the baseline buffer
discipline (see :mod:`repro.core.engine.batched`); everything else goes
through the handlers, which call —

* :func:`wb_consistency_wait`, the read-miss write-buffer discipline;
* :func:`l2_data_refill`, an L1-D refill from L2-D, including the L2 miss
  penalty and the dirty buffer;
* :func:`push_write`, a word or victim line entering the write buffer and
  allocating (and dirtying) its L2-D line.

Besides these six callables, the miss path calls only the
:class:`~repro.core.write_buffer.WriteBuffer` methods, which own drain
timing.  The batched engine's inline paths are the other places that
touch the buffer: a write-through store hit and a write-back victim
enqueue a drain (copies of :meth:`WriteBuffer.push`'s non-full case),
and an inline miss waits for it to drain (a copy of
:meth:`WriteBuffer.wait_empty`).  L2 probes and fills read and write a
direct-mapped half's ``_tags``/``_dirty`` lists (referenced from the
memory system) in place, as the L1 hit path does for L1, and allocate
nothing; an associative half goes through
:meth:`repro.core.cache.Cache.access`, the reference model the flat
probes reproduce (hit/miss counters and ``cache_miss`` events included).
"""

from __future__ import annotations

from repro.core.cache import INVALID
from repro.core.config import BypassMode
from repro.obs import runtime as _obs


def ifetch_miss(ms, now: int, iline: int) -> int:
    """Handle an L1-I miss; returns the advanced cycle counter.

    The batched engine inlines a direct-mapped L2-I hit, with tracing
    off; keep the two in step.
    """
    st = ms.stats
    st.l1i_misses += 1
    if ms._i_waits_for_wb and ms.wb._entries:
        stall = ms.wb.wait_empty(now)
        if stall:
            st.stall_wb += stall
            now += stall
    st.l2i_accesses += 1
    line = iline >> ms._i_l2_delta
    half = ms._l2i
    tags = ms._l2i_tags
    if tags is None:
        hit, fill = half.access(line)
        victim_dirty = fill.victim_dirty
    else:
        index = line & ms._l2i_mask
        hit = tags[index] == line
        if hit:
            half.hits += 1
        else:
            half.misses += 1
            dirty = ms._l2i_dirty
            victim_dirty = (dirty[index] if tags[index] != INVALID
                            else False)
            tags[index] = line
            dirty[index] = False
            if _obs.enabled and half.trace_name is not None:
                _obs.tracer.emit("cache_miss", name=half.trace_name,
                                 line=line, write=False,
                                 victim_dirty=victim_dirty)
    st.stall_l1i_miss += ms._i_refill_cycles
    now += ms._i_refill_cycles
    if not hit:
        st.l2i_misses += 1
        if victim_dirty:
            st.l2i_dirty_victims += 1
            penalty = ms._l2_dirty
        else:
            penalty = ms._l2_clean
        st.stall_l2i_miss += penalty
        now += penalty
        if _obs.enabled:
            _obs.tracer.emit("l2_miss", cyc=now, side="i",
                             dirty=victim_dirty)
    if _obs.enabled:
        _obs.tracer.emit("l1i_miss", cyc=now, line=iline)
    ms._itags[iline & ms._i_mask] = iline
    return now


def wb_consistency_wait(ms, now: int, dline: int, index: int) -> int:
    """Apply the read-miss consistency discipline; returns advanced time.

    The batched engine inlines the baseline (``NONE``) discipline for a
    miss it finishes itself; keep the two in step.
    """
    bypass = ms._bypass
    if bypass is BypassMode.NONE:
        stall = ms.wb.wait_empty(now)
    elif bypass is BypassMode.DIRTY_BIT:
        ms.wb.expire(now)
        if len(ms.wb) == 0:
            # An empty buffer means L2 is consistent: flash-clear every
            # dirty bit (epoch bump) and proceed without waiting.
            ms._dirty_epoch += 1
            stall = 0
        elif (ms._dtags[index] != INVALID
                and ms._ddirty[index] == ms._dirty_epoch):
            stall = ms.wb.wait_empty(now)
            ms._dirty_epoch += 1
        else:
            stall = 0
    else:  # BypassMode.ASSOCIATIVE
        stall = ms.wb.flush_through(now, dline)
    if stall:
        ms.stats.stall_wb += stall
        now += stall
    return now


def l2_data_refill(ms, now: int, dline: int) -> int:
    """Fetch a line from L2-D into L1-D; returns advanced time.

    An L2 miss costs the clean or dirty main-memory penalty.  With the
    L2-D dirty buffer, a dirty miss reads the requested line first and
    writes the victim back through the one-line buffer afterwards, so it
    costs the clean penalty plus any wait for the buffer to free.

    The batched engine inlines a direct-mapped hit; keep the two in step.
    """
    st = ms.stats
    st.l2d_accesses += 1
    line = dline >> ms._d_l2_delta
    half = ms._l2d
    tags = ms._l2d_tags
    if tags is None:
        hit, fill = half.access(line)
        victim_dirty = fill.victim_dirty
    else:
        index = line & ms._l2d_mask
        hit = tags[index] == line
        if hit:
            half.hits += 1
        else:
            half.misses += 1
            dirty = ms._l2d_dirty
            victim_dirty = (dirty[index] if tags[index] != INVALID
                            else False)
            tags[index] = line
            dirty[index] = False
            if _obs.enabled and half.trace_name is not None:
                _obs.tracer.emit("cache_miss", name=half.trace_name,
                                 line=line, write=False,
                                 victim_dirty=victim_dirty)
    st.stall_l1d_miss += ms._d_refill_cycles
    now += ms._d_refill_cycles
    if hit:
        return now
    st.l2d_misses += 1
    if not victim_dirty:
        penalty = ms._l2_clean
    else:
        st.l2d_dirty_victims += 1
        if ms._dirty_buffer:
            wait = ms._dirty_buffer_free - now
            penalty = ms._l2_clean + (wait if wait > 0 else 0)
            ms._dirty_buffer_free = now + penalty + ms._l2_writeback_cost
        else:
            penalty = ms._l2_dirty
    st.stall_l2d_miss += penalty
    now += penalty
    if _obs.enabled:
        _obs.tracer.emit("l2_miss", cyc=now, side="d", dirty=victim_dirty)
    return now


def push_write(ms, now: int, dline: int, cost: int) -> int:
    """Enqueue a write (word or victim line) and drain it into L2.

    L2-D is write-allocate: the line is allocated and dirtied here, at
    enqueue time, while the entry's drain timing is left to the write
    buffer (DESIGN §6).  A drain that misses in L2 costs the L2 miss
    penalty on top of ``cost``.

    The batched engine inlines a direct-mapped L2-D hit, together with
    :meth:`WriteBuffer.push`, for a word when the buffer has room and for
    a write-back victim, which enters an empty buffer; keep them in step.
    """
    st = ms.stats
    st.l2_write_accesses += 1
    line = dline >> ms._d_l2_delta
    half = ms._l2d
    tags = ms._l2d_tags
    if tags is None:
        hit, fill = half.access(line, write=True)
        victim_dirty = fill.victim_dirty
    else:
        index = line & ms._l2d_mask
        dirty = ms._l2d_dirty
        hit = tags[index] == line
        if hit:
            half.hits += 1
        else:
            half.misses += 1
            victim_dirty = (dirty[index] if tags[index] != INVALID
                            else False)
            tags[index] = line
            if _obs.enabled and half.trace_name is not None:
                _obs.tracer.emit("cache_miss", name=half.trace_name,
                                 line=line, write=True,
                                 victim_dirty=victim_dirty)
        dirty[index] = True
    if not hit:
        st.l2_write_misses += 1
        if victim_dirty:
            st.l2_write_dirty_victims += 1
            cost += ms._l2_dirty
        else:
            cost += ms._l2_clean
        if _obs.enabled:
            _obs.tracer.emit("l2_miss", cyc=now, side="w",
                             dirty=victim_dirty)
    stall = ms.wb.push(now, dline, cost)
    if stall:
        st.stall_wb += stall
        now += stall
    return now
