"""L1-D write-policy handlers, shared by every engine.

One function pair per :class:`~repro.core.config.WritePolicy` — a store
handler and a load-miss handler — extracted from ``MemorySystem`` so the
reference and batched engines execute the *same* code on every event.
:func:`resolve_policy` maps a policy to its pair once; the memory system
binds the pair as methods at construction, so the hot loops pay a plain
attribute call, never a per-access branch chain.

Every handler takes the memory system as its first argument, advances and
returns the cycle counter, and mutates only memory-system state.

A handler is the only call its event costs besides the timing steps of
:mod:`repro.core.engine.timing` it needs, which it calls by name as module
globals: victim eviction and the L1-D install are inline, and the
read-miss buffer discipline (:func:`wb_consistency_wait`) is skipped when
nothing is buffered, since it would then be a no-op — except under the
dirty-bit scheme, whose empty-buffer case flash-clears the dirty bits.
"""

from __future__ import annotations

from repro.core.cache import INVALID
from repro.core.config import WritePolicy
from repro.core.engine.timing import (
    l2_data_refill,
    push_write,
    wb_consistency_wait,
)
from repro.errors import ConfigurationError
from repro.obs import runtime as _obs

# -- write-back policy -------------------------------------------------------


def load_miss_write_back(ms, now: int, dline: int, index: int) -> int:
    ms.stats.l1d_read_misses += 1
    if _obs.enabled:
        _obs.tracer.emit("l1d_miss", cyc=now, line=dline, cls="read")
    if ms.wb._entries or ms._dirty_bit_bypass:
        now = wb_consistency_wait(ms, now, dline, index)
    dtags = ms._dtags
    ddirty = ms._ddirty
    victim = dtags[index]
    if victim != INVALID and ddirty[index] == ms._dirty_epoch:
        victim = int(victim)
        if _obs.enabled:
            _obs.tracer.emit("victim_flush", cyc=now, line=victim)
        now = push_write(ms, now, victim, ms._wb_victim_cost)
    now = l2_data_refill(ms, now, dline)
    dtags[index] = dline
    ddirty[index] = 0
    ms._dwrite_only[index] = 0
    ms._dvalid[index] = ms._d_full_valid
    return now


def store_write_back(ms, now: int, addr: int, partial: bool) -> int:
    st = ms.stats
    dline = addr >> ms._dl_shift
    index = dline & ms._d_mask
    dtags = ms._dtags
    ddirty = ms._ddirty
    if dtags[index] == dline:
        st.stall_l1_writes += 1
        ddirty[index] = ms._dirty_epoch
        return now + 1
    # Write miss: the same refill as a load miss, installed dirty.
    st.l1d_write_misses += 1
    if _obs.enabled:
        _obs.tracer.emit("l1d_miss", cyc=now, line=dline, cls="write")
    if ms.wb._entries or ms._dirty_bit_bypass:
        now = wb_consistency_wait(ms, now, dline, index)
    victim = dtags[index]
    if victim != INVALID and ddirty[index] == ms._dirty_epoch:
        victim = int(victim)
        if _obs.enabled:
            _obs.tracer.emit("victim_flush", cyc=now, line=victim)
        now = push_write(ms, now, victim, ms._wb_victim_cost)
    now = l2_data_refill(ms, now, dline)
    dtags[index] = dline
    ddirty[index] = ms._dirty_epoch
    ms._dwrite_only[index] = 0
    ms._dvalid[index] = ms._d_full_valid
    return now


# -- write-through policies --------------------------------------------------


def load_miss_write_through(ms, now: int, dline: int, index: int) -> int:
    st = ms.stats
    st.l1d_read_misses += 1
    dtags = ms._dtags
    dwrite_only = ms._dwrite_only
    wo_read = dtags[index] == dline and dwrite_only[index]
    if wo_read:
        st.l1d_write_only_read_misses += 1
    if _obs.enabled:
        _obs.tracer.emit("l1d_miss", cyc=now, line=dline,
                         cls="wo_read" if wo_read else "read")
    if ms.wb._entries or ms._dirty_bit_bypass:
        now = wb_consistency_wait(ms, now, dline, index)
    now = l2_data_refill(ms, now, dline)
    dtags[index] = dline
    ms._ddirty[index] = 0
    dwrite_only[index] = 0
    ms._dvalid[index] = ms._d_full_valid
    return now


def store_invalidate(ms, now: int, addr: int, partial: bool) -> int:
    st = ms.stats
    dline = addr >> ms._dl_shift
    index = dline & ms._d_mask
    now = push_write(ms, now, dline, ms._wb_word_cost)
    if ms._dtags[index] == dline:
        ms._ddirty[index] = ms._dirty_epoch
        return now
    # The parallel data write corrupted the resident line; a second cycle
    # invalidates it.
    st.l1d_write_misses += 1
    st.stall_l1_writes += 1
    if _obs.enabled:
        _obs.tracer.emit("l1d_miss", cyc=now, line=dline, cls="write")
    ms._dtags[index] = INVALID
    ms._dvalid[index] = 0
    ms._dwrite_only[index] = 0
    ms._ddirty[index] = 0
    return now + 1


def store_write_only(ms, now: int, addr: int, partial: bool) -> int:
    st = ms.stats
    dline = addr >> ms._dl_shift
    index = dline & ms._d_mask
    now = push_write(ms, now, dline, ms._wb_word_cost)
    if ms._dtags[index] == dline:
        ms._ddirty[index] = ms._dirty_epoch
        return now
    # Write miss: update the tag, mark the line write-only (second cycle).
    st.l1d_write_misses += 1
    st.stall_l1_writes += 1
    if _obs.enabled:
        # A re-allocation displaces another never-read write-only line —
        # the pathology Section 8 trades against write-through traffic.
        _obs.tracer.emit("wo_alloc", cyc=now, line=dline,
                         realloc=bool(ms._dwrite_only[index]))
    ms._dtags[index] = dline
    ms._dwrite_only[index] = 1
    ms._ddirty[index] = ms._dirty_epoch
    ms._dvalid[index] = ms._d_full_valid
    return now + 1


def store_subblock(ms, now: int, addr: int, partial: bool) -> int:
    st = ms.stats
    dline = addr >> ms._dl_shift
    index = dline & ms._d_mask
    now = push_write(ms, now, dline, ms._wb_word_cost)
    if ms._dtags[index] == dline:
        if not partial:
            ms._dvalid[index] |= 1 << (addr & ms._dline_mask)
        ms._ddirty[index] = ms._dirty_epoch
        return now
    # Write miss: the tag is updated in the next cycle; only a full-word
    # write turns its valid bit on (partial-word writes leave none set).
    st.l1d_write_misses += 1
    st.stall_l1_writes += 1
    if _obs.enabled:
        _obs.tracer.emit("l1d_miss", cyc=now, line=dline, cls="write")
    ms._dtags[index] = dline
    ms._dwrite_only[index] = 0
    ms._dvalid[index] = 0 if partial else 1 << (addr & ms._dline_mask)
    ms._ddirty[index] = ms._dirty_epoch
    return now + 1


#: Policy -> (store handler, load-miss handler).  Resolved once at
#: ``MemorySystem`` construction; the closed dispatch table replaces the
#: old per-policy ``if/elif`` chain.
POLICY_HANDLERS = {
    WritePolicy.WRITE_BACK: (store_write_back, load_miss_write_back),
    WritePolicy.WRITE_MISS_INVALIDATE: (store_invalidate,
                                        load_miss_write_through),
    WritePolicy.WRITE_ONLY: (store_write_only, load_miss_write_through),
    WritePolicy.SUBBLOCK: (store_subblock, load_miss_write_through),
}


def resolve_policy(policy: WritePolicy):
    """The (store, load_miss) handler pair for a write policy."""
    try:
        return POLICY_HANDLERS[policy]
    except KeyError:  # pragma: no cover - enum is closed
        raise ConfigurationError(f"unknown write policy {policy}") from None
