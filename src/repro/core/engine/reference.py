"""The reference engine: the original per-instruction Python loop.

This is the readable oracle the batched (default) engine is verified
against.  One instruction per iteration: instruction fetch (inlined
direct-mapped L1-I hit check), optional data access (inlined universal
L1-D load-hit check), TLB probes on page crossings, and cycle accounting
into the Fig. 4 stall components.  Misses and stores dispatch through the
policy and timing handlers bound on the memory system at construction.
Each call rebuilds from the batch's event columns
(:meth:`repro.sched.process.PreparedBatch.window`) only the
per-instruction window it can reach, and converts that to lists: it
spends at least one cycle per instruction, so no more than
``max(1, deadline - now)`` instructions.  The loop reads each
instruction's L1-I line, not its ``pc``: the line and its page are all
the fetch side uses.
"""

from __future__ import annotations

from repro.core.engine import (
    REASON_END,
    REASON_SLICE,
    REASON_SYSCALL,
    Engine,
    SliceResult,
)
from repro.params import PAGE_WORDS, log2i

_PAGE_SHIFT = log2i(PAGE_WORDS)


class ReferenceEngine(Engine):
    """Exact, auditable scalar execution."""

    name = "reference"

    def run_slice(self, batch, start: int, deadline: int) -> SliceResult:
        ms = self.ms
        now = ms.now
        st = ms.stats
        il_shift = ms._il_shift
        stop = min(len(batch), start + max(1, deadline - now))
        ilines, kinds, addrs, partials, syscalls = (
            column.tolist() for column in batch.window(start, stop))

        itags = ms._itags
        ip_shift = _PAGE_SHIFT - il_shift
        i_mask = ms._i_mask
        dtags = ms._dtags
        dwrite_only = ms._dwrite_only
        dvalid = ms._dvalid
        dl_shift = ms._dl_shift
        d_mask = ms._d_mask
        dline_mask = ms._dline_mask

        tlb_on = ms._tlb_enabled
        itlb_access = ms.itlb.access
        dtlb_access = ms.dtlb.access
        tlb_penalty = ms._tlb_penalty
        last_ipage = ms._last_ipage
        last_dpage = ms._last_dpage

        ifetch_miss = ms._ifetch_miss
        load_miss = ms._load_miss
        store = ms._store

        loads = 0
        stores = 0
        n = len(ilines)
        i = 0
        reason = REASON_END
        while i < n:
            iline = ilines[i]
            now += 1
            if tlb_on:
                page = iline >> ip_shift
                if page != last_ipage:
                    last_ipage = page
                    if not itlb_access(0, page):
                        now += tlb_penalty
                        st.stall_tlb += tlb_penalty
            if itags[iline & i_mask] != iline:
                now = ifetch_miss(now, iline)
            kind = kinds[i]
            if kind:
                addr = addrs[i]
                if tlb_on:
                    page = addr >> _PAGE_SHIFT
                    if page != last_dpage:
                        last_dpage = page
                        if not dtlb_access(0, page):
                            now += tlb_penalty
                            st.stall_tlb += tlb_penalty
                if kind == 1:
                    loads += 1
                    dline = addr >> dl_shift
                    index = dline & d_mask
                    if not (dtags[index] == dline
                            and not dwrite_only[index]
                            and (dvalid[index] >> (addr & dline_mask)) & 1):
                        now = load_miss(now, dline, index)
                else:
                    stores += 1
                    now = store(now, addr, partials[i])
            i += 1
            if syscalls[i - 1]:
                reason = REASON_SYSCALL
                break
            if now >= deadline:
                reason = REASON_SLICE
                break

        consumed = i
        ms.now = now
        ms._last_ipage = last_ipage
        ms._last_dpage = last_dpage
        st.instructions += consumed
        st.loads += loads
        st.stores += stores
        if reason == REASON_SYSCALL:
            st.syscalls += 1
        st.cycles = now - ms._cycles_base
        ms._sync_tlb_stats()
        if ms.energy is not None:
            # One bulk fold of the slice's counters into energy totals;
            # costs nothing per access and nothing at all when disabled.
            ms.energy.account(st)
        return SliceResult(consumed, reason)
