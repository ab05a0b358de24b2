"""The memory system: L1 caches, write buffer, L2 and main-memory timing.

This module owns the simulator's architectural *state*; the hot loop that
advances it lives in a pluggable engine (:mod:`repro.core.engine`).  The
``reference`` engine processes one instruction per iteration — instruction
fetch (with an inlined direct-mapped L1-I hit check), optional data access
(with an inlined universal L1-D *load-hit* check), TLB probes on page
crossings, and cycle accounting into the Fig. 4 stall components.  The
default ``batched`` engine runs the same body only for *events* (a new
L1-I line, a data access) and advances the clock by one cycle over every
other instruction; a call that can reach a long stretch of the batch also
skips the events the batch itself proves L1 hits (the L1s are
direct-mapped).  It finishes the common cases inline: the store hits (a
write-back hit; a write-through hit whose line is in a direct-mapped L2-D
half and that finds room in the write buffer) and, with tracing off, the
L1 misses whose refill hits a direct-mapped L2 half (L1-D misses only
under the baseline buffer discipline).  It calls the same handlers for
everything else.

Cycle-accounting rules (Sections 2, 6, 8, 9 of the paper):

* Each instruction costs one base cycle.
* An L1 refill stalls ``L2_access_time + (line_words/4 - 1)`` cycles
  (4 W/cycle refill path; the base machine's 4 W line at a 6-cycle L2 gives
  the quoted 6-cycle miss penalty).
* An L1 miss first waits for the write buffer to empty, unless a Section 9
  mechanism (concurrent I-refill, dirty-bit or associative bypass) waives it.
* A write-back write hit takes 2 cycles; the write-through policies complete
  write hits in 1 cycle and pay a second cycle on write misses.
* Every buffered write drains into the (write-back, write-allocate) L2; a
  drain that misses in L2 lengthens that entry's drain time by the L2 miss
  penalty, which surfaces as longer write-buffer waits.
* An L2 miss costs 143 cycles, or 237 when it displaces a dirty line; the
  optional L2-D dirty buffer lets the read precede the victim write-back so a
  dirty miss costs the clean penalty plus any wait for the buffer itself.

The write-policy and miss/refill handlers live in
:mod:`repro.core.engine.policies` and :mod:`repro.core.engine.timing`;
dispatch is resolved once at construction and bound as methods
(``_store``/``_load_miss``/``_ifetch_miss``), never branched per access.
The miss path behind them is flat: a bound handler calls only the timing
steps the event needs (``wb_consistency_wait``, ``l2_data_refill``,
``push_write``), and those probe and fill the L2 halves' tag and dirty
lists directly, through references this class takes at construction.
These six callables, plus the write buffer's own methods, are the only
calls on the miss path, and the boundaries the benchmark's traced run
measures.  A store hit or an L1 miss the batched engine finishes inline
calls none of them.

The L1 hit paths are inlined and the L1 caches are restricted to
direct-mapped organizations — exactly the design space the machine can build
(Section 5); associative L1 studies use :class:`repro.core.cache.Cache`
standalone.
"""

from __future__ import annotations

from types import MethodType
from typing import TYPE_CHECKING, List

from repro.core.cache import INVALID
from repro.core.config import BypassMode, SystemConfig, WritePolicy
from repro.core.engine import (
    DEFAULT_ENGINE,
    REASON_END,
    REASON_SLICE,
    REASON_SYSCALL,
    SliceResult,
    resolve_engine,
)
from repro.core.engine.policies import resolve_policy
from repro.core.engine.timing import ifetch_miss
from repro.core.l2 import SecondaryCache
from repro.core.stats import SimStats
from repro.core.write_buffer import WriteBuffer
from repro.mmu.tlb import TLB
from repro.params import PAGE_WORDS, log2i

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sched.process import PreparedBatch

_PAGE_SHIFT = log2i(PAGE_WORDS)

#: State-schema version written by :meth:`MemorySystem.state_dict`.
#: Version 2 added the ``version``/``engine`` fields; version-1 snapshots
#: (written before engines existed) still load.
STATE_VERSION = 2
_KNOWN_STATE_VERSIONS = (1, 2)

__all__ = [
    "MemorySystem",
    "SliceResult",
    "REASON_END",
    "REASON_SYSCALL",
    "REASON_SLICE",
    "STATE_VERSION",
]


class MemorySystem:
    """Simulated two-level memory system for one machine.

    The object is stateful across slices and processes: caches, TLBs and the
    write buffer persist (PID-tagged addressing means nothing is flushed on a
    context switch).

    Args:
        config: the architecture under test.
        engine: execution strategy for :meth:`run_slice` — ``"batched"``
            (the default: visits only events) or ``"reference"`` (the
            per-instruction oracle); bit-identical statistics, see
            :mod:`repro.core.engine`.
        energy: optional energy accounting — ``None`` (free: no code runs,
            energy fields stay zero), a technology name from
            :data:`repro.energy.ENERGY_TECHNOLOGIES`, or a ready
            :class:`~repro.energy.EnergyModel`.  Energy is an exact linear
            function of the statistics counters, folded in once per slice
            by the engines, so it never perturbs timing.
    """

    def __init__(self, config: SystemConfig, engine: str = DEFAULT_ENGINE,
                 energy=None):
        config.validate()
        self.config = config

        # ----- L1 instruction cache (direct-mapped; see module docstring).
        icache = config.icache
        self._il_shift = log2i(icache.line_words)
        self._i_mask = icache.lines - 1
        self._itags: List[int] = [INVALID] * icache.lines

        # ----- L1 data cache.
        dcache = config.dcache
        self._dl_shift = log2i(dcache.line_words)
        self._d_mask = dcache.lines - 1
        self._dline_mask = dcache.line_words - 1
        self._d_full_valid = (1 << dcache.line_words) - 1
        self._dtags: List[int] = [INVALID] * dcache.lines
        # Dirty state is epoch-based: a line is dirty iff its entry equals
        # the current epoch.  Whenever the write buffer is observed empty,
        # the L2 is fully consistent, so every dirty bit can be flash-cleared
        # at once — modeled by bumping the epoch.  This is what lets the
        # dirty-bit bypass scheme approach associative matching (Section 9).
        self._ddirty: List[int] = [0] * dcache.lines
        self._dirty_epoch = 1
        self._dwrite_only: List[int] = [0] * dcache.lines
        self._dvalid: List[int] = [0] * dcache.lines

        # ----- L2 and its address-granularity conversions.  The miss
        # handlers probe and fill a direct-mapped half's tag and dirty lists
        # in place (``Cache`` never rebinds them); ``None`` tags send an
        # associative half through ``Cache.access``.
        self.l2 = SecondaryCache(config.l2)
        self._i_l2_delta = self.l2.line_shift - self._il_shift
        self._d_l2_delta = self.l2.line_shift - self._dl_shift
        self._l2i = l2i = self.l2.instruction_half
        self._l2i_tags = l2i._tags
        self._l2i_dirty = l2i._dirty
        self._l2i_mask = l2i.index_mask
        self._l2d = l2d = self.l2.data_half
        self._l2d_tags = l2d._tags
        self._l2d_dirty = l2d._dirty
        self._l2d_mask = l2d.index_mask

        # ----- Write buffer.
        self.wb = WriteBuffer(config.write_buffer.depth,
                              config.write_buffer.overlap_cycles)

        # ----- Timing constants.
        self._i_refill_cycles = config.l1i_refill_cycles()
        self._d_refill_cycles = config.l1d_refill_cycles()
        self._wb_word_cost = config.l2.effective_d_access
        self._wb_victim_cost = (config.l2.effective_d_access
                                + (dcache.line_words // 4 - 1))
        self._l2_clean = config.l2.miss_penalty_clean
        self._l2_dirty = config.l2.miss_penalty_dirty
        self._l2_writeback_cost = self._l2_dirty - self._l2_clean

        # ----- Concurrency mechanisms.
        self._i_waits_for_wb = not config.concurrency.i_refill_during_wb_drain
        self._bypass = config.concurrency.bypass
        # With nothing buffered, a read miss has nothing to wait for, except
        # that the dirty-bit scheme then flash-clears the dirty bits.
        self._dirty_bit_bypass = self._bypass is BypassMode.DIRTY_BIT
        self._dirty_buffer = config.concurrency.l2_dirty_buffer
        self._dirty_buffer_free = 0

        # ----- TLBs.
        tlb = config.tlb
        self.itlb = TLB(tlb.itlb_entries, tlb.ways, tlb.miss_penalty)
        self.dtlb = TLB(tlb.dtlb_entries, tlb.ways, tlb.miss_penalty)
        self._tlb_enabled = tlb.enabled
        self._tlb_penalty = tlb.miss_penalty
        self._last_ipage = -1
        self._last_dpage = -1

        # ----- Handler dispatch, resolved once (never per access).
        store_fn, load_miss_fn = resolve_policy(config.write_policy)
        self._store = MethodType(store_fn, self)
        self._load_miss = MethodType(load_miss_fn, self)
        self._ifetch_miss = MethodType(ifetch_miss, self)

        self.stats = SimStats()
        self.now = 0
        self._cycles_base = 0

        # ----- Energy accounting (None = disabled; see repro.energy).
        if energy is None:
            self.energy = None
        else:
            from repro.energy import resolve_accountant

            self.energy = resolve_accountant(energy, config)

        # ----- Engine (validates the name).
        self.engine = resolve_engine(engine)(self)
        self.engine_name = engine

    # ------------------------------------------------------------------ admin

    def clear_stats(self) -> None:
        """Zero statistics while keeping all architectural state (warmup)."""
        self.stats = SimStats()
        self._cycles_base = self.now
        self.itlb.reset_counters()
        self.dtlb.reset_counters()

    def _sync_tlb_stats(self) -> None:
        st = self.stats
        st.itlb_probes = self.itlb.probes
        st.itlb_misses = self.itlb.misses
        st.dtlb_probes = self.dtlb.probes
        st.dtlb_misses = self.dtlb.misses

    # ------------------------------------------------------------- robustness

    def state_dict(self) -> dict:
        """Exact snapshot of every piece of architectural and timing state.

        Together with the scheduler/process snapshots this is sufficient to
        resume a run bit-identically (see :mod:`repro.robust.checkpoint`).
        The snapshot is engine-independent: the ``engine`` field records who
        wrote it, but a checkpoint written under one engine loads and
        resumes bit-identically under the other.
        """
        return {
            "version": STATE_VERSION,
            "engine": self.engine_name,
            "itags": [int(t) for t in self._itags],
            "dtags": [int(t) for t in self._dtags],
            "ddirty": [int(d) for d in self._ddirty],
            "dirty_epoch": self._dirty_epoch,
            "dwrite_only": [int(w) for w in self._dwrite_only],
            "dvalid": [int(v) for v in self._dvalid],
            "l2": self.l2.state_dict(),
            "wb": self.wb.state_dict(),
            "itlb": self.itlb.state_dict(),
            "dtlb": self.dtlb.state_dict(),
            "dirty_buffer_free": self._dirty_buffer_free,
            "last_ipage": self._last_ipage,
            "last_dpage": self._last_dpage,
            "stats": self.stats.to_dict(),
            "now": self.now,
            "cycles_base": self._cycles_base,
        }

    def load_state(self, state: dict) -> None:
        """Restore a :meth:`state_dict` snapshot taken under the same
        configuration; raises :class:`~repro.errors.CheckpointError` on any
        shape mismatch or unknown schema version."""
        from repro.errors import CheckpointError

        version = state.get("version", 1)
        if version not in _KNOWN_STATE_VERSIONS:
            raise CheckpointError(
                f"memory-system snapshot has unknown state version "
                f"{version!r}; this reader understands versions "
                f"{', '.join(str(v) for v in _KNOWN_STATE_VERSIONS)} "
                f"(was the checkpoint written by a newer release?)")
        try:
            itags = [int(t) for t in state["itags"]]
            dtags = [int(t) for t in state["dtags"]]
            ddirty = [int(d) for d in state["ddirty"]]
            dwrite_only = [int(w) for w in state["dwrite_only"]]
            dvalid = [int(v) for v in state["dvalid"]]
            if len(itags) != self.config.icache.lines:
                raise CheckpointError(
                    f"L1-I snapshot has {len(itags)} lines, expected "
                    f"{self.config.icache.lines}"
                )
            dlines = self.config.dcache.lines
            for name, column in (("dtags", dtags), ("ddirty", ddirty),
                                 ("dwrite_only", dwrite_only),
                                 ("dvalid", dvalid)):
                if len(column) != dlines:
                    raise CheckpointError(
                        f"L1-D snapshot column {name} has {len(column)} "
                        f"lines, expected {dlines}"
                    )
            self._itags = itags
            self._dtags = dtags
            self._ddirty = ddirty
            self._dirty_epoch = int(state["dirty_epoch"])
            self._dwrite_only = dwrite_only
            self._dvalid = dvalid
            self.l2.load_state(state["l2"])
            self.wb.load_state(state["wb"])
            self.itlb.load_state(state["itlb"])
            self.dtlb.load_state(state["dtlb"])
            self._dirty_buffer_free = int(state["dirty_buffer_free"])
            self._last_ipage = int(state["last_ipage"])
            self._last_dpage = int(state["last_dpage"])
            self.stats = SimStats.from_dict(state["stats"])
            self.now = int(state["now"])
            self._cycles_base = int(state["cycles_base"])
        except (KeyError, TypeError, ValueError) as exc:
            raise CheckpointError(
                f"malformed memory-system snapshot: {exc}") from exc

    def check_invariants(self) -> None:
        """Audit structural invariants of the whole hierarchy.

        Raises :class:`~repro.errors.StateCorruptionError` naming the first
        violated invariant.  Checked here:

        * L1-I/L1-D tags stored at an index must map back to that index
          (catches index-range tag bit flips).
        * An invalid L1-D line carries no valid words, no write-only mark,
          and no current-epoch dirty mark.
        * Dirty-epoch entries never exceed the current epoch.
        * Write-only lines exist only under the write-only policy and are
          always fully valid; under write-only, dirty implies fully valid.
        * Under the write-only policy every buffered write maps to an L1-D
          index that is currently dirty (the property the Section 9
          dirty-bit bypass's safety argument rests on).
        * Sub-structure integrity: write buffer (occupancy, FIFO ordering,
          push/retire conservation), L2 halves, and both TLBs.
        """
        from repro.errors import StateCorruptionError

        i_mask = self._i_mask
        for index, tag in enumerate(self._itags):
            if tag != INVALID and (tag & i_mask) != index:
                raise StateCorruptionError(
                    f"L1-I tag {tag:#x} stored at line {index} does not map "
                    f"there",
                    details={"structure": "l1i", "line": index,
                             "tag": int(tag)},
                )
        d_mask = self._d_mask
        epoch = self._dirty_epoch
        full_valid = self._d_full_valid
        write_only_policy = self.config.write_policy is WritePolicy.WRITE_ONLY
        for index, tag in enumerate(self._dtags):
            dirty = self._ddirty[index]
            write_only = self._dwrite_only[index]
            valid = self._dvalid[index]
            if dirty > epoch:
                raise StateCorruptionError(
                    f"L1-D line {index} dirty epoch {dirty} exceeds the "
                    f"current epoch {epoch}",
                    details={"structure": "l1d", "line": index},
                )
            if not 0 <= valid <= full_valid:
                raise StateCorruptionError(
                    f"L1-D line {index} valid mask {valid:#x} out of range",
                    details={"structure": "l1d", "line": index},
                )
            if tag == INVALID:
                if valid or write_only or dirty == epoch:
                    raise StateCorruptionError(
                        f"invalid L1-D line {index} carries live state "
                        f"(valid={valid:#x}, write_only={write_only}, "
                        f"dirty={dirty == epoch})",
                        details={"structure": "l1d", "line": index},
                    )
                continue
            if (tag & d_mask) != index:
                raise StateCorruptionError(
                    f"L1-D tag {tag:#x} stored at line {index} does not map "
                    f"there",
                    details={"structure": "l1d", "line": index,
                             "tag": int(tag)},
                )
            if write_only:
                if not write_only_policy:
                    raise StateCorruptionError(
                        f"L1-D line {index} is write-only under policy "
                        f"{self.config.write_policy.value}",
                        details={"structure": "l1d", "line": index},
                    )
                if valid != full_valid:
                    raise StateCorruptionError(
                        f"write-only L1-D line {index} is not fully valid",
                        details={"structure": "l1d", "line": index},
                    )
            if write_only_policy and dirty == epoch and valid != full_valid:
                raise StateCorruptionError(
                    f"dirty L1-D line {index} is not fully valid under the "
                    f"write-only policy",
                    details={"structure": "l1d", "line": index},
                )
        self.wb.check_invariants()
        # Under associative bypass a load miss drains only matching entries
        # before installing a clean line, so a shared index may legitimately
        # go clean while another line's words are still buffered; the
        # dirty-index property holds for the other disciplines.
        if (write_only_policy
                and self._bypass is not BypassMode.ASSOCIATIVE):
            for entry_line, _ in self.wb._entries:
                index = entry_line & d_mask
                if (self._dtags[index] == INVALID
                        or self._ddirty[index] != epoch):
                    raise StateCorruptionError(
                        f"buffered write to line {entry_line:#x} maps to "
                        f"L1-D index {index} which is not currently dirty",
                        details={"structure": "write_buffer",
                                 "line": entry_line, "index": index},
                    )
        self.l2.check_invariants()
        self.itlb.check_invariants("itlb")
        self.dtlb.check_invariants("dtlb")

    # --------------------------------------------------------------- hot loop

    def run_slice(self, batch: PreparedBatch, start: int,
                  deadline: int) -> SliceResult:
        """Execute instructions ``start..`` of ``batch`` until it ends, a
        system call is executed, or ``deadline`` (absolute cycle) is
        reached.

        ``batch`` is a :class:`~repro.sched.process.PreparedBatch`: the
        event columns of a physically translated batch, built when its
        process pulled it, for this machine's L1-I line size.  A batch
        prepared for another line size raises
        :class:`~repro.errors.SchedulingError` before any state changes.
        The batched engine keeps its hit thresholds with the events, so
        they are built once per batch rather than once per call.  The
        engine converts to Python values only the part of the batch this
        call can reach.  Execution is delegated to the configured engine
        (:mod:`repro.core.engine`); every engine produces bit-identical
        statistics and state.
        """
        if batch.il_shift != self._il_shift:
            from repro.errors import SchedulingError

            raise SchedulingError(
                f"batch prepared for {1 << batch.il_shift}-word L1-I "
                f"lines, run with {1 << self._il_shift}-word lines")
        return self.engine.run_slice(batch, start, deadline)

    # ------------------------------------------------------------- inspection

    def l1i_contains(self, word_addr: int) -> bool:
        """True when the word's line is resident in L1-I."""
        line = word_addr >> self._il_shift
        return bool(self._itags[line & self._i_mask] == line)

    def l1d_contains(self, word_addr: int) -> bool:
        """True when the word is readable from L1-D (valid for loads)."""
        line = word_addr >> self._dl_shift
        index = line & self._d_mask
        return bool(self._dtags[index] == line
                    and not self._dwrite_only[index]
                    and (int(self._dvalid[index])
                         >> (word_addr & self._dline_mask)) & 1)

    def l1d_line_state(self, word_addr: int) -> dict:
        """Debug/inspection view of the L1-D line a word maps to."""
        line = word_addr >> self._dl_shift
        index = line & self._d_mask
        return {
            "index": index,
            "tag": int(self._dtags[index]),
            "present": bool(self._dtags[index] == line),
            "dirty": bool(self._ddirty[index] == self._dirty_epoch),
            "write_only": bool(self._dwrite_only[index]),
            "valid_mask": int(self._dvalid[index]),
        }
