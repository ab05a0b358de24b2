"""Runtime invariant auditing: catch state corruption while it is cheap.

A multi-billion-reference run that silently corrupts a tag array produces a
plausible-looking but wrong CPI.  The auditor turns that failure mode into a
loud one: every ``interval_slices`` scheduler slices it asserts the
structural invariants of the whole hierarchy
(:meth:`repro.core.hierarchy.MemorySystem.check_invariants` — tag/index
consistency, dirty⇒valid disciplines, write-buffer conservation, TLB set
sanity), raising :class:`~repro.errors.StateCorruptionError` on the first
violation.

With ``lockstep=True`` it additionally mirrors every data access into the
functional reference model (:mod:`repro.core.functional`) and cross-checks
the L1-D line state of recently touched addresses.  Tag, presence,
write-only, and valid-mask state are timing-independent, so the two models
must agree exactly; the dirty bit is excluded (its flash-clear depends on
drain *timing*, which the functional model abstracts away).  Lockstep
catches corruptions structural checks cannot — e.g. a tag bit flipped above
the index field still maps to the right set but names the wrong line.

Lockstep mode holds unserializable mirror state, so it cannot be combined
with checkpointing (``Simulation.state_dict`` refuses); structural-only
auditing is checkpoint-safe.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Optional

from repro.core.functional import FunctionalMemorySystem
from repro.core.hierarchy import MemorySystem
from repro.errors import ConfigurationError, StateCorruptionError
from repro.trace.record import KIND_LOAD, KIND_STORE

#: Fields of ``l1d_line_state`` that are timing-independent and must agree
#: between the timing and functional models (``dirty`` is timing-dependent).
_LOCKSTEP_FIELDS = ("present", "tag", "write_only", "valid_mask")


@dataclass(frozen=True)
class AuditConfig:
    """Auditing knobs (pass as ``Simulation(audit=AuditConfig(...))``).

    Attributes:
        interval_slices: run a full audit every this many scheduler slices.
        lockstep: also mirror data accesses into the functional model and
            cross-check L1-D line state (slower; incompatible with
            checkpointing).
        sample: how many recently touched data addresses the lockstep
            cross-check inspects per audit.
    """

    interval_slices: int = 8
    lockstep: bool = False
    sample: int = 64

    def __post_init__(self) -> None:
        if self.interval_slices <= 0:
            raise ConfigurationError("interval_slices must be positive")
        if self.sample <= 0:
            raise ConfigurationError("sample must be positive")


class InvariantAuditor:
    """Observes executed slices and periodically audits the hierarchy.

    The scheduler calls :meth:`observe` after every ``run_slice`` and
    :meth:`end_slice` at slice boundaries; :meth:`audit` can also be called
    directly (the fault-injection tests do).
    """

    def __init__(self, memsys: MemorySystem, config: Optional[AuditConfig]
                 = None):
        self.memsys = memsys
        self.config = config or AuditConfig()
        self.audits_run = 0
        self.accesses_mirrored = 0
        self._slices = 0
        self._recent: Deque[int] = deque(maxlen=self.config.sample)
        self._mirror: Optional[FunctionalMemorySystem] = None
        if self.config.lockstep:
            self._mirror = FunctionalMemorySystem(memsys.config)

    def observe(self, batch, pos: int, consumed: int) -> None:
        """Record the ``consumed`` instructions of ``batch`` starting at
        ``pos`` that the timing model just executed."""
        if self._mirror is None or consumed <= 0:
            return
        _, kinds, addrs, partials, _ = batch.window(pos, pos + consumed)
        mirror = self._mirror
        recent = self._recent
        for kind, addr, partial in zip(kinds.tolist(), addrs.tolist(),
                                       partials.tolist()):
            if kind == KIND_LOAD:
                mirror.load(addr)
                recent.append(addr)
                self.accesses_mirrored += 1
            elif kind == KIND_STORE:
                mirror.store(addr, 0, partial)
                recent.append(addr)
                self.accesses_mirrored += 1

    def end_slice(self) -> None:
        """Slice boundary: audit when the interval elapses."""
        self._slices += 1
        if self._slices % self.config.interval_slices == 0:
            self.audit()

    def audit(self) -> None:
        """Run a full audit now; raises
        :class:`~repro.errors.StateCorruptionError` on any violation."""
        self.memsys.check_invariants()
        if self._mirror is not None:
            self._lockstep_check()
        self.audits_run += 1

    def _lockstep_check(self) -> None:
        for addr in self._recent:
            timing = self.memsys.l1d_line_state(addr)
            functional = self._mirror.l1d_line_state(addr)
            for field_name in _LOCKSTEP_FIELDS:
                if timing[field_name] != functional[field_name]:
                    raise StateCorruptionError(
                        f"lockstep divergence at data address {addr:#x} "
                        f"(L1-D index {timing['index']}): timing model "
                        f"{field_name}={timing[field_name]!r}, functional "
                        f"model {field_name}={functional[field_name]!r}",
                        details={"addr": addr, "field": field_name,
                                 "timing": timing,
                                 "functional": functional},
                    )
