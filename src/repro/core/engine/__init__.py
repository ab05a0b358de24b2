"""Pluggable simulation engines for :class:`repro.core.hierarchy.MemorySystem`.

The memory system owns *state* (tag arrays, write buffer, L2, TLBs, timing
constants, statistics); an **engine** owns the *hot loop* that advances that
state over a prepared instruction batch.  The split lets one architectural
model run under interchangeable execution strategies:

``batched`` (the default)
    A scalar loop that visits only *events*
    (:class:`repro.core.engine.batched.BatchedEngine`): NumPy finds, once
    per prepared batch, the instructions that open a new L1-I line or
    access data, and every other instruction advances the clock by one
    cycle without being executed.  A long call also skips the events
    that an earlier access in the same call proves L1 hits.
    Bit-identical to ``reference`` by construction (every architectural
    mutation goes through the same shared policy/timing handlers) and by
    test (``tests/test_engine_lockstep.py``,
    ``tests/test_engine_slice_edges.py``).

``reference``
    The original pure-Python per-instruction loop
    (:class:`repro.core.engine.reference.ReferenceEngine`).  Simple,
    auditable, and the oracle the lockstep batteries compare against.

The protocol between the two sides is deliberately narrow:

* an engine is constructed with the :class:`MemorySystem` it drives;
* ``run_slice(batch, start, deadline)`` executes instructions of a
  :class:`~repro.sched.process.PreparedBatch` and returns a
  :class:`SliceResult`.  The batch is its event columns, NumPy arrays
  built for the machine's L1-I line size when its process pulled it
  (``MemorySystem.run_slice`` refuses one built for another size); an
  engine converts to Python values only the part one call can reach,
  and may keep per-batch data with the events (the batched engine's hit
  thresholds), freed with them.  Engines hold no other state between
  calls, so a checkpoint restore needs no hook.

Policy and refill/timing handlers live in :mod:`repro.core.engine.policies`
and :mod:`repro.core.engine.timing`; dispatch is resolved **once at
construction** (:func:`repro.core.engine.policies.resolve_policy` returns the
handler pair, which the memory system binds as methods), never per access.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple

from repro.errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.hierarchy import MemorySystem
    from repro.sched.process import PreparedBatch

#: Reasons a slice of execution stopped.
REASON_END = "end"          # batch exhausted
REASON_SYSCALL = "syscall"  # voluntary system call executed
REASON_SLICE = "slice"      # cycle deadline reached

#: Engine used when none is requested, everywhere engines are selectable.
DEFAULT_ENGINE = "batched"

#: Every engine name :func:`resolve_engine` accepts, in preference order.
ENGINE_NAMES = ("reference", "batched")


class SliceResult(NamedTuple):
    """Outcome of one ``run_slice`` call."""

    consumed: int
    reason: str


class Engine:
    """The narrow protocol every engine implements.

    Engines hold no architectural state of their own — everything
    observable lives on the memory system, which is what makes engines
    interchangeable mid-run via checkpoints.
    """

    #: Wire/CLI identifier; must appear in :data:`ENGINE_NAMES`.
    name: str = "abstract"

    def __init__(self, ms: "MemorySystem"):
        self.ms = ms

    def run_slice(self, batch: PreparedBatch, start: int,
                  deadline: int) -> SliceResult:
        raise NotImplementedError


def resolve_engine(name: str):
    """Map an engine name to its class; raises
    :class:`~repro.errors.ConfigurationError` for unknown names."""
    if name == "reference":
        from repro.core.engine.reference import ReferenceEngine

        return ReferenceEngine
    if name == "batched":
        from repro.core.engine.batched import BatchedEngine

        return BatchedEngine
    raise ConfigurationError(
        f"unknown simulation engine {name!r} "
        f"(available: {', '.join(ENGINE_NAMES)})")
