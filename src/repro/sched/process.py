"""A simulated process: a PID, a trace source, and translated batches.

The paper's simulator multiplexes per-benchmark trace pipes through file
descriptors; here each :class:`Process` pulls batches from its trace source,
translates them to physical addresses through the shared page table (page
coloring preserves cache index bits), and hands the simulator the columns
as NumPy arrays.  The first run compacts a batch to its events for the
machine's L1-I line size, which are then its only copy, and an engine
converts to Python values only the part of a batch that one call can
reach.

Every batch is validated before it reaches the hot loop: a corrupt trace
record (unknown access kind, negative address, mismatched column lengths)
either raises :class:`~repro.errors.TraceError` (``trace_errors="raise"``,
the default) or is dropped and counted (``trace_errors="skip"``) — never
silently executed, since the hot loop would misaccount it as a store.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.errors import SchedulingError, TraceError
from repro.mmu.page_table import PageTable, int_dtype
from repro.params import MAX_PROCESSES
from repro.trace.record import KIND_STORE, TraceBatch
from repro.trace.stream import TraceSource


def changes(values: np.ndarray) -> np.ndarray:
    """Per value, whether it differs from the one before (the first
    does)."""
    flags = np.empty(len(values), bool)
    flags[:1] = True
    np.not_equal(values[1:], values[:-1], out=flags[1:])
    return flags


def _narrow(values: np.ndarray) -> np.ndarray:
    return values.astype(int_dtype(values), copy=False)


class Events:
    """A prepared batch's *events* for one L1-I line size, as NumPy
    columns.

    An instruction is an event when its L1-I line (``pc >> il_shift``)
    differs from the previous instruction's (the first one's always
    does) or when it accesses data.  ``positions`` (sorted) and
    ``syscalls`` are positions in the batch; ``lines``, ``kinds``,
    ``addrs`` and ``partials`` hold each event's L1-I line and data
    access.  Positions are int32, and lines and addresses too when
    every value fits (:func:`~repro.mmu.page_table.int_dtype`).
    ``hits`` is where the batched engine keeps the batch's hit
    thresholds (:class:`repro.core.engine.batched.HitThresholds`).
    """

    __slots__ = ("il_shift", "positions", "lines", "kinds", "addrs",
                 "partials", "syscalls", "hits")

    def __init__(self, batch: "PreparedBatch", il_shift: int):
        lines = batch.pc >> il_shift
        positions = np.flatnonzero((batch.kind != 0) | changes(lines))
        self.il_shift = il_shift
        self.positions = positions.astype(np.int32)
        self.lines = _narrow(lines.take(positions))
        self.kinds = batch.kind.take(positions)
        self.addrs = _narrow(batch.addr.take(positions))
        self.partials = batch.partial.take(positions)
        self.syscalls = np.flatnonzero(batch.syscall).astype(np.int32)
        self.hits = None

    def window(self, start: int, stop: int) -> tuple:
        """The instructions at positions ``start`` to ``stop - 1`` as
        five per-instruction columns, rebuilt from the events: L1-I
        line, kind, address, partial flag and system-call flag.  An
        instruction that is not an event is in the line of the event
        before it and accesses no data (kind 0, address 0)."""
        positions = self.positions
        # int32 queries: a Python int would make NumPy cast the whole
        # column to int64.
        at = np.arange(start, stop, dtype=np.int32)
        bounds = np.array((start, stop), np.int32)
        lines = self.lines.take(positions.searchsorted(at, "right") - 1)
        lo, hi = positions.searchsorted(bounds).tolist()
        rows = positions[lo:hi] - start
        kinds = np.zeros(len(at), np.uint8)
        kinds[rows] = self.kinds[lo:hi]
        addrs = np.zeros(len(at), self.addrs.dtype)
        addrs[rows] = self.addrs[lo:hi]
        partials = np.zeros(len(at), bool)
        partials[rows] = self.partials[lo:hi]
        syscalls = np.zeros(len(at), bool)
        first, last = self.syscalls.searchsorted(bounds).tolist()
        syscalls[self.syscalls[first:last] - start] = True
        return lines, kinds, addrs, partials, syscalls


class PreparedBatch:
    """One trace batch, physically translated, held once.

    It is made of five per-instruction NumPy columns: ``pc``, ``kind``,
    ``addr``, ``partial`` and ``syscall``.  The first
    ``MemorySystem.run_slice`` on it, under either engine, compacts it
    to its :class:`Events` for that machine's L1-I line size
    (:meth:`compact`) and drops the columns, which then read ``None``.
    A batch belongs to one process, and a process to one simulation, so
    compacting it again for another line size raises
    :class:`~repro.errors.SchedulingError`.
    """

    __slots__ = ("pc", "kind", "addr", "partial", "syscall", "dropped",
                 "events", "_length", "_trace")

    def __init__(self, pc, kind, addr, partial, syscall, dropped: int = 0):
        self.pc = np.ascontiguousarray(pc, dtype=np.int64)
        self.kind = np.ascontiguousarray(kind, dtype=np.uint8)
        self.addr = np.ascontiguousarray(addr, dtype=np.int64)
        self.partial = np.ascontiguousarray(partial, dtype=bool)
        self.syscall = np.ascontiguousarray(syscall, dtype=bool)
        #: Malformed records dropped during preparation (skip mode only).
        self.dropped = dropped
        #: The batch's :class:`Events`, once it has run.
        self.events: Optional[Events] = None
        self._length = len(self.pc)
        #: The untranslated batch, freed with the columns (:meth:`compact`).
        self._trace: Optional[TraceBatch] = None

    def __len__(self) -> int:
        return self._length

    def compact(self, il_shift: int) -> Events:
        """The batch's events for L1-I lines of ``2 ** il_shift`` words,
        built on the first call, which drops the per-instruction
        columns."""
        events = self.events
        if events is None:
            events = self.events = Events(self, il_shift)
            # The columns and the untranslated batch are freed together,
            # once the events exist: the next batch's preparation then
            # reuses their memory.  Freeing the untranslated batch first,
            # when ``Process.current`` returned, raised the minor page
            # faults of a paper_l8 run from 4-6K to 12-14K, most of them
            # in the next batch's translation, and cost fig5_sweep 3.6%
            # of its instructions per second on a 2-vCPU host.
            self.pc = self.kind = self.addr = None
            self.partial = self.syscall = self._trace = None
        elif events.il_shift != il_shift:
            raise SchedulingError(
                f"batch compacted for {1 << events.il_shift}-word L1-I "
                f"lines, run with {1 << il_shift}-word lines")
        return events

    @staticmethod
    def from_batch(batch: TraceBatch, pid: int, page_table: PageTable,
                   trace_errors: str = "raise") -> "PreparedBatch":
        """Translate a virtual-address batch into physical columns.

        Args:
            batch: the raw virtual-address batch.
            pid: owning process id (page-table key).
            page_table: shared translation state.
            trace_errors: ``"raise"`` rejects a corrupt batch with
                :class:`~repro.errors.TraceError`; ``"skip"`` drops the
                offending records and counts them in ``dropped``.
        """
        if trace_errors not in ("raise", "skip"):
            raise TraceError(f"unknown trace_errors mode {trace_errors!r}")
        dropped = 0
        if trace_errors == "raise":
            batch.validate()
        else:
            columns = (batch.pc, batch.kind, batch.addr, batch.partial,
                       batch.syscall)
            n = min(len(column) for column in columns)
            if any(len(column) != n for column in columns):
                # Truncated batch: keep the records every column still has.
                dropped += len(batch.pc) - n
                batch = TraceBatch(pc=batch.pc[:n], kind=batch.kind[:n],
                                   addr=batch.addr[:n],
                                   partial=batch.partial[:n],
                                   syscall=batch.syscall[:n])
            bad = batch.invalid_mask()
            bad_rows = int(np.count_nonzero(bad))
            if bad_rows:
                dropped += bad_rows
                batch = batch[~bad]
        prepared = PreparedBatch(page_table.translate_batch(pid, batch.pc),
                                 batch.kind,
                                 page_table.translate_batch(pid, batch.addr),
                                 batch.partial, batch.syscall, dropped)
        prepared._trace = batch
        return prepared


class Process:
    """Execution state of one benchmark within the multiprogrammed mix."""

    def __init__(self, pid: int, name: str, source: TraceSource,
                 page_table: PageTable, trace_errors: str = "raise"):
        if not 0 <= pid < MAX_PROCESSES:
            raise SchedulingError(f"pid {pid} out of range")
        if trace_errors not in ("raise", "skip"):
            raise SchedulingError(
                f"unknown trace_errors mode {trace_errors!r}")
        self.pid = pid
        self.name = name
        self.source = source
        self.page_table = page_table
        self.trace_errors = trace_errors
        self._batch: Optional[PreparedBatch] = None
        self._pos = 0
        self.instructions_executed = 0
        self.finished = False
        #: Malformed trace records dropped so far (skip mode).
        self.records_skipped = 0
        # Source state captured immediately before the current batch was
        # pulled; replaying it regenerates the identical batch on resume.
        self._pre_batch_state: Optional[dict] = None

    def current(self) -> Tuple[Optional[PreparedBatch], int]:
        """The batch/offset to execute next, pulling a new batch if needed.

        Returns ``(None, 0)`` once the process's trace is exhausted.
        """
        if self.finished:
            return None, 0
        # A batch whose records were all corrupt and dropped is empty:
        # pull the next one.
        while self._batch is None or self._pos >= len(self._batch):
            snapshot = (self.source.state_dict()
                        if hasattr(self.source, "state_dict") else None)
            raw = self.source.next_batch()
            if raw is None or len(raw) == 0:
                self.finished = True
                self._batch = None
                self._pre_batch_state = None
                return None, 0
            self._pre_batch_state = snapshot
            self._batch = PreparedBatch.from_batch(raw, self.pid,
                                                   self.page_table,
                                                   self.trace_errors)
            self.records_skipped += self._batch.dropped
            self._pos = 0
        return self._batch, self._pos

    def advance(self, consumed: int) -> None:
        """Record that ``consumed`` instructions of the current batch ran."""
        if consumed < 0:
            raise SchedulingError("consumed must be non-negative")
        self._pos += consumed
        self.instructions_executed += consumed
        if self._batch is not None and self._pos > len(self._batch):
            raise SchedulingError("advanced past the end of the batch")

    # ------------------------------------------------------------- robustness

    def state_dict(self) -> dict:
        """Snapshot sufficient to resume this process bit-identically.

        An in-flight batch is not serialized; instead the source state
        captured *before* the batch was pulled travels, and resume replays
        the pull (deterministic trace generation plus an already-populated
        page table reproduce the identical prepared batch).
        """
        from repro.errors import CheckpointError

        if not hasattr(self.source, "state_dict"):
            raise CheckpointError(
                f"trace source of process {self.name!r} "
                f"({type(self.source).__name__}) does not support "
                f"checkpointing (no state_dict)"
            )
        has_batch = self._batch is not None
        return {
            "pid": self.pid,
            "name": self.name,
            "finished": self.finished,
            "instructions_executed": self.instructions_executed,
            "records_skipped": self.records_skipped,
            "pos": self._pos,
            "has_batch": has_batch,
            "source": (self._pre_batch_state if has_batch
                       else self.source.state_dict()),
        }

    def load_state(self, state: dict) -> None:
        """Restore a :meth:`state_dict` snapshot.

        The shared page table must already be restored: re-translating the
        regenerated in-flight batch is then a pure lookup, yielding the
        identical physical addresses.
        """
        from repro.errors import CheckpointError

        try:
            if int(state["pid"]) != self.pid or state["name"] != self.name:
                raise CheckpointError(
                    f"process snapshot identity mismatch: snapshot is for "
                    f"pid {state['pid']} ({state['name']!r}), this process "
                    f"is pid {self.pid} ({self.name!r})"
                )
            self.finished = bool(state["finished"])
            self.instructions_executed = int(state["instructions_executed"])
            self.records_skipped = int(state["records_skipped"])
            self.source.load_state(state["source"])
            self._batch = None
            self._pos = 0
            self._pre_batch_state = None
            if state["has_batch"] and not self.finished:
                self._pre_batch_state = state["source"]
                raw = self.source.next_batch()
                if raw is None or len(raw) == 0:
                    raise CheckpointError(
                        f"process {self.name!r} snapshot expects an in-flight "
                        f"batch but the source produced none"
                    )
                self._batch = PreparedBatch.from_batch(raw, self.pid,
                                                       self.page_table,
                                                       self.trace_errors)
                # The skipped count already includes this batch's drops.
                self._pos = int(state["pos"])
                if self._pos > len(self._batch):
                    raise CheckpointError(
                        f"process {self.name!r} snapshot position "
                        f"{self._pos} exceeds the regenerated batch length "
                        f"{len(self._batch)}"
                    )
        except (KeyError, TypeError, ValueError) as exc:
            raise CheckpointError(
                f"malformed process snapshot: {exc}") from exc
