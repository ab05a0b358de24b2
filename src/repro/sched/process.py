"""A simulated process: a PID, a trace source, and prepared batches.

The paper's simulator multiplexes per-benchmark trace pipes through file
descriptors; here each :class:`Process` pulls batches from its trace source
and prepares each one as it pulls it: a :class:`PreparedBatch` holds the
batch's *events* for the machine's L1-I line size, translated to physical
addresses through the shared page table (page coloring preserves cache
index bits), as NumPy columns.  An engine converts to Python values only
the part of a batch that one call can reach.

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

#: An event's code is its access kind (``repro.trace.record.KIND_*``) with
#: this bit set for a partial-word store.
PARTIAL = 1 << 2


def changes(values: np.ndarray) -> np.ndarray:
    """Per value, whether it differs from the one before (the first
    does)."""
    flags = np.empty(len(values), bool)
    flags[:1] = True
    np.not_equal(values[1:], values[:-1], out=flags[1:])
    return flags


def _narrow(values: np.ndarray) -> np.ndarray:
    return values.astype(int_dtype(values), copy=False)


def translate_events(page_table: PageTable, pid: int, pcs: np.ndarray,
                     addr: np.ndarray, rows: np.ndarray
                     ) -> Tuple[np.ndarray, np.ndarray]:
    """The physical addresses of a batch's event pcs ``pcs`` and of the
    addresses of its data rows ``rows`` in its virtual address column
    ``addr``.

    Frames are allocated exactly as translating the batch's whole pc
    column, then its whole address column, would.  The event pcs cover
    every page of the pc column, because a page's first instruction in a
    batch is a line change.  The address column also holds the address
    of every row without a data access, normally 0: then page 0 is
    mapped (the phantom frame of DESIGN §6) before the data pages, which
    is where ascending page order puts it.  A row without a data access
    but with another address (only a foreign trace file has one) sends
    the whole column through translation.
    """
    pcs = page_table.translate_batch(pid, pcs)
    data = addr.take(rows)
    if len(rows) < len(addr):
        if np.count_nonzero(data) < np.count_nonzero(addr):
            return pcs, page_table.translate_batch(pid, addr).take(rows)
        page_table.translate_page(pid, 0)
    return pcs, page_table.translate_batch(pid, data)


class PreparedBatch:
    """One trace batch, physically translated, as its *events* for one
    L1-I line size.

    An instruction is an event when its L1-I line (``pc >> il_shift``)
    differs from the previous instruction's (the first one's always
    does) or when it accesses data.  ``positions`` (sorted) and
    ``syscalls`` are positions in the batch, int32; ``lines``, ``codes``
    and ``addrs`` hold each event's L1-I line, the code of its data
    access (``kind | partial << 2``, uint8: :data:`PARTIAL` marks a
    partial-word store) and its address (0 without a data access).
    Lines and addresses are int32 when every value fits
    (:func:`~repro.mmu.page_table.int_dtype`).  ``hits`` is where the
    batched engine keeps the batch's hit thresholds
    (:class:`repro.core.engine.batched.HitThresholds`).  No column is
    per instruction: :meth:`window` rebuilds those.

    The constructor takes five per-instruction columns (pcs, kinds,
    addresses, partial and system-call flags): physical ones, as
    hand-written tests pass them, or with ``page_table`` the virtual
    ones of process ``pid``, of which it translates only what the events
    keep (:func:`translate_events`).  :meth:`from_batch` validates a
    trace batch first.  A batch belongs to one process, and a process to
    one simulation, so a machine with another L1-I line size refuses it
    (``MemorySystem.run_slice``).
    """

    __slots__ = ("il_shift", "positions", "lines", "codes", "addrs",
                 "syscalls", "hits", "dropped", "_length")

    def __init__(self, pc, kind, addr, partial, syscall, il_shift: int,
                 dropped: int = 0, page_table: Optional[PageTable] = None,
                 pid: int = 0):
        pc = np.ascontiguousarray(pc, dtype=np.int64)
        kind = np.ascontiguousarray(kind, dtype=np.uint8)
        addr = np.ascontiguousarray(addr, dtype=np.int64)
        partial = np.ascontiguousarray(partial, dtype=bool)
        flags = changes(pc >> il_shift)
        np.logical_or(flags, kind, out=flags)
        positions = np.flatnonzero(flags)
        del flags
        codes = kind.take(positions)
        # A partial flag counts on a store only, as a valid trace has it,
        # and sets PARTIAL, bit 2.
        codes |= (partial.take(positions)
                  & (codes == KIND_STORE)).view(np.uint8) << 2
        # A compare first: np.flatnonzero of a boolean column is several
        # times faster than of a uint8 one.
        data = np.flatnonzero(codes != 0)
        rows = positions.take(data)
        pcs = pc.take(positions)
        if page_table is None:
            addrs = addr.take(rows)
        else:
            pcs, addrs = translate_events(page_table, pid, pcs, addr, rows)
        np.right_shift(pcs, il_shift, out=pcs)
        self.il_shift = il_shift
        self.positions = positions.astype(np.int32)
        self.lines = _narrow(pcs)
        self.codes = codes
        self.addrs = np.zeros(len(positions), int_dtype(addrs))
        self.addrs[data] = addrs
        self.syscalls = np.flatnonzero(syscall).astype(np.int32)
        self.hits = None
        #: Malformed records dropped during preparation (skip mode only).
        self.dropped = dropped
        self._length = len(pc)

    def __len__(self) -> int:
        return self._length

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
        codes = np.zeros(len(at), np.uint8)
        codes[rows] = self.codes[lo:hi]
        addrs = np.zeros(len(at), self.addrs.dtype)
        addrs[rows] = self.addrs[lo:hi]
        syscalls = np.zeros(len(at), bool)
        first, last = self.syscalls.searchsorted(bounds).tolist()
        syscalls[self.syscalls[first:last] - start] = True
        return (lines, codes & (PARTIAL - 1), addrs, (codes & PARTIAL) != 0,
                syscalls)

    @staticmethod
    def from_batch(batch: TraceBatch, pid: int, page_table: PageTable,
                   il_shift: int,
                   trace_errors: str = "raise") -> "PreparedBatch":
        """Prepare a virtual-address batch for L1-I lines of
        ``2 ** il_shift`` words.

        Its events are found on the virtual columns: they are the ones
        the physical columns have, because a line never straddles a page
        and the page table gives every page of a process its own frame.
        Only the event pcs and the data rows' addresses are translated
        (:func:`translate_events`).

        Args:
            batch: the raw virtual-address batch.
            pid: owning process id (page-table key).
            page_table: shared translation state.
            il_shift: log2 of the machine's L1-I line size in words.
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
        return PreparedBatch(batch.pc, batch.kind, batch.addr, batch.partial,
                             batch.syscall, il_shift, dropped, page_table,
                             pid)


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
        #: log2 of the machine's L1-I line size in words, which the
        #: batches are prepared for; the :class:`Scheduler` sets it.
        self.il_shift: Optional[int] = None
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
            # The exhausted batch goes before the next one is prepared.
            self._batch = None
            snapshot = (self.source.state_dict()
                        if hasattr(self.source, "state_dict") else None)
            batch = self._pull()
            if batch is None:
                self.finished = True
                self._pre_batch_state = None
                return None, 0
            self._pre_batch_state = snapshot
            self._batch = batch
            self.records_skipped += batch.dropped
            self._pos = 0
        return self._batch, self._pos

    def _pull(self) -> Optional[PreparedBatch]:
        """The source's next batch, prepared, or ``None`` at its end."""
        if self.il_shift is None:
            raise SchedulingError(
                f"process {self.name!r} has no machine: a Scheduler sets "
                f"the L1-I line size its batches are prepared for")
        raw = self.source.next_batch()
        if raw is None or len(raw) == 0:
            return None
        return PreparedBatch.from_batch(raw, self.pid, self.page_table,
                                        self.il_shift, self.trace_errors)

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
                self._batch = self._pull()
                if self._batch is None:
                    raise CheckpointError(
                        f"process {self.name!r} snapshot expects an in-flight "
                        f"batch but the source produced none"
                    )
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
