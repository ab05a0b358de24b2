"""Trace sources: the protocol connecting trace producers to the scheduler.

A *trace source* is anything with ``next_batch(max_len) -> TraceBatch | None``
plus ``done``/``reset``.  :class:`~repro.trace.synthetic.SyntheticBenchmark`
is the primary implementation; this module adds sources backed by in-memory
batches (for tests and replayed trace files) and a rechunking adaptor.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Protocol, runtime_checkable

from repro.errors import TraceError
from repro.trace.record import TraceBatch, WorkloadSummary


@runtime_checkable
class TraceSource(Protocol):
    """Protocol for objects that produce a finite instruction trace."""

    @property
    def done(self) -> bool:
        """True once the trace is exhausted."""

    def next_batch(self, max_len: Optional[int] = None) -> Optional[TraceBatch]:
        """Return the next batch (at most ``max_len`` instructions) or None.

        A ``max_len`` below 1 raises :class:`~repro.errors.TraceError`
        and changes no state: ``None`` means only the end of the trace.
        """

    def reset(self) -> None:
        """Rewind so the identical trace is produced again."""


def check_max_len(max_len: Optional[int]) -> None:
    """Raise :class:`~repro.errors.TraceError` unless ``max_len`` is None
    or positive; every source calls it before touching its state."""
    if max_len is not None and max_len <= 0:
        raise TraceError("max_len must be positive")


class BatchSource:
    """A trace source replaying a fixed list of in-memory batches."""

    def __init__(self, batches: Iterable[TraceBatch]):
        self._batches: List[TraceBatch] = [b for b in batches if len(b)]
        self._index = 0
        self._offset = 0

    @property
    def done(self) -> bool:
        return self._index >= len(self._batches)

    def next_batch(self, max_len: Optional[int] = None) -> Optional[TraceBatch]:
        check_max_len(max_len)
        if self.done:
            return None
        batch = self._batches[self._index]
        remaining = len(batch) - self._offset
        take = remaining if max_len is None else min(max_len, remaining)
        out = batch[self._offset:self._offset + take]
        self._offset += take
        if self._offset >= len(batch):
            self._index += 1
            self._offset = 0
        return out

    def reset(self) -> None:
        self._index = 0
        self._offset = 0


def drain(source: TraceSource, max_len: Optional[int] = None) -> List[TraceBatch]:
    """Pull every remaining batch out of a source."""
    batches: List[TraceBatch] = []
    while True:
        batch = source.next_batch(max_len)
        if batch is None:
            break
        batches.append(batch)
    return batches


def summarize(source: TraceSource, name: str = "trace") -> WorkloadSummary:
    """Consume a source and return its Table-1-style summary statistics."""
    summary = WorkloadSummary(name=name)
    while True:
        batch = source.next_batch()
        if batch is None:
            break
        summary.add(batch)
    return summary
