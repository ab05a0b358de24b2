"""Replaying external traces.

The paper's simulator consumes ``pixie`` output plus, per benchmark, a
*system call file* "that contains the address of all system call
instructions" so the scheduler can pessimistically context-switch at every
voluntary system call (Section 3).  This module provides the equivalent for
externally produced traces:

* :class:`DinTraceSource` — stream a dinero ``din`` file (of any size) as a
  :class:`~repro.trace.stream.TraceSource`, batch by batch, without loading
  it into memory;
* :func:`load_syscall_file` — read a system-call file (one instruction
  address per line, hex byte addresses like din records); the source marks
  the syscall flag wherever the program counter matches, exactly as the
  paper's hash-table lookup does.

Together these let real traces replace the synthetic suite wholesale::

    source = DinTraceSource("gcc.din",
                            syscall_pcs=load_syscall_file("gcc.sys"))
    process = Process(pid=1, name="gcc", source=source, page_table=table)
"""

from __future__ import annotations

import os
from typing import FrozenSet, Iterable, List, Optional, Set, Union

import numpy as np

from repro.errors import TraceError
from repro.params import WORD_BYTES
from repro.trace.record import KIND_LOAD, KIND_NONE, KIND_STORE, TraceBatch
from repro.trace.stream import check_max_len
from repro.trace.tracefile import DIN_IFETCH, DIN_READ, DIN_WRITE

PathLike = Union[str, os.PathLike]

_DEFAULT_BATCH = 1 << 14


def load_syscall_file(path_or_lines: Union[PathLike, Iterable[str]]
                      ) -> FrozenSet[int]:
    """Read a system-call file into a set of word-granular PCs.

    Format: one instruction address per line, hex, byte-granular (matching
    din records); blank lines and ``#`` comments are ignored.
    """
    own = isinstance(path_or_lines, (str, os.PathLike))
    lines = open(path_or_lines) if own else path_or_lines
    try:
        pcs: Set[int] = set()
        for line_no, line in enumerate(lines, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            try:
                pcs.add(int(line, 16) // WORD_BYTES)
            except ValueError as exc:
                raise TraceError(
                    f"malformed system-call address at line {line_no}: "
                    f"{line!r}"
                ) from exc
        return frozenset(pcs)
    finally:
        if own:
            lines.close()


class DinTraceSource:
    """A TraceSource streaming a dinero ``din`` file.

    Records are paired the way :func:`repro.trace.tracefile.export_din`
    writes them: each ifetch may be followed by one data record; a second
    consecutive data record is attributed to a synthetic repeat-ifetch so
    no reference is dropped.

    Args:
        path: the din file.
        syscall_pcs: word-granular PCs to flag as voluntary system calls.
        batch_size: instructions per emitted batch.
    """

    def __init__(self, path: PathLike,
                 syscall_pcs: FrozenSet[int] = frozenset(),
                 batch_size: int = _DEFAULT_BATCH):
        if batch_size <= 0:
            raise TraceError("batch_size must be positive")
        self.path = path
        self.syscall_pcs = frozenset(syscall_pcs)
        self.batch_size = batch_size
        self._file = open(path, "r")
        self._line_no = 0
        self._done = False
        #: A data record seen before its ifetch partner is impossible in
        #: our pairing, but a pending ifetch waits for a possible data
        #: record from the next read.
        self._pending_pc: Optional[int] = None

    @property
    def done(self) -> bool:
        """True once the file is exhausted."""
        return self._done and self._pending_pc is None

    def _parse(self, line: str):
        parts = line.split()
        if len(parts) != 2:
            raise TraceError(
                f"malformed din record at line {self._line_no}: {line!r}")
        try:
            return int(parts[0]), int(parts[1], 16) // WORD_BYTES
        except ValueError as exc:
            raise TraceError(
                f"malformed din record at line {self._line_no}: {line!r}"
            ) from exc

    def next_batch(self, max_len: Optional[int] = None
                   ) -> Optional[TraceBatch]:
        check_max_len(max_len)
        if self.done:
            return None
        want = min(self.batch_size,
                   max_len if max_len is not None else self.batch_size)
        pcs: List[int] = []
        kinds: List[int] = []
        addrs: List[int] = []

        def flush_pending() -> None:
            if self._pending_pc is not None:
                pcs.append(self._pending_pc)
                kinds.append(KIND_NONE)
                addrs.append(0)
                self._pending_pc = None

        while len(pcs) < want:
            raw = self._file.readline()
            if not raw:
                self._done = True
                flush_pending()
                break
            self._line_no += 1
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            label, word_addr = self._parse(line)
            if label == DIN_IFETCH:
                flush_pending()
                self._pending_pc = word_addr
            elif label in (DIN_READ, DIN_WRITE):
                if self._pending_pc is None:
                    if not pcs:
                        raise TraceError(
                            f"data record before any ifetch at line "
                            f"{self._line_no}")
                    # Second data record: synthetic repeat ifetch.
                    self._pending_pc = pcs[-1]
                pcs.append(self._pending_pc)
                kinds.append(KIND_STORE if label == DIN_WRITE else KIND_LOAD)
                addrs.append(word_addr)
                self._pending_pc = None
            else:
                raise TraceError(
                    f"unknown din label {label} at line {self._line_no}")
        if not pcs:
            return None
        pc_array = np.asarray(pcs, dtype=np.int64)
        syscall = np.zeros(len(pcs), dtype=bool)
        if self.syscall_pcs:
            syscall = np.asarray([pc in self.syscall_pcs for pc in pcs],
                                 dtype=bool)
        return TraceBatch(
            pc=pc_array,
            kind=np.asarray(kinds, dtype=np.uint8),
            addr=np.asarray(addrs, dtype=np.int64),
            partial=np.zeros(len(pcs), dtype=bool),
            syscall=syscall,
        )

    def reset(self) -> None:
        """Rewind to the start of the file."""
        self._file.close()
        self._file = open(self.path, "r")
        self._line_no = 0
        self._done = False
        self._pending_pc = None

    def close(self) -> None:
        """Release the file handle."""
        self._file.close()
        self._done = True
