"""Trace records: the batch-of-instructions representation.

A trace is a sequence of *instructions*.  Every instruction implies one
instruction fetch at ``pc``; an instruction may additionally perform one data
access (a load or a store).  This mirrors the traces produced by ``pixie`` on
the MIPS systems the paper used: basic-block entry points expand to sequential
instruction fetches, and data-reference instructions contribute one data
address each.

Batches are columnar (numpy arrays) so that trace generation and
virtual-to-physical translation can be vectorized.  They stay columnar up to
the engine, which converts to plain Python values only the records one call
can reach.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from repro.errors import TraceError

#: Instruction performs no data access.
KIND_NONE = 0
#: Instruction performs a data load (word read).
KIND_LOAD = 1
#: Instruction performs a data store (word write).
KIND_STORE = 2

KIND_NAMES = {KIND_NONE: "none", KIND_LOAD: "load", KIND_STORE: "store"}

_ADDR_DTYPE = np.int64
_KIND_DTYPE = np.uint8


@dataclass
class TraceBatch:
    """A contiguous run of instructions from one process.

    Attributes:
        pc: word address of each instruction fetch.
        kind: ``KIND_NONE`` / ``KIND_LOAD`` / ``KIND_STORE`` per instruction.
        addr: data word address (meaningful only where ``kind != KIND_NONE``).
        partial: True where a store writes less than a full word (byte or
            half-word store).  Partial-word writes do not set valid bits under
            subblock placement (paper, Section 6).
        syscall: True where the instruction is a voluntary system call; the
            scheduler pessimistically context-switches at every such point
            (paper, Section 3).
    """

    pc: np.ndarray
    kind: np.ndarray
    addr: np.ndarray
    partial: np.ndarray
    syscall: np.ndarray

    def __post_init__(self) -> None:
        self.pc = np.ascontiguousarray(self.pc, dtype=_ADDR_DTYPE)
        self.kind = np.ascontiguousarray(self.kind, dtype=_KIND_DTYPE)
        self.addr = np.ascontiguousarray(self.addr, dtype=_ADDR_DTYPE)
        self.partial = np.ascontiguousarray(self.partial, dtype=bool)
        self.syscall = np.ascontiguousarray(self.syscall, dtype=bool)
        n = len(self.pc)
        for name in ("kind", "addr", "partial", "syscall"):
            if len(getattr(self, name)) != n:
                raise TraceError(
                    f"column '{name}' has length {len(getattr(self, name))}, "
                    f"expected {n}"
                )

    def __len__(self) -> int:
        return len(self.pc)

    def __getitem__(self, index) -> "TraceBatch":
        if not (isinstance(index, slice)
                or (isinstance(index, np.ndarray) and index.dtype == bool)):
            raise TypeError(
                "TraceBatch supports only slice or boolean-mask indexing")
        return TraceBatch(
            pc=self.pc[index],
            kind=self.kind[index],
            addr=self.addr[index],
            partial=self.partial[index],
            syscall=self.syscall[index],
        )

    @property
    def load_count(self) -> int:
        """Number of load instructions in the batch."""
        return int(np.count_nonzero(self.kind == KIND_LOAD))

    @property
    def store_count(self) -> int:
        """Number of store instructions in the batch."""
        return int(np.count_nonzero(self.kind == KIND_STORE))

    @property
    def syscall_count(self) -> int:
        """Number of voluntary system-call instructions in the batch."""
        return int(np.count_nonzero(self.syscall))

    def check_columns(self) -> None:
        """Raise :class:`TraceError` when the columns disagree in length
        (a truncated batch).  ``__post_init__`` enforces this at
        construction; this re-checks arrays mutated after the fact."""
        n = len(self.pc)
        for name in ("kind", "addr", "partial", "syscall"):
            if len(getattr(self, name)) != n:
                raise TraceError(
                    f"truncated trace batch: column '{name}' has length "
                    f"{len(getattr(self, name))}, expected {n}"
                )

    def validate(self) -> None:
        """Raise :class:`TraceError` if the batch violates trace invariants."""
        self.check_columns()
        if np.any(self.pc < 0) or np.any(self.addr < 0):
            raise TraceError("negative address in trace batch")
        if np.any(self.kind > KIND_STORE):
            raise TraceError("unknown access kind in trace batch")
        partial_non_store = self.partial & (self.kind != KIND_STORE)
        if np.any(partial_non_store):
            raise TraceError("partial flag set on a non-store instruction")

    def invalid_mask(self) -> np.ndarray:
        """Boolean mask of records violating per-row trace invariants.

        Columns must agree in length (:meth:`check_columns`); truncation is
        a structural defect a row mask cannot express."""
        self.check_columns()
        return ((self.pc < 0) | (self.addr < 0)
                | (self.kind > KIND_STORE)
                | (self.partial & (self.kind != KIND_STORE)))

    def references(self) -> int:
        """Total memory references (instruction fetches + data accesses)."""
        return len(self) + int(np.count_nonzero(self.kind != KIND_NONE))

    @staticmethod
    def empty() -> "TraceBatch":
        """An empty batch."""
        zero = np.zeros(0, dtype=_ADDR_DTYPE)
        return TraceBatch(
            pc=zero,
            kind=np.zeros(0, dtype=_KIND_DTYPE),
            addr=zero.copy(),
            partial=np.zeros(0, dtype=bool),
            syscall=np.zeros(0, dtype=bool),
        )

    @staticmethod
    def concat(batches: Sequence["TraceBatch"]) -> "TraceBatch":
        """Concatenate batches in order into a single batch."""
        if not batches:
            return TraceBatch.empty()
        return TraceBatch(
            pc=np.concatenate([b.pc for b in batches]),
            kind=np.concatenate([b.kind for b in batches]),
            addr=np.concatenate([b.addr for b in batches]),
            partial=np.concatenate([b.partial for b in batches]),
            syscall=np.concatenate([b.syscall for b in batches]),
        )


@dataclass
class WorkloadSummary:
    """Aggregate statistics of a trace, in the format of the paper's Table 1."""

    name: str
    instructions: int = 0
    loads: int = 0
    stores: int = 0
    syscalls: int = 0
    partial_stores: int = 0

    def add(self, batch: TraceBatch) -> None:
        """Accumulate one batch into the summary."""
        self.instructions += len(batch)
        self.loads += batch.load_count
        self.stores += batch.store_count
        self.syscalls += batch.syscall_count
        self.partial_stores += int(np.count_nonzero(batch.partial))

    @property
    def load_fraction(self) -> float:
        """Loads as a fraction of instructions."""
        return self.loads / self.instructions if self.instructions else 0.0

    @property
    def store_fraction(self) -> float:
        """Stores as a fraction of instructions."""
        return self.stores / self.instructions if self.instructions else 0.0

    @property
    def references(self) -> int:
        """Total memory references."""
        return self.instructions + self.loads + self.stores


def iter_instructions(batch: TraceBatch) -> Iterator[tuple]:
    """Iterate ``(pc, kind, addr, partial, syscall)`` tuples (slow; tests only)."""
    for i in range(len(batch)):
        yield (
            int(batch.pc[i]),
            int(batch.kind[i]),
            int(batch.addr[i]),
            bool(batch.partial[i]),
            bool(batch.syscall[i]),
        )
