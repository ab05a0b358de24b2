"""The write buffer between the L1 data cache and the secondary cache.

Entries retire into L2 in FIFO order.  A single write takes the full L2
access time; a *stream* of buffered writes overlaps ``overlap_cycles`` of the
L2 latency (Section 6).  The model therefore computes, at enqueue time, the
absolute cycle at which each entry's drain completes:

    completion = max(now + cost, previous_completion + cost - overlap)

The enqueuing caller supplies ``cost`` (the L2 access time, plus the L2 miss
penalty when the drain misses in L2 — L2 is write-allocate).

Three consistency disciplines are provided for read misses, matching
Section 9:

* :meth:`wait_empty` — the baseline rule: stall until the buffer drains.
* :meth:`flush_through` — associative matching: stall only until a buffered
  write to the same L1 line (and everything ahead of it) has drained.
* the dirty-bit scheme needs no buffer support at all: the caller consults
  the L1-D dirty bit and calls :meth:`wait_empty` only when replacing a
  dirty line.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Tuple

from repro.errors import ConfigurationError
from repro.obs import runtime as _obs


class WriteBuffer:
    """FIFO write buffer with pipelined drain timing.

    Args:
        depth: number of entries (4 for the base victim buffer, 8 for the
            write-through buffer).
        overlap_cycles: cycles of L2 latency a stream of writes can hide.
    """

    def __init__(self, depth: int, overlap_cycles: int = 2):
        if depth <= 0:
            raise ConfigurationError("write buffer depth must be positive")
        if overlap_cycles < 0:
            raise ConfigurationError("overlap_cycles must be non-negative")
        self.depth = depth
        self.overlap_cycles = overlap_cycles
        #: (line_addr, completion_cycle), oldest first.
        self._entries: Deque[Tuple[int, int]] = deque()
        self._last_completion = 0
        # Counters.
        self.pushes = 0
        self.retired = 0
        self.full_stall_cycles = 0
        self.max_occupancy = 0

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def empty_time(self) -> int:
        """Cycle at which the buffer becomes empty (0 when already empty)."""
        return self._entries[-1][1] if self._entries else 0

    def expire(self, now: int) -> None:
        """Retire entries whose drain has completed by ``now``."""
        entries = self._entries
        while entries and entries[0][1] <= now:
            entries.popleft()
            self.retired += 1

    def push(self, now: int, line_addr: int, cost: int) -> int:
        """Enqueue one entry; returns stall cycles if the buffer was full.

        The stall (wait for the head entry to retire) is the caller's to
        account (the paper's "WB" component).

        The batched engine inlines the non-full case for a write-through
        store hit and for a write-back victim, with its counters flushed
        at the end of each engine call; keep the two in step.
        """
        self.expire(now)
        stall = 0
        if len(self._entries) >= self.depth:
            head_completion = self._entries[0][1]
            stall = head_completion - now
            now = head_completion
            self.expire(now)
            if stall and _obs.enabled:
                _obs.tracer.emit("wb_stall", cyc=now, cycles=stall,
                                 cause="full")
        # Entries retire in order: a pipelined drain can overlap the L2
        # latency but never complete before (or with) its predecessor.
        completion = max(now + cost,
                         self._last_completion + max(1, cost
                                                     - self.overlap_cycles))
        self._last_completion = completion
        self._entries.append((line_addr, completion))
        self.pushes += 1
        self.full_stall_cycles += stall
        if len(self._entries) > self.max_occupancy:
            self.max_occupancy = len(self._entries)
        return stall

    def wait_empty(self, now: int) -> int:
        """Stall until the buffer is empty; returns the stall cycles.

        The batched engine inlines this wait for a miss it finishes
        itself.  Its copy retires every entry at once and stalls to the
        tail's completion if that is later, which is the same because
        completions rise strictly along the FIFO; keep the two in step.
        """
        # Every L1 miss under the baseline discipline lands here, so the
        # retirement loop of :meth:`expire` is inlined.
        entries = self._entries
        while entries and entries[0][1] <= now:
            entries.popleft()
            self.retired += 1
        if not entries:
            return 0
        stall = entries[-1][1] - now
        self.retired += len(entries)
        entries.clear()
        if _obs.enabled:
            _obs.tracer.emit("wb_stall", cyc=now, cycles=stall,
                             cause="drain")
        return stall

    def flush_through(self, now: int, line_addr: int) -> int:
        """Associative bypass: stall only if ``line_addr`` matches a buffered
        write, draining that entry and everything ahead of it.

        Returns the stall cycles (0 when no entry matches).
        """
        self.expire(now)
        match_completion = -1
        for addr, completion in self._entries:
            if addr == line_addr:
                match_completion = completion
        if match_completion < 0:
            return 0
        while self._entries and self._entries[0][1] <= match_completion:
            self._entries.popleft()
            self.retired += 1
        if _obs.enabled:
            _obs.tracer.emit("wb_stall", cyc=now,
                             cycles=match_completion - now, cause="flush")
        return match_completion - now

    def contains_line(self, line_addr: int) -> bool:
        """True when an undrained entry maps to ``line_addr``."""
        return any(addr == line_addr for addr, _ in self._entries)

    def reset(self) -> None:
        """Empty the buffer and clear timing state (counters retained)."""
        self.retired += len(self._entries)
        self._entries.clear()
        self._last_completion = 0

    # ------------------------------------------------------------- robustness

    def state_dict(self) -> dict:
        """Exact snapshot of entries, timing, and counters (checkpointing)."""
        return {
            "entries": [[addr, completion] for addr, completion in self._entries],
            "last_completion": self._last_completion,
            "pushes": self.pushes,
            "retired": self.retired,
            "full_stall_cycles": self.full_stall_cycles,
            "max_occupancy": self.max_occupancy,
        }

    def load_state(self, state: dict) -> None:
        """Restore a :meth:`state_dict` snapshot."""
        from repro.errors import CheckpointError

        try:
            entries = [(int(addr), int(completion))
                       for addr, completion in state["entries"]]
            if len(entries) > self.depth:
                raise CheckpointError(
                    f"write-buffer snapshot holds {len(entries)} entries, "
                    f"depth is {self.depth}"
                )
            self._entries = deque(entries)
            self._last_completion = int(state["last_completion"])
            self.pushes = int(state["pushes"])
            self.retired = int(state["retired"])
            self.full_stall_cycles = int(state["full_stall_cycles"])
            self.max_occupancy = int(state["max_occupancy"])
        except (KeyError, TypeError, ValueError) as exc:
            raise CheckpointError(
                f"malformed write-buffer snapshot: {exc}") from exc

    def check_invariants(self) -> None:
        """Assert structural integrity; raises
        :class:`~repro.errors.StateCorruptionError` on violation.

        Checks occupancy against depth, FIFO completion monotonicity, and
        the push/retire conservation law ``pushes - retired == occupancy``
        (which catches entries dropped or injected behind the model's back).
        """
        from repro.errors import StateCorruptionError

        if len(self._entries) > self.depth:
            raise StateCorruptionError(
                f"write buffer holds {len(self._entries)} entries, "
                f"depth is {self.depth}",
                details={"structure": "write_buffer"},
            )
        previous = None
        for position, (_, completion) in enumerate(self._entries):
            if previous is not None and completion < previous:
                raise StateCorruptionError(
                    f"write-buffer completion times regress at entry "
                    f"{position} ({completion} < {previous})",
                    details={"structure": "write_buffer", "entry": position},
                )
            previous = completion
        if self._entries and self._last_completion < self._entries[-1][1]:
            raise StateCorruptionError(
                "write-buffer last_completion is behind the tail entry",
                details={"structure": "write_buffer"},
            )
        if self.pushes - self.retired != len(self._entries):
            raise StateCorruptionError(
                f"write-buffer conservation violated: {self.pushes} pushes - "
                f"{self.retired} retired != {len(self._entries)} buffered",
                details={"structure": "write_buffer",
                         "pushes": self.pushes, "retired": self.retired,
                         "occupancy": len(self._entries)},
            )
