"""Translation lookaside buffers.

The MMU chip holds a 2-way set-associative, 32-entry instruction TLB and a
2-way set-associative, 64-entry data TLB (paper, Section 2).  Entries are
tagged with the PID so the TLB — like the caches — need not be flushed on a
context switch (Section 3).

Replacement is LRU within a set.  The simulator consults the TLB only when an
access crosses a page boundary relative to the previous access of the same
kind; a TLB object therefore also tracks how many references each probe
covers, so miss ratios can be reported per probe or per reference.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.errors import ConfigurationError
from repro.params import is_power_of_two


class TLB:
    """A PID-tagged set-associative TLB.

    Args:
        entries: total entry count (power of two).
        ways: associativity (power of two, <= entries).
        miss_penalty: CPU cycles charged per refill.
    """

    def __init__(self, entries: int, ways: int = 2, miss_penalty: int = 20):
        if not is_power_of_two(entries):
            raise ConfigurationError("TLB entry count must be a power of two")
        if not is_power_of_two(ways) or ways > entries:
            raise ConfigurationError("TLB ways must be a power of two <= entries")
        if miss_penalty < 0:
            raise ConfigurationError("TLB miss penalty must be non-negative")
        self.entries = entries
        self.ways = ways
        self.sets = entries // ways
        self.miss_penalty = miss_penalty
        # Each set is an MRU-ordered list of (pid, vpage) tags.
        self._sets: List[List[Tuple[int, int]]] = [[] for _ in range(self.sets)]
        self.probes = 0
        self.misses = 0

    def access(self, pid: int, vpage: int) -> bool:
        """Probe for (pid, vpage); refill on miss.  Returns True on a hit."""
        self.probes += 1
        index = vpage & (self.sets - 1)
        entry_set = self._sets[index]
        tag = (pid, vpage)
        try:
            position = entry_set.index(tag)
        except ValueError:
            self.misses += 1
            entry_set.insert(0, tag)
            if len(entry_set) > self.ways:
                entry_set.pop()
            return False
        # A hit on the set's most recently used entry (position 0) only
        # counts the probe: the batched engine does that inline; keep
        # them in step.
        if position:
            del entry_set[position]
            entry_set.insert(0, tag)
        return True

    def contains(self, pid: int, vpage: int) -> bool:
        """Non-mutating lookup (no LRU update, no counters)."""
        index = vpage & (self.sets - 1)
        return (pid, vpage) in self._sets[index]

    @property
    def miss_ratio(self) -> float:
        """Misses per probe."""
        return self.misses / self.probes if self.probes else 0.0

    def invalidate_pid(self, pid: int) -> int:
        """Drop all entries of one PID (process exit); returns entries dropped."""
        dropped = 0
        for entry_set in self._sets:
            kept = [tag for tag in entry_set if tag[0] != pid]
            dropped += len(entry_set) - len(kept)
            entry_set[:] = kept
        return dropped

    def flush(self) -> None:
        """Invalidate every entry (counters retained)."""
        for entry_set in self._sets:
            entry_set.clear()

    def reset_counters(self) -> None:
        """Zero the probe/miss counters."""
        self.probes = 0
        self.misses = 0

    # ------------------------------------------------------------- robustness

    def state_dict(self) -> dict:
        """Exact snapshot of entries (MRU order) and counters."""
        return {
            "sets": [[[pid, vpage] for pid, vpage in entry_set]
                     for entry_set in self._sets],
            "probes": self.probes,
            "misses": self.misses,
        }

    def load_state(self, state: dict) -> None:
        """Restore a :meth:`state_dict` snapshot."""
        from repro.errors import CheckpointError

        try:
            sets = [[(int(pid), int(vpage)) for pid, vpage in entry_set]
                    for entry_set in state["sets"]]
            if len(sets) != self.sets:
                raise CheckpointError(
                    f"TLB snapshot has {len(sets)} sets, expected {self.sets}"
                )
            self._sets = sets
            self.probes = int(state["probes"])
            self.misses = int(state["misses"])
        except (KeyError, TypeError, ValueError) as exc:
            raise CheckpointError(f"malformed TLB snapshot: {exc}") from exc

    def check_invariants(self, name: str = "tlb") -> None:
        """Assert structural integrity; raises
        :class:`~repro.errors.StateCorruptionError` on violation."""
        from repro.errors import StateCorruptionError

        for index, entry_set in enumerate(self._sets):
            if len(entry_set) > self.ways:
                raise StateCorruptionError(
                    f"{name}: set {index} holds {len(entry_set)} entries, "
                    f"associativity is {self.ways}",
                    details={"structure": name, "set": index},
                )
            if len(set(entry_set)) != len(entry_set):
                raise StateCorruptionError(
                    f"{name}: duplicate entry in set {index}",
                    details={"structure": name, "set": index},
                )
            for _, vpage in entry_set:
                if (vpage & (self.sets - 1)) != index:
                    raise StateCorruptionError(
                        f"{name}: vpage {vpage:#x} stored in set {index} "
                        f"does not map there",
                        details={"structure": name, "set": index,
                                 "vpage": vpage},
                    )


def instruction_tlb(miss_penalty: int = 20) -> TLB:
    """The paper's instruction TLB: 2-way set-associative, 32 entries."""
    return TLB(entries=32, ways=2, miss_penalty=miss_penalty)


def data_tlb(miss_penalty: int = 20) -> TLB:
    """The paper's data TLB: 2-way set-associative, 64 entries."""
    return TLB(entries=64, ways=2, miss_penalty=miss_penalty)
