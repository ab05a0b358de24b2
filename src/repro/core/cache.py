"""A generic set-associative cache model.

Holds the state of the secondary cache's halves (1-way and 2-way in the
paper) and serves standalone miss-ratio studies (e.g. the L1
size/associativity ablation of Section 5).  The L1 hot path in
:mod:`repro.core.hierarchy` keeps its own flat tag arrays for speed; the
miss handlers of :mod:`repro.core.engine.timing` probe and fill a
direct-mapped L2 half's ``_tags``/``_dirty`` lists in place, and call
:meth:`Cache.access` only for an associative half.  For both, this class is
the reference model the flat arrays must agree with (checked by tests).
Because the memory system holds references to those two lists, a cache
never rebinds them: :meth:`Cache.flush` and :meth:`Cache.load_state` write
into them.

State is tracked per line: tag, dirty.  Addresses given to the cache are
*line* addresses (word address >> log2(line_words)); the caller owns that
shift so one cache object never mixes granularities.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.errors import ConfigurationError
from repro.obs import runtime as _obs
from repro.params import is_power_of_two, log2i

#: Tag value meaning "invalid line".
INVALID = -1


@dataclass
class FillResult:
    """Outcome of a line fill."""

    victim_tag: int
    victim_dirty: bool

    @property
    def evicted(self) -> bool:
        """True when a valid line was displaced."""
        return self.victim_tag != INVALID


class Cache:
    """A set-associative cache with true-LRU replacement.

    Args:
        size_words: capacity in words (power of two).
        line_words: line size in words (power of two).
        ways: associativity (power of two; 1 = direct-mapped).
    """

    def __init__(self, size_words: int, line_words: int, ways: int = 1):
        for name, value in (("size_words", size_words),
                            ("line_words", line_words), ("ways", ways)):
            if not is_power_of_two(value):
                raise ConfigurationError(f"{name} must be a power of two")
        if line_words * ways > size_words:
            raise ConfigurationError("cache smaller than one set")
        self.size_words = size_words
        self.line_words = line_words
        self.ways = ways
        self.lines = size_words // line_words
        self.sets = self.lines // ways
        self.index_mask = self.sets - 1
        self.line_shift = log2i(line_words)
        # Direct-mapped fast path: flat arrays.  Associative: per-set
        # MRU-ordered lists of [tag, dirty] pairs.
        if ways == 1:
            self._tags: List[int] = [INVALID] * self.sets
            self._dirty: List[bool] = [False] * self.sets
            self._sets = None
        else:
            self._tags = None
            self._dirty = None
            self._sets = [[] for _ in range(self.sets)]
        self.hits = 0
        self.misses = 0
        #: Optional observability tag: when set (e.g. ``"l2d"`` or an
        #: ablation label) and tracing is enabled, misses emit
        #: ``cache_miss`` events to the :mod:`repro.obs` sink.
        self.trace_name = None

    # ------------------------------------------------------------- inspection

    def set_index(self, line_addr: int) -> int:
        """The set a line address maps to."""
        return line_addr & self.index_mask

    def contains(self, line_addr: int) -> bool:
        """Non-mutating presence check (no LRU update, no counters)."""
        index = line_addr & self.index_mask
        if self.ways == 1:
            return self._tags[index] == line_addr
        return any(entry[0] == line_addr for entry in self._sets[index])

    def is_dirty(self, line_addr: int) -> bool:
        """True when the line is present and dirty."""
        index = line_addr & self.index_mask
        if self.ways == 1:
            return self._tags[index] == line_addr and self._dirty[index]
        for entry in self._sets[index]:
            if entry[0] == line_addr:
                return entry[1]
        return False

    @property
    def valid_lines(self) -> int:
        """Number of valid lines currently resident."""
        if self.ways == 1:
            return sum(1 for t in self._tags if t != INVALID)
        return sum(len(s) for s in self._sets)

    # ------------------------------------------------------------- operations

    def access(self, line_addr: int, write: bool = False
               ) -> Tuple[bool, FillResult]:
        """Reference a line, allocating on miss.

        Returns ``(hit, fill)``; ``fill`` describes the displaced victim
        (``FillResult(INVALID, False)`` on hits and on fills into empty ways).
        A ``write`` marks the line dirty (write-back, write-allocate).
        """
        index = line_addr & self.index_mask
        if self.ways == 1:
            tags = self._tags
            if tags[index] == line_addr:
                self.hits += 1
                if write:
                    self._dirty[index] = True
                return True, FillResult(INVALID, False)
            self.misses += 1
            victim_tag = tags[index]
            victim_dirty = self._dirty[index] if victim_tag != INVALID else False
            tags[index] = line_addr
            self._dirty[index] = write
            if _obs.enabled and self.trace_name is not None:
                _obs.tracer.emit("cache_miss", name=self.trace_name,
                                 line=line_addr, write=write,
                                 victim_dirty=victim_dirty)
            return False, FillResult(victim_tag, victim_dirty)

        entry_set = self._sets[index]
        for position, entry in enumerate(entry_set):
            if entry[0] == line_addr:
                self.hits += 1
                if write:
                    entry[1] = True
                if position:
                    del entry_set[position]
                    entry_set.insert(0, entry)
                return True, FillResult(INVALID, False)
        self.misses += 1
        entry_set.insert(0, [line_addr, write])
        victim = entry_set.pop() if len(entry_set) > self.ways else None
        if _obs.enabled and self.trace_name is not None:
            _obs.tracer.emit("cache_miss", name=self.trace_name,
                             line=line_addr, write=write,
                             victim_dirty=bool(victim and victim[1]))
        if victim is not None:
            return False, FillResult(victim[0], victim[1])
        return False, FillResult(INVALID, False)

    def invalidate(self, line_addr: int) -> bool:
        """Drop a line if present; returns True when something was dropped."""
        index = line_addr & self.index_mask
        if self.ways == 1:
            if self._tags[index] == line_addr:
                self._tags[index] = INVALID
                self._dirty[index] = False
                return True
            return False
        entry_set = self._sets[index]
        for position, entry in enumerate(entry_set):
            if entry[0] == line_addr:
                del entry_set[position]
                return True
        return False

    def flush(self) -> int:
        """Invalidate everything; returns the number of dirty lines dropped."""
        dirty = 0
        if self.ways == 1:
            dirty = sum(1 for t, d in zip(self._tags, self._dirty)
                        if t != INVALID and d)
            self._tags[:] = [INVALID] * self.sets
            self._dirty[:] = [False] * self.sets
        else:
            for entry_set in self._sets:
                dirty += sum(1 for entry in entry_set if entry[1])
                entry_set.clear()
        return dirty

    @property
    def accesses(self) -> int:
        """Total references."""
        return self.hits + self.misses

    @property
    def miss_ratio(self) -> float:
        """Misses per reference."""
        return self.misses / self.accesses if self.accesses else 0.0

    def reset_counters(self) -> None:
        """Zero hit/miss counters without touching contents."""
        self.hits = 0
        self.misses = 0

    # ------------------------------------------------------------- robustness

    def state_dict(self) -> dict:
        """Exact snapshot of contents and counters (checkpointing)."""
        state = {
            "hits": self.hits,
            "misses": self.misses,
        }
        if self.ways == 1:
            state["tags"] = list(self._tags)
            state["dirty"] = [bool(d) for d in self._dirty]
        else:
            state["sets"] = [[[tag, bool(dirty)] for tag, dirty in entry_set]
                             for entry_set in self._sets]
        return state

    def load_state(self, state: dict) -> None:
        """Restore a :meth:`state_dict` snapshot into this cache.

        The cache geometry must match the snapshot; mismatches raise
        :class:`~repro.errors.CheckpointError`.
        """
        from repro.errors import CheckpointError

        try:
            if self.ways == 1:
                tags = [int(t) for t in state["tags"]]
                dirty = [bool(d) for d in state["dirty"]]
                if len(tags) != self.sets or len(dirty) != self.sets:
                    raise CheckpointError(
                        f"cache snapshot has {len(tags)} sets, "
                        f"expected {self.sets}"
                    )
                self._tags[:] = tags
                self._dirty[:] = dirty
            else:
                sets = [[[int(tag), bool(dirty)] for tag, dirty in entry_set]
                        for entry_set in state["sets"]]
                if len(sets) != self.sets:
                    raise CheckpointError(
                        f"cache snapshot has {len(sets)} sets, "
                        f"expected {self.sets}"
                    )
                self._sets = sets
            self.hits = int(state["hits"])
            self.misses = int(state["misses"])
        except (KeyError, TypeError, ValueError) as exc:
            raise CheckpointError(f"malformed cache snapshot: {exc}") from exc

    def check_invariants(self, name: str = "cache") -> None:
        """Assert structural integrity; raises
        :class:`~repro.errors.StateCorruptionError` on violation.

        Checks that every stored tag maps back to the set holding it (which
        catches bit flips in the index range of a tag), that no set exceeds
        its associativity, and that no set holds duplicate tags.
        """
        from repro.errors import StateCorruptionError

        if self.ways == 1:
            for index, tag in enumerate(self._tags):
                if tag != INVALID and (tag & self.index_mask) != index:
                    raise StateCorruptionError(
                        f"{name}: tag {tag:#x} stored at set {index} does not "
                        f"map there",
                        details={"structure": name, "set": index, "tag": tag},
                    )
            return
        for index, entry_set in enumerate(self._sets):
            if len(entry_set) > self.ways:
                raise StateCorruptionError(
                    f"{name}: set {index} holds {len(entry_set)} lines, "
                    f"associativity is {self.ways}",
                    details={"structure": name, "set": index},
                )
            seen = set()
            for tag, _ in entry_set:
                if (tag & self.index_mask) != index:
                    raise StateCorruptionError(
                        f"{name}: tag {tag:#x} stored at set {index} does not "
                        f"map there",
                        details={"structure": name, "set": index, "tag": tag},
                    )
                if tag in seen:
                    raise StateCorruptionError(
                        f"{name}: duplicate tag {tag:#x} in set {index}",
                        details={"structure": name, "set": index, "tag": tag},
                    )
                seen.add(tag)


def simulate_miss_ratio(cache: Cache, word_addrs, warmup: int = 0) -> float:
    """Convenience: run word addresses through a cache, return miss ratio.

    Args:
        cache: the cache to drive (line granularity handled here).
        word_addrs: iterable of word addresses.
        warmup: number of leading references excluded from the ratio.
    """
    shift = cache.line_shift
    for i, addr in enumerate(word_addrs):
        if i == warmup:
            cache.reset_counters()
        cache.access(int(addr) >> shift)
    return cache.miss_ratio
