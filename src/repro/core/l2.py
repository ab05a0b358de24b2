"""The secondary (L2) cache: unified or split, write-back, write-allocate.

A split cache logically partitions instructions and data.  The paper
implements the logical split with the high-order index bit interleaving the
two halves of one array; behaviourally that is two independent caches of half
the size, which is how it is modeled here.  A *physical* split additionally
gives the halves independent sizes (and, in the timing model, access times):
the optimized machine pairs a 32 KW two-cycle L2-I with a 256 KW six-cycle
L2-D (Section 7).

The L2 is write-back with write-allocate: buffered writes draining out of the
L1 write buffer allocate and dirty lines here, and a miss that displaces a
dirty line pays the dirty miss penalty (237 cycles vs. 143 clean in the base
machine).
"""

from __future__ import annotations

from repro.core.cache import Cache
from repro.core.config import L2Config
from repro.params import log2i


class SecondaryCache:
    """State (not timing) of the secondary cache: one or two halves.

    Timing — access cycles, miss penalties, the dirty buffer — lives in the
    memory system's miss handlers (:mod:`repro.core.engine.timing`), which
    probe and fill :attr:`instruction_half` and :attr:`data_half` directly.
    """

    def __init__(self, config: L2Config):
        config.validate()
        self.config = config
        self.line_shift = log2i(config.line_words)
        if config.split:
            self._icache = Cache(config.effective_i_size, config.line_words,
                                 config.ways)
            self._dcache = Cache(config.effective_d_size, config.line_words,
                                 config.ways)
        else:
            unified = Cache(config.size_words, config.line_words, config.ways)
            self._icache = unified
            self._dcache = unified

    @property
    def split(self) -> bool:
        """True when instructions and data occupy separate halves."""
        return self.config.split

    @property
    def instruction_half(self) -> Cache:
        """The cache array serving instruction fetches."""
        return self._icache

    @property
    def data_half(self) -> Cache:
        """The cache array serving data accesses and buffered writes."""
        return self._dcache

    def contains(self, l2_line: int, instruction: bool = False) -> bool:
        """Non-mutating presence check."""
        half = self._icache if instruction else self._dcache
        return half.contains(l2_line)

    def flush(self) -> int:
        """Invalidate everything; returns dirty lines dropped."""
        dropped = self._icache.flush()
        if self._dcache is not self._icache:
            dropped += self._dcache.flush()
        return dropped

    # ------------------------------------------------------------- robustness

    def state_dict(self) -> dict:
        """Exact snapshot of both halves (one array when unified)."""
        state = {"split": self.config.split,
                 "icache": self._icache.state_dict()}
        if self._dcache is not self._icache:
            state["dcache"] = self._dcache.state_dict()
        return state

    def load_state(self, state: dict) -> None:
        """Restore a :meth:`state_dict` snapshot."""
        from repro.errors import CheckpointError

        try:
            if bool(state["split"]) != self.config.split:
                raise CheckpointError(
                    "L2 snapshot split/unified organization mismatch")
            self._icache.load_state(state["icache"])
            if self._dcache is not self._icache:
                self._dcache.load_state(state["dcache"])
        except KeyError as exc:
            raise CheckpointError(f"malformed L2 snapshot: {exc}") from exc

    def check_invariants(self) -> None:
        """Assert structural integrity of both halves."""
        self._icache.check_invariants("l2i" if self.split else "l2")
        if self._dcache is not self._icache:
            self._dcache.check_invariants("l2d")
