"""Synthetic address-trace generation.

The paper drives its simulator with ~2.5 billion references collected from the
MIPS benchmark suite via ``pixie``.  Those binaries and traces are not
available, so this module provides the closest synthetic equivalent: a
two-part locality model whose parameters are calibrated (see
``repro.trace.benchmarks``) to land in the paper's reported ranges — write
fraction ~7 % of instructions, L1 miss ratios of a few percent at 4 KW, L2
local miss ratios near 1 % at 256 KW, instruction footprints that stop paying
off past ~64 KW of L2 while data footprints keep paying to 512 KW and beyond.

Instruction model
    A benchmark's code is divided into *phase regions*.  Execution sits in one
    phase for ``phase_length`` instructions, repeatedly choosing a loop from
    that phase's pool (Zipf-weighted so a few loops dominate), running its body
    for a geometrically distributed trip count, and occasionally calling a
    "far" helper block elsewhere in the code region.  This produces the
    sequential runs, tight reuse, and occasional excursions of real code.

Data model
    Each load/store address is drawn from a four-component mixture:

    * ``hot``  — small region (stack + scalars); almost always L1-resident.
    * ``warm`` — a *drifting window* into a mid-size region: the window is a
      few times larger than the L1-D, so most warm accesses miss L1 but hit
      L2; the window drifts slowly (``warm_drift`` words per warm access),
      giving a controllable compulsory-miss floor, and a too-small (or
      multiprogram-contended) L2 loses window lines between time slices —
      the mechanism behind the paper's Fig. 2 L2 sensitivity to
      multiprogramming level.
    * ``stream`` — sequential scan through an array region (spatial locality:
      one miss per line).
    * ``cold`` — rare accesses over a very large region with mild power-law
      concentration; responsible for the L2 miss-ratio floor and for the
      continued benefit of very large L2s.

    Stores draw from the same mixture with their non-hot probabilities scaled
    by ``store_locality`` — stores are more stack/scalar-local than loads,
    which is what gives the paper's 98 % write-hit rate at 4 KW.

All randomness is drawn from a per-benchmark seeded generator, so traces are
fully deterministic and runs are reproducible.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.trace.record import KIND_STORE, TraceBatch
from repro.trace.stream import check_max_len

#: Virtual base addresses (word granular) of each region of a process's
#: address space.  The layout is identical for every process; PIDs keep the
#: spaces distinct (paper, Section 3).  Bases are staggered by a few pages so
#: that, under page coloring, a process's regions start on different colors
#: (real segments are not all megabyte-aligned either).
_PAGE = 4096
CODE_BASE = 0x0040_0000 + 3 * _PAGE
HOT_BASE = 0x1000_0000 + 37 * _PAGE
WARM_BASE = 0x1200_0000 + 89 * _PAGE
STREAM_BASE = 0x1800_0000 + 151 * _PAGE
COLD_BASE = 0x2000_0000 + 211 * _PAGE

_DEFAULT_BATCH = 1 << 16


def _sawtooth(starts: np.ndarray, bodies: np.ndarray, trips: np.ndarray,
              want: int) -> np.ndarray:
    """The first ``want`` words of segments that each run ``trips`` times
    over ``[start, start + body)``, back to back.

    A trip's words count up by one from its body's start, so word ``k``
    is ``k`` plus the offset ``start - pos`` of the latest trip that
    begins at a position ``pos <= k``.
    """
    # Trip j of segment s begins at offset(s) + j * body(s).
    seg = np.repeat(np.arange(len(trips)), trips)
    trip = np.arange(len(seg)) - (np.cumsum(trips) - trips)[seg]
    lengths = bodies * trips
    pos = (np.cumsum(lengths) - lengths)[seg] + trip * bodies[seg]
    kept = int(np.searchsorted(pos, want))
    pos = pos[:kept]
    words = np.arange(want, dtype=np.int64)
    words += np.repeat(starts[seg[:kept]] - pos, np.diff(pos, append=want))
    return words


@dataclass(frozen=True)
class CodeProfile:
    """Parameters of the instruction-address model."""

    code_words: int = 16384
    phase_regions: int = 4
    loops_per_phase: int = 12
    loop_body_mean: int = 48
    loop_trip_mean: float = 12.0
    phase_length: int = 400_000
    far_call_prob: float = 0.04
    far_block_len: int = 12

    def validate(self) -> None:
        if self.code_words < self.phase_regions * self.loop_body_mean:
            raise ConfigurationError(
                "code region too small for the requested loop structure"
            )
        if not 0.0 <= self.far_call_prob <= 1.0:
            raise ConfigurationError("far_call_prob must be a probability")
        if self.loops_per_phase < 1:
            raise ConfigurationError("loops_per_phase must be positive")


@dataclass(frozen=True)
class DataProfile:
    """Parameters of the data-address model."""

    load_fraction: float = 0.22
    store_fraction: float = 0.0725
    partial_store_fraction: float = 0.10
    hot_words: int = 2048
    warm_words: int = 65536
    warm_window_words: int = 6144
    #: Words the warm window advances per warm access (sets the compulsory
    #: L2-D miss floor: one new line every ``4 / warm_drift`` warm accesses).
    warm_drift: float = 0.01
    stream_words: int = 16384
    #: Words the stream cursor advances per stream access (stride 4 = one
    #: access per line, a strided column scan; stride 1 = unit-stride scan).
    stream_stride: int = 1
    cold_words: int = 2 * 1024 * 1024
    p_warm: float = 0.032
    p_stream: float = 0.015
    p_cold: float = 0.0004
    cold_exponent: float = 1.4
    #: Multiplier applied to a store's non-hot component probabilities;
    #: below 1.0 makes stores more local than loads.
    store_locality: float = 0.4
    #: Probability that a store continues a sequential run at the address
    #: after the previous store (struct fills, saves, memset-like behaviour).
    #: Runs are what give write-allocating policies (write-only, subblock)
    #: their one-cycle hits on the stores following a write miss.
    store_run_q: float = 0.55

    @property
    def p_hot(self) -> float:
        """Probability mass of the hot component (the remainder)."""
        return 1.0 - self.p_warm - self.p_stream - self.p_cold

    def validate(self) -> None:
        if not 0.0 <= self.load_fraction + self.store_fraction <= 1.0:
            raise ConfigurationError("load + store fractions exceed 1")
        if self.p_hot < 0.0:
            raise ConfigurationError("mixture probabilities exceed 1")
        for name in ("hot_words", "warm_words", "warm_window_words",
                     "stream_words", "cold_words"):
            if getattr(self, name) <= 0:
                raise ConfigurationError(f"{name} must be positive")
        if self.warm_window_words > self.warm_words:
            raise ConfigurationError("warm window larger than the warm region")
        if self.warm_drift < 0:
            raise ConfigurationError("warm_drift must be non-negative")
        if self.stream_stride <= 0:
            raise ConfigurationError("stream_stride must be positive")
        if not 0.0 <= self.store_locality <= 1.0:
            raise ConfigurationError("store_locality must be within [0, 1]")
        if not 0.0 <= self.store_run_q < 1.0:
            raise ConfigurationError("store_run_q must be within [0, 1)")


@dataclass(frozen=True)
class BenchmarkProfile:
    """Everything needed to synthesize one benchmark's trace."""

    name: str
    category: str  # "I" integer, "S" single-precision FP, "D" double-precision
    instructions: int
    syscalls: int
    code: CodeProfile
    data: DataProfile
    seed: int = 0

    def validate(self) -> None:
        if self.instructions <= 0:
            raise ConfigurationError("instructions must be positive")
        if self.syscalls < 0:
            raise ConfigurationError("syscalls must be non-negative")
        if self.category not in ("I", "S", "D"):
            raise ConfigurationError("category must be one of I, S, D")
        self.code.validate()
        self.data.validate()

    def scaled(self, factor: float) -> "BenchmarkProfile":
        """Return a copy with instruction/syscall counts scaled by ``factor``."""
        return BenchmarkProfile(
            name=self.name,
            category=self.category,
            instructions=max(1, int(round(self.instructions * factor))),
            syscalls=max(0, int(round(self.syscalls * factor))),
            code=self.code,
            data=self.data,
            seed=self.seed,
        )


class SyntheticBenchmark:
    """Deterministic batch-by-batch trace generator for one benchmark.

    Implements the ``TraceSource`` protocol used by the scheduler: repeated
    calls to :meth:`next_batch` yield :class:`TraceBatch` objects until the
    benchmark's instruction budget is exhausted, after which ``None`` is
    returned.
    """

    def __init__(self, profile: BenchmarkProfile, batch_size: int = _DEFAULT_BATCH):
        profile.validate()
        if batch_size <= 0:
            raise ConfigurationError("batch_size must be positive")
        self.profile = profile
        self.batch_size = batch_size
        self._rng = np.random.default_rng(profile.seed)
        self._emitted = 0
        self._stream_cursor = 0
        self._warm_count = 0
        self._loop_pools = self._build_loop_pools()
        self._loop_cdf = self._build_loop_cdf()
        self._syscall_points = self._build_syscall_points()
        self._next_syscall_idx = 0

    # ------------------------------------------------------------------ setup

    def _build_loop_pools(self) -> List[List[Tuple[int, int]]]:
        """Precompute (start_pc, body_len) loop pools, one pool per phase."""
        code = self.profile.code
        region_words = code.code_words // code.phase_regions
        pools: List[List[Tuple[int, int]]] = []
        for phase in range(code.phase_regions):
            region_base = CODE_BASE + phase * region_words
            pool = []
            for _ in range(code.loops_per_phase):
                body = int(self._rng.integers(
                    max(4, code.loop_body_mean // 3), code.loop_body_mean * 2
                ))
                body = min(body, region_words)
                start = region_base + int(
                    self._rng.integers(0, max(1, region_words - body))
                )
                pool.append((start, body))
            pools.append(pool)
        return pools

    def _build_syscall_points(self) -> np.ndarray:
        """Instruction indices at which voluntary system calls occur."""
        n = self.profile.syscalls
        if n == 0:
            return np.zeros(0, dtype=np.int64)
        points = self._rng.uniform(0, self.profile.instructions, size=n)
        return np.sort(points.astype(np.int64))

    # ------------------------------------------------------- instruction side

    def _build_loop_cdf(self) -> List[float]:
        """Cumulative Zipf weights of a phase's loop pool (all pools have
        ``loops_per_phase`` loops), normalized as ``Generator.choice``
        normalizes its ``p``."""
        ranks = np.arange(1, self.profile.code.loops_per_phase + 1,
                          dtype=np.float64)
        weights = 1.0 / ranks ** 1.2
        cdf = (weights / weights.sum()).cumsum()
        cdf /= cdf[-1]
        return cdf.tolist()

    def _gen_pcs(self, want: int) -> np.ndarray:
        """Generate exactly ``want`` instruction addresses.

        Each step of the loop draws one segment: a loop of the current
        phase's pool, run for a geometric number of trips over its body,
        and sometimes a far block after it (one trip).  A loop is picked
        as ``Generator.choice(n, p=weights)`` picks it, with one
        ``random()`` draw bisected into the pool's cumulative weights, so
        the random stream is the same draw for draw.  The loop only
        records each segment's start, body and trips; the addresses are
        then built in one pass (:func:`_sawtooth`).
        """
        code = self.profile.code
        rng = self._rng
        cdf = self._loop_cdf
        starts: List[int] = []
        bodies: List[int] = []
        trips: List[int] = []
        produced = 0
        emitted_base = self._emitted
        while produced < want:
            phase = (
                (emitted_base + produced) // code.phase_length
            ) % code.phase_regions
            start, body = self._loop_pools[phase][bisect_right(cdf,
                                                               rng.random())]
            count = 1 + int(rng.geometric(1.0 / code.loop_trip_mean))
            starts.append(start)
            bodies.append(body)
            trips.append(count)
            produced += body * count
            if rng.random() < code.far_call_prob:
                far_start = CODE_BASE + int(
                    rng.integers(0, max(1, code.code_words - code.far_block_len))
                )
                if code.far_block_len > 0:
                    starts.append(far_start)
                    bodies.append(code.far_block_len)
                    trips.append(1)
                    produced += code.far_block_len
        return _sawtooth(np.array(starts, dtype=np.int64),
                         np.array(bodies, dtype=np.int64),
                         np.array(trips, dtype=np.int64), want)

    # -------------------------------------------------------------- data side

    def _gen_data(self, n: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Generate kinds, data addresses and partial flags for ``n`` instrs."""
        d = self.profile.data
        rng = self._rng
        u = rng.random(n)
        load = u < d.load_fraction
        # KIND_LOAD (1) below load_fraction, KIND_STORE (2) below the
        # store cut, KIND_NONE (0) above it: twice the store compare minus
        # the load compare.
        kinds = (u < d.load_fraction + d.store_fraction).view(np.uint8)
        del u
        kinds += kinds
        kinds -= load.view(np.uint8)
        load_idx = np.flatnonzero(load)
        store_idx = np.flatnonzero(kinds == KIND_STORE)

        addrs = np.zeros(n, dtype=np.int64)
        if len(load_idx):
            addrs[load_idx] = self._gen_addresses(len(load_idx), locality=1.0)
        if len(store_idx):
            fresh_addrs = self._gen_addresses(len(store_idx),
                                              locality=d.store_locality)
            addrs[store_idx] = self._cluster_stores(fresh_addrs)

        partial = np.zeros(n, dtype=bool)
        if d.partial_store_fraction > 0.0 and len(store_idx):
            partial_draw = rng.random(len(store_idx)) < d.partial_store_fraction
            partial[store_idx[partial_draw]] = True
        return kinds, addrs, partial

    def _cluster_stores(self, fresh_addrs: np.ndarray) -> np.ndarray:
        """Turn independent store addresses into sequential store runs.

        With probability ``store_run_q`` a store writes the word after the
        previous store; otherwise it starts a fresh run at its drawn address.
        (Successive stores in one run land in the same or the next cache
        line, which is the behaviour that rewards write-allocation.)
        """
        q = self.profile.data.store_run_q
        n = len(fresh_addrs)
        if q <= 0.0 or n == 0:
            return fresh_addrs
        starts = self._rng.random(n) >= q
        starts[0] = True
        positions = np.arange(n, dtype=np.int64)
        run_start = np.where(starts, positions, 0)
        run_start = np.maximum.accumulate(run_start)
        return fresh_addrs[run_start] + (positions - run_start)

    def _gen_addresses(self, n: int, locality: float) -> np.ndarray:
        """Draw ``n`` data addresses from the hot/warm/stream/cold mixture.

        ``locality`` scales the non-hot component probabilities (stores pass
        their profile's ``store_locality``; loads pass 1.0).
        """
        d = self.profile.data
        rng = self._rng
        comp = rng.random(n)
        hot_cut = 1.0 - (d.p_warm + d.p_stream + d.p_cold) * locality
        warm_cut = hot_cut + d.p_warm * locality
        stream_cut = warm_cut + d.p_stream * locality

        # Warm, stream and cold draws are a few percent of all: only they
        # are indexed.  The hot slots between them take the hot draws in
        # order; a mask of long true runs is cheap to assign through.
        hot_mask = comp < hot_cut
        rare = np.flatnonzero(~hot_mask)
        rare_comp = comp[rare]
        del comp
        addrs = np.empty(n, dtype=np.int64)
        n_hot = n - len(rare)
        if n_hot:
            addrs[hot_mask] = HOT_BASE + rng.integers(
                0, d.hot_words, size=n_hot, dtype=np.int64
            )

        warm = rare[rare_comp < warm_cut]
        n_warm = len(warm)
        if n_warm:
            # A window of warm_window_words that drifts warm_drift words per
            # warm access, wrapping around the warm region.
            starts = (
                (self._warm_count + np.arange(n_warm, dtype=np.float64))
                * d.warm_drift
            ).astype(np.int64)
            self._warm_count += n_warm
            offsets = rng.integers(0, d.warm_window_words, size=n_warm,
                                   dtype=np.int64)
            addrs[warm] = WARM_BASE + (starts + offsets) % d.warm_words

        stream = rare[(rare_comp >= warm_cut) & (rare_comp < stream_cut)]
        n_stream = len(stream)
        if n_stream:
            stride = d.stream_stride
            positions = (
                self._stream_cursor
                + np.arange(n_stream, dtype=np.int64) * stride
            ) % d.stream_words
            self._stream_cursor = int(
                (self._stream_cursor + n_stream * stride) % d.stream_words
            )
            addrs[stream] = STREAM_BASE + positions

        cold = rare[rare_comp >= stream_cut]
        n_cold = len(cold)
        if n_cold:
            frac = rng.random(n_cold) ** d.cold_exponent
            idx = (frac * d.cold_words).astype(np.int64)
            addrs[cold] = COLD_BASE + np.minimum(idx, d.cold_words - 1)

        return addrs

    # ------------------------------------------------------------- public API

    @property
    def instructions_remaining(self) -> int:
        """Instructions not yet emitted."""
        return self.profile.instructions - self._emitted

    @property
    def done(self) -> bool:
        """True once the benchmark's full trace has been emitted."""
        return self._emitted >= self.profile.instructions

    def next_batch(self, max_len: Optional[int] = None) -> Optional[TraceBatch]:
        """Produce the next batch of at most ``max_len`` instructions.

        Returns ``None`` when the benchmark has terminated.
        """
        check_max_len(max_len)
        if self.done:
            return None
        want = min(
            self.batch_size if max_len is None else max_len,
            self.instructions_remaining,
        )
        pcs = self._gen_pcs(want)
        kinds, addrs, partial = self._gen_data(want)
        syscall = self._syscall_flags(want)
        self._emitted += want
        return TraceBatch(
            pc=pcs, kind=kinds, addr=addrs, partial=partial, syscall=syscall
        )

    def _syscall_flags(self, want: int) -> np.ndarray:
        flags = np.zeros(want, dtype=bool)
        lo, hi = self._emitted, self._emitted + want
        points = self._syscall_points
        i = self._next_syscall_idx
        while i < len(points) and points[i] < hi:
            if points[i] >= lo:
                flags[points[i] - lo] = True
            i += 1
        self._next_syscall_idx = i
        return flags

    def reset(self) -> None:
        """Rewind the generator to reproduce the identical trace again."""
        self._rng = np.random.default_rng(self.profile.seed)
        self._emitted = 0
        self._stream_cursor = 0
        self._warm_count = 0
        self._loop_pools = self._build_loop_pools()
        self._syscall_points = self._build_syscall_points()
        self._next_syscall_idx = 0

    # ------------------------------------------------------------- robustness

    def state_dict(self) -> dict:
        """Exact snapshot of the generator's evolving state.

        Loop pools and syscall points are deterministic functions of the
        profile seed (they are drawn before any batch), so only the evolving
        state needs to travel: the raw RNG state and the cursors.  Restoring
        this snapshot into a freshly constructed generator for the same
        profile reproduces the identical remaining trace.
        """
        return {
            "rng": self._rng.bit_generator.state,
            "emitted": self._emitted,
            "stream_cursor": self._stream_cursor,
            "warm_count": self._warm_count,
            "next_syscall_idx": self._next_syscall_idx,
        }

    def load_state(self, state: dict) -> None:
        """Restore a :meth:`state_dict` snapshot (same profile required)."""
        from repro.errors import CheckpointError

        try:
            self._rng.bit_generator.state = state["rng"]
            self._emitted = int(state["emitted"])
            self._stream_cursor = int(state["stream_cursor"])
            self._warm_count = int(state["warm_count"])
            self._next_syscall_idx = int(state["next_syscall_idx"])
        except (KeyError, TypeError, ValueError) as exc:
            raise CheckpointError(
                f"malformed trace-generator snapshot: {exc}") from exc
