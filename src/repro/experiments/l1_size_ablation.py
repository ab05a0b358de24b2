"""Section 5 ablation: primary cache size and associativity.

The paper argues — without a figure — that the L1 caches should stay at
4 KW direct-mapped: the page size caps a virtually-indexed L1-D at 4 KW,
and although an 8 KW L1-I (or an associative L1-D) would lower the miss
ratio, the extra SRAMs, loading and address translation raise the access
time enough to nullify the gain.

This ablation supplies the simulation-visible half of that argument: L1
miss ratios versus size and associativity, measured over a
multiprogrammed trace slice by a NumPy model of standalone direct-mapped
and 2-way true-LRU caches (it counts the misses
:class:`repro.core.cache.Cache` would; the tests check it against
``Cache``), plus the *break-even cycle-time stretch*: how much the
machine's cycle time could afford to grow before the miss-ratio gain is
nullified, assuming the whole 6-cycle L1 miss penalty scales with the
cycle.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.core.cache import Cache
from repro.errors import ConfigurationError
from repro.experiments.common import ExperimentResult, ExperimentScale, register
from repro.mmu.page_table import PageTable
from repro.params import log2i
from repro.scenario.params import ScenarioParams
from repro.trace.benchmarks import default_suite
from repro.trace.record import KIND_NONE
from repro.trace.synthetic import SyntheticBenchmark

_LINE_WORDS = 4
_CHUNK = 50_000  # instructions per process before rotating (mimics slices)


def lru_miss_ratio(lines: np.ndarray, sets: int, ways: int) -> float:
    """Miss ratio of a true-LRU cache of ``sets`` sets and 1 or 2 ways,
    cold at the start, over a stream of line addresses (set = line mod
    ``sets``).

    Within a set, an access that repeats the set's previous line hits (it
    is the MRU line).  Of the rest, direct-mapped sets miss every one; a
    2-way set hits exactly when the remaining access two places back in
    its set is the same line, the only other line the set can hold.
    """
    order = np.argsort(lines & (sets - 1), kind="stable")
    by_set = lines[order]
    fresh = np.ones(len(by_set), dtype=bool)
    fresh[1:] = by_set[1:] != by_set[:-1]
    remaining = by_set[fresh]
    misses = len(remaining)
    if ways == 2:
        misses -= int(np.count_nonzero(remaining[2:] == remaining[:-2]))
    return misses / len(lines) if len(lines) else 0.0


def _measure(scale: ExperimentScale, sizes_kw: Sequence[int],
             ways_axis: Sequence[int]
             ) -> Dict[Tuple[int, int], Tuple[float, float]]:
    """Replay an interleaved multiprogrammed trace through standalone L1s.

    Returns {(size_kw, ways): (icache_miss_ratio, dcache_miss_ratio)}.
    """
    for ways in ways_axis:
        if ways not in (1, 2):
            raise ConfigurationError(
                f"the l1size ways axis takes 1 (direct-mapped) or 2 "
                f"(2-way LRU), got {ways}")
    profiles = default_suite(scale.instructions_per_benchmark)[:4]
    page_table = PageTable()
    shift = log2i(_LINE_WORDS)
    sources = [SyntheticBenchmark(p, batch_size=_CHUNK) for p in profiles]
    ichunks: List[np.ndarray] = []
    dchunks: List[np.ndarray] = []
    active = list(range(len(sources)))
    position = 0
    while active:
        index = active[position % len(active)]
        batch = sources[index].next_batch(_CHUNK)
        if batch is None:
            active.remove(index)
            continue
        position += 1
        pid = index + 1
        pcs = page_table.translate_batch(pid, batch.pc)
        addrs = page_table.translate_batch(pid, batch.addr)
        ichunks.append(pcs >> shift)
        dchunks.append((addrs >> shift)[batch.kind != KIND_NONE])
    ilines = np.concatenate(ichunks)
    dlines = np.concatenate(dchunks)
    ratios = {}
    for size_kw in sizes_kw:
        for ways in ways_axis:
            sets = Cache(size_kw * 1024, _LINE_WORDS, ways).sets
            ratios[(size_kw, ways)] = (lru_miss_ratio(ilines, sets, ways),
                                       lru_miss_ratio(dlines, sets, ways))
    return ratios


@register("l1size",
          description="Section 5: L1 size/associativity ablation",
          axes=("sizes_kw", "ways"))
def run(scale: ExperimentScale,
        params: ScenarioParams) -> ExperimentResult:
    """Run the L1 size/associativity ablation."""
    sizes_kw = params.axis("sizes_kw")
    ways_axis = params.axis("ways")
    ratios = _measure(scale, sizes_kw, ways_axis)
    rows: List[List] = []
    for size_kw in sizes_kw:
        for ways in ways_axis:
            imr, dmr = ratios[(size_kw, ways)]
            rows.append([f"{size_kw}K", ways, imr, dmr])
    base_imr, base_dmr = ratios[(4, 1)]
    big_imr, big_dmr = ratios[(8, 1)]
    assoc_imr, assoc_dmr = ratios[(4, 2)]
    # Break-even: an L1 miss costs ~6 cycles; the CPI saved by the better
    # cache is Δmr x 6 per reference stream.  Expressed as the fraction of
    # the ~1.6 base CPI the cycle time could stretch before the gain is gone.
    penalty = 6.0
    base_cpi = 1.6
    findings = {
        "imr_4K_direct": base_imr,
        "imr_gain_8K": base_imr - big_imr,
        "dmr_4K_direct": base_dmr,
        "dmr_gain_2way": base_dmr - assoc_dmr,
        "breakeven_cycle_stretch_8K_icache":
            (base_imr - big_imr) * penalty / base_cpi,
        "breakeven_cycle_stretch_2way_dcache":
            (base_dmr - assoc_dmr) * penalty / base_cpi,
    }
    return ExperimentResult(
        experiment_id="l1size",
        title="L1 size/associativity ablation (Section 5)",
        headers=["size", "ways", "L1-I miss ratio", "L1-D miss ratio"],
        rows=rows,
        findings=findings,
        notes=("paper: doubling L1-I or making L1-D associative lowers miss "
               "ratios, but the required access-time increase (extra SRAMs, "
               "translation, off-MMU tags nearly doubling cycle time) "
               "nullifies the gain; the break-even stretches above are tiny "
               "next to those costs"),
    )
