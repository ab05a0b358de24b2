"""Sampling variability of the reproduction's headline numbers.

The paper runs each configuration once over 2.5 billion references; at
reproduction scale the synthetic traces are short enough that seed choice
matters.  This experiment reruns the base architecture over several
re-seeded workloads and reports mean, standard deviation and range for each
headline metric — the error bars to read EXPERIMENTS.md's absolute numbers
with.  These are spreads of absolute values across seeds.  Every point of
a sweep runs the same seeds, so the other experiments compare paired
values, whose spread across seeds this experiment does not measure.
"""

from __future__ import annotations

from typing import List

from repro.analysis.repeat import repeat_simulation
from repro.experiments.common import (
    ExperimentResult,
    ExperimentScale,
    register,
    workload,
)
from repro.scenario.params import ScenarioParams


@register("variance",
          description="Sampling variability over re-seeded workloads (error bars)",
          axes=("seeds",))
def run(scale: ExperimentScale,
        params: ScenarioParams) -> ExperimentResult:
    """Base-architecture metrics over re-seeded workloads."""
    seeds = len(params.axis("seeds"))
    summaries = repeat_simulation(
        params.machine,
        workload(scale),
        seeds=seeds,
        time_slice=scale.time_slice,
        level=scale.level,
        warmup_instructions=scale.warmup_instructions(),
    )
    rows: List[List] = []
    for name, summary in summaries.items():
        rows.append([name, summary.mean, summary.std,
                     summary.low, summary.high,
                     100.0 * summary.relative_std])
    return ExperimentResult(
        experiment_id="variance",
        title=f"Metric variability over {seeds} re-seeded workloads "
              "(base architecture)",
        headers=["metric", "mean", "std", "min", "max", "CV %"],
        rows=rows,
        findings={
            "cpi_cv_percent": 100.0 * summaries["cpi"].relative_std,
            "l2_cv_percent":
                100.0 * summaries["l2_miss_ratio"].relative_std,
        },
        notes=("these are spreads of absolute values across seeds; every "
               "point of a sweep runs the same seeds, so the other "
               "experiments compare paired values"),
    )
