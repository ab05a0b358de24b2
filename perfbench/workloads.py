"""The benchmark's four workloads and the operation each one times.

Every workload resolves a committed scenario (plus overlays this
benchmark owns), generates the Table 1 suite at the scenario's scale
re-seeded from ``--seed``, and runs it through ``run_point`` /
``run_sweep`` inside a ``farm_session`` — ``repro-experiments run``
minus report rendering.  README.md says why each workload exists.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

#: The L2 access times (cycles) of the Fig. 5 axis that the sweep
#: workloads run: the base machine's own value, under all four policies.
FIG5_ACCESS_TIMES = (6,)


@dataclass(frozen=True)
class Workload:
    name: str
    #: Committed scenario, relative to the checkout root.
    scenario: str
    #: Overlays merged on top, relative to the checkout root.
    overlays: Tuple[str, ...] = ()
    #: Run the Fig. 5 policy x access-time points instead of the machine.
    sweep: bool = False
    #: Dispatch the points to one local ``repro-serve`` node.
    nodes: bool = False


WORKLOADS = {
    w.name: w for w in (
        Workload("paper_l8", "scenarios/fig4.toml"),
        Workload("short_slice", "scenarios/fig4.toml",
                 overlays=("perfbench/overlays/short_slice.toml",)),
        Workload("fig5_sweep", "scenarios/fig5.toml", sweep=True),
        Workload("fig5_nodes", "scenarios/fig5.toml", sweep=True,
                 nodes=True),
    )
}


def points_for(workload: Workload, resolved) -> List[tuple]:
    """``(label, SystemConfig)`` for every point of one operation."""
    if not workload.sweep:
        return [(resolved.machine.name, resolved.machine)]
    from repro.experiments.fig5_write_policy import config_for, policies_from

    access_times = [a for a in resolved.axes["access_times"]
                    if a in FIG5_ACCESS_TIMES]
    if not access_times:
        raise ValueError(f"{workload.scenario} sweeps none of the access "
                         f"times {FIG5_ACCESS_TIMES}")
    return [(f"{policy.value}@{access}",
             config_for(policy, access, base=resolved.machine))
            for policy in policies_from(resolved.axes["policies"])
            for access in access_times]


def run_op(points: List[tuple], profiles, scale) -> list:
    """The timed operation: every point, through the ambient session."""
    from repro.analysis.sweep import run_point, run_sweep

    kwargs = dict(time_slice=scale.time_slice, level=scale.level,
                  warmup_instructions=scale.warmup_instructions())
    if len(points) == 1:
        return [run_point(points[0][1], profiles, **kwargs)]
    return [point.stats for point in run_sweep(points, profiles, **kwargs)]
