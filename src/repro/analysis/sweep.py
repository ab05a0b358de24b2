"""Parameter-sweep drivers: run one workload over many configurations.

Each sweep point builds a fresh :class:`~repro.core.simulator.Simulation`
(fresh caches, page table and trace generators) so configurations are
compared under identical, independently warmed conditions — the paper
generates a separate simulator binary per configuration for the same reason.

Execution is routed through :mod:`repro.farm`: points fan out across a
worker pool (``jobs``) and memoize into a content-addressed result cache,
while staying **bit-identical** to a serial in-process run (seeds live in
the profiles, so points are order-independent; property-tested in
``tests/test_farm_equivalence.py``).  Callers that pass nothing get the
ambient :func:`repro.farm.context.farm_session` policy, which is how
``repro-experiments --jobs 4`` reaches every experiment's inner loops
without new plumbing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.config import SystemConfig
from repro.core.engine import DEFAULT_ENGINE
from repro.core.stats import SimStats
from repro.farm.cache import ResultCache
from repro.farm.context import current_context
from repro.farm.points import PointSpec, run_points
from repro.params import DEFAULT_TIME_SLICE
from repro.trace.synthetic import BenchmarkProfile


@dataclass
class SweepPoint:
    """One configuration's outcome within a sweep."""

    label: str
    config: SystemConfig
    stats: SimStats


def _resolve(jobs: Optional[int], cache, telemetry,
             engine: Optional[str] = None,
             energy: Optional[str] = None):
    """Fill unspecified farm settings from the ambient context."""
    ctx = current_context()
    if jobs is None:
        jobs = ctx.jobs if ctx is not None else 1
    if cache is None and ctx is not None:
        cache = ctx.cache
    if telemetry is None and ctx is not None:
        telemetry = ctx.telemetry
    if engine is None:
        engine = ctx.engine if ctx is not None else DEFAULT_ENGINE
    if energy is None and ctx is not None:
        energy = ctx.energy
    dispatcher = ctx.dispatcher if ctx is not None else None
    journal = ctx.journal if ctx is not None else None
    scenario = ctx.scenario if ctx is not None else None
    return jobs, cache, telemetry, engine, energy, dispatcher, journal, \
        scenario


def run_point(config: SystemConfig, profiles: Sequence[BenchmarkProfile],
              time_slice: int = DEFAULT_TIME_SLICE,
              level: Optional[int] = None,
              warmup_instructions: int = 0,
              max_instructions: Optional[int] = None,
              cache: Optional[ResultCache] = None,
              engine: Optional[str] = None,
              energy: Optional[str] = None) -> SimStats:
    """Run one configuration over a fresh copy of the workload.

    Inside a :func:`~repro.farm.context.farm_session` (or with ``cache``
    given) the result is served from / stored into the content-addressed
    cache; otherwise this is a plain in-process simulation.  ``engine``
    and ``energy`` default to the ambient session's settings.
    """
    _, cache, telemetry, engine, energy, dispatcher, journal, scenario = \
        _resolve(1, cache, None, engine, energy)
    spec = PointSpec(label=config.name, config=config,
                     profiles=tuple(profiles), time_slice=time_slice,
                     level=level, warmup_instructions=warmup_instructions,
                     max_instructions=max_instructions, engine=engine,
                     energy=energy, scenario=scenario)
    return run_points([spec], jobs=1, cache=cache, telemetry=telemetry,
                      dispatcher=dispatcher, journal=journal)[0]


def run_sweep(configs: Sequence[Tuple[str, SystemConfig]],
              profiles: Sequence[BenchmarkProfile],
              time_slice: int = DEFAULT_TIME_SLICE,
              level: Optional[int] = None,
              warmup_instructions: int = 0,
              max_instructions: Optional[int] = None,
              jobs: Optional[int] = None,
              cache: Optional[ResultCache] = None,
              telemetry=None,
              engine: Optional[str] = None,
              energy: Optional[str] = None) -> List[SweepPoint]:
    """Run every labeled configuration; returns points in input order.

    Args:
        jobs: worker processes for uncached points (``None`` = ambient
            farm session's setting, else 1).
        cache: content-addressed result cache (``None`` = ambient).
        telemetry: per-point event sink (``None`` = ambient).
        engine: simulation engine for every point (``None`` = ambient
            farm session's engine, else the default engine).
        energy: energy technology for every point (``None`` = ambient
            farm session's setting, else disabled).
    """
    jobs, cache, telemetry, engine, energy, dispatcher, journal, scenario = \
        _resolve(jobs, cache, telemetry, engine, energy)
    specs = [
        PointSpec(label=label, config=config, profiles=tuple(profiles),
                  time_slice=time_slice, level=level,
                  warmup_instructions=warmup_instructions,
                  max_instructions=max_instructions, engine=engine,
                  energy=energy, scenario=scenario)
        for label, config in configs
    ]
    stats_list = run_points(specs, jobs=jobs, cache=cache,
                            telemetry=telemetry, dispatcher=dispatcher,
                            journal=journal)
    return [SweepPoint(label=label, config=config, stats=stats)
            for (label, config), stats in zip(configs, stats_list)]


def stats_by_label(points: Sequence[SweepPoint]) -> Dict[str, SimStats]:
    """Index sweep results by label."""
    return {point.label: point.stats for point in points}
