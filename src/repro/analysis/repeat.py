"""Multi-seed repetition: how stable are the reproduction's numbers?

The synthetic workload is deterministic per seed; re-seeding the suite
yields statistically equivalent but distinct traces.  Running a
configuration over several seeds gives the sampling variability of every
reported metric — the error bars the paper (single long traces) did not
need but short reproduction runs do.

Usage::

    summary = repeat_simulation(base_architecture(), profiles, seeds=5)
    print(summary["cpi"].mean, summary["cpi"].std)
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional, Sequence

from repro.core.config import SystemConfig
from repro.core.stats import SimStats
from repro.params import DEFAULT_TIME_SLICE
from repro.trace.synthetic import BenchmarkProfile

#: The metrics summarized by default: name -> extractor.
DEFAULT_METRICS: Dict[str, Callable[[SimStats], float]] = {
    "cpi": lambda s: s.cpi(),
    "memory_cpi": lambda s: s.memory_cpi,
    "l1i_miss_ratio": lambda s: s.l1i_miss_ratio,
    "l1d_miss_ratio": lambda s: s.l1d_miss_ratio,
    "l2_miss_ratio": lambda s: s.l2_miss_ratio,
}


@dataclass(frozen=True)
class MetricSummary:
    """Mean / spread of one metric over repeated runs."""

    name: str
    samples: Sequence[float]

    @property
    def mean(self) -> float:
        return sum(self.samples) / len(self.samples)

    @property
    def std(self) -> float:
        """Sample standard deviation (0 for a single run)."""
        n = len(self.samples)
        if n < 2:
            return 0.0
        mu = self.mean
        return math.sqrt(sum((x - mu) ** 2 for x in self.samples) / (n - 1))

    @property
    def relative_std(self) -> float:
        """Coefficient of variation (std / mean)."""
        mu = self.mean
        return self.std / mu if mu else 0.0

    @property
    def low(self) -> float:
        return min(self.samples)

    @property
    def high(self) -> float:
        return max(self.samples)


def reseed_profiles(profiles: Sequence[BenchmarkProfile],
                    offset: int) -> List[BenchmarkProfile]:
    """A statistically equivalent suite with shifted seeds."""
    return [replace(profile, seed=profile.seed + 7919 * offset)
            for profile in profiles]


def repeat_simulation(config: SystemConfig,
                      profiles: Sequence[BenchmarkProfile],
                      seeds: int = 3,
                      time_slice: int = DEFAULT_TIME_SLICE,
                      level: Optional[int] = None,
                      warmup_instructions: int = 0,
                      metrics: Optional[Dict[str, Callable]] = None,
                      jobs: Optional[int] = None
                      ) -> Dict[str, MetricSummary]:
    """Run a configuration over ``seeds`` re-seeded workloads.

    The repetitions are independent sweep points, so they fan out across
    the farm (``jobs`` workers, ambient
    :func:`~repro.farm.context.farm_session` by default) and memoize into
    the active result cache.

    Returns:
        ``{metric_name: MetricSummary}`` for each requested metric.
    """
    from repro.analysis.sweep import _resolve
    from repro.farm.points import PointSpec, run_points

    if seeds < 1:
        raise ValueError("seeds must be >= 1")
    chosen = metrics if metrics is not None else DEFAULT_METRICS
    jobs, cache, telemetry, engine, energy, dispatcher, journal, scenario = \
        _resolve(jobs, None, None)
    specs = [
        PointSpec(label=f"{config.name}/seed{offset}", config=config,
                  profiles=tuple(reseed_profiles(profiles, offset)),
                  time_slice=time_slice, level=level,
                  warmup_instructions=warmup_instructions, engine=engine,
                  energy=energy, scenario=scenario)
        for offset in range(seeds)
    ]
    stats_list = run_points(specs, jobs=jobs, cache=cache,
                            telemetry=telemetry, dispatcher=dispatcher,
                            journal=journal)
    samples: Dict[str, List[float]] = {
        name: [extract(stats) for stats in stats_list]
        for name, extract in chosen.items()
    }
    return {name: MetricSummary(name=name, samples=tuple(values))
            for name, values in samples.items()}
