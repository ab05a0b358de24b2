"""Shared experiment infrastructure: scale, workload, result container.

Every experiment runs the Table 1 workload at multiprogramming level 8
unless the experiment itself sweeps that value (the paper's choice,
Section 3).  The paper simulates ~2.5 billion references with a
500,000-cycle time slice; the default reproduction scale is a few million
references with the slice scaled down proportionally (see
:class:`ExperimentScale.time_slice`) so a full figure regenerates in
seconds-to-minutes — raise ``instructions_per_benchmark`` and ``time_slice``
together to close the gap.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.config import SystemConfig
from repro.core.stats import SimStats
from repro.analysis.sweep import run_point
from repro.params import DEFAULT_MULTIPROGRAMMING_LEVEL
from repro.trace.benchmarks import default_suite, replicate_suite
from repro.trace.synthetic import BenchmarkProfile


@dataclass(frozen=True)
class ExperimentScale:
    """How big a reproduction run is.

    Attributes:
        instructions_per_benchmark: synthetic trace length per process.
        level: multiprogramming level (processes running concurrently).
        time_slice: scheduler slice in cycles.
        warmup_fraction: leading fraction of the run excluded from statistics
            (cache state is kept; only counters reset).  The paper's traces
            are long enough not to need this.
    """

    instructions_per_benchmark: int = 400_000
    level: int = DEFAULT_MULTIPROGRAMMING_LEVEL
    #: The paper's slice is 500,000 cycles against ~250M-cycle benchmarks —
    #: roughly 500 slices per process.  Reproduction traces are ~500x
    #: shorter, so the default slice is scaled down (keeping it far above
    #: the largest miss penalty) to preserve the multiprogrammed
    #: interleaving regime; experiments that sweep the slice (Fig. 3) pass
    #: their own values.
    time_slice: int = 100_000
    warmup_fraction: float = 0.4

    def warmup_instructions(self, level: Optional[int] = None) -> int:
        """Total warmup instructions for a given level."""
        n = level if level is not None else self.level
        return int(self.instructions_per_benchmark * n * self.warmup_fraction)


#: Scale used by the pytest-benchmark harness: small enough for CI.
BENCH_SCALE = ExperimentScale(instructions_per_benchmark=120_000, level=8,
                              time_slice=30_000)

#: Default scale for interactive / EXPERIMENTS.md runs.
DEFAULT_SCALE = ExperimentScale()


def workload(scale: ExperimentScale,
             level: Optional[int] = None) -> List[BenchmarkProfile]:
    """The benchmark mix for a scale: exactly ``level`` processes.

    The suite is truncated (or seed-replicated, for levels above the suite
    size) to the multiprogramming level so that every process is resident
    from the start of the run; late-admitted cold processes would otherwise
    dominate short runs with compulsory misses.
    """
    n = level if level is not None else scale.level
    suite = default_suite(scale.instructions_per_benchmark)
    if n <= len(suite):
        return suite[:n]
    return replicate_suite(suite, n)


def run_system(config: SystemConfig, scale: ExperimentScale,
               level: Optional[int] = None,
               time_slice: Optional[int] = None,
               energy: Optional[str] = None) -> SimStats:
    """Run one configuration at a scale; returns its statistics.

    ``energy`` selects an energy technology
    (:data:`repro.energy.ENERGY_TECHNOLOGIES`) for per-event accounting;
    ``None`` defers to the ambient farm session (usually disabled).
    """
    n = level if level is not None else scale.level
    return run_point(
        config,
        workload(scale, n),
        time_slice=time_slice if time_slice is not None else scale.time_slice,
        level=n,
        warmup_instructions=scale.warmup_instructions(n),
        energy=energy,
    )


@dataclass
class ExperimentResult:
    """The reproduced artifact for one table or figure."""

    experiment_id: str
    title: str
    headers: Sequence[str]
    rows: List[Sequence]
    notes: str = ""
    extra_text: str = ""
    #: Arbitrary scalar findings (crossovers, improvements) for tests/docs.
    findings: Dict[str, float] = field(default_factory=dict)

    def render(self) -> str:
        """Human-readable report."""
        from repro.analysis.tables import format_table

        parts = [f"== {self.experiment_id}: {self.title} =="]
        if self.rows:
            parts.append(format_table(self.headers, self.rows))
        if self.extra_text:
            parts.append(self.extra_text)
        if self.findings:
            parts.append("findings:")
            for key, value in self.findings.items():
                parts.append(f"  {key} = {value:.4f}"
                             if isinstance(value, float) else
                             f"  {key} = {value}")
        if self.notes:
            parts.append(f"notes: {self.notes}")
        return "\n".join(parts)


#: Registry of experiment ids to runner callables, populated by the modules.
REGISTRY: Dict[str, Callable[..., ExperimentResult]] = {}

#: One-line description per experiment id (``--list`` prints these).
DESCRIPTIONS: Dict[str, str] = {}

#: Sweep axes each experiment consumes from its scenario document
#: (id -> axis names); :func:`repro.scenario.driver.bind_params` checks a
#: scenario's declared axes against this before the experiment runs.
EXPERIMENT_AXES: Dict[str, Tuple[str, ...]] = {}


def register(experiment_id: str, description: str = "",
             axes: Sequence[str] = ()):
    """Decorator adding an experiment's ``run`` function to the registry.

    The function takes ``(scale, params)`` where ``params`` is a
    :class:`~repro.scenario.params.ScenarioParams` carrying the base
    machine and the named sweep axes from a scenario document.  It is
    registered as it is: :func:`repro.scenario.run_scenario` binds a
    resolved document's params and identity, and calls it.

    Args:
        experiment_id: the CLI id (``fig5``, ``table1``, ...), which also
            names its committed scenario (``scenarios/<id>.toml``).
        description: one-line summary shown by ``--list``; defaults to the
            first line of the function's docstring.
        axes: sweep axis names the experiment reads via ``params.axis``;
            scenarios must declare exactly these.
    """

    def wrap(fn: Callable[..., ExperimentResult]):
        REGISTRY[experiment_id] = fn
        EXPERIMENT_AXES[experiment_id] = tuple(axes)
        doc_line = (fn.__doc__ or "").strip().splitlines()
        DESCRIPTIONS[experiment_id] = (description
                                       or (doc_line[0] if doc_line else ""))
        return fn

    return wrap


def experiment_registry() -> Dict[str, Callable[..., ExperimentResult]]:
    """A read-only view of the experiment registry.

    Note: the registry fills as experiment modules import; use
    :func:`repro.experiments.experiment_registry` for a view that is
    guaranteed fully populated.
    """
    from types import MappingProxyType

    return MappingProxyType(REGISTRY)


def experiment_descriptions() -> Dict[str, str]:
    """A read-only view of the per-experiment one-line descriptions."""
    from types import MappingProxyType

    return MappingProxyType(DESCRIPTIONS)
