"""Experiments regenerating every table and figure of the paper's evaluation.

Each module reproduces one artifact; the mapping is recorded in DESIGN.md's
per-experiment index.  Run them via::

    python -m repro.experiments --list
    python -m repro.experiments fig5 fig6

or programmatically::

    from repro.experiments import run_experiment
    result = run_experiment("fig4")
    print(result.render())
"""

from repro.experiments.common import (
    BENCH_SCALE,
    DEFAULT_SCALE,
    REGISTRY,
    ExperimentResult,
    ExperimentScale,
    run_system,
    workload,
)


def run_experiment(experiment_id: str,
                   scale: ExperimentScale = DEFAULT_SCALE) -> ExperimentResult:
    """Run one experiment by id (see ``REGISTRY`` for the list).

    This is the committed scenario with a ``[workload]`` overlay for
    ``scale``, so at the default scale its points share the cache keys
    of ``repro-experiments <id>``.
    """
    from dataclasses import asdict

    # Populate the registry on demand.
    from repro.experiments import runner  # noqa: F401
    from repro.scenario import (builtin_scenario_path, resolve_scenario,
                                run_scenario)

    if experiment_id not in REGISTRY:
        raise KeyError(
            f"unknown experiment {experiment_id!r}; "
            f"available: {', '.join(sorted(REGISTRY))}"
        )
    return run_scenario(resolve_scenario(builtin_scenario_path(experiment_id),
                                         [{"workload": asdict(scale)}]))


def experiment_registry():
    """A read-only, fully populated view of the experiment registry
    (id -> runner callable)."""
    # Importing the runner imports every experiment module, which registers.
    from repro.experiments import runner  # noqa: F401
    from repro.experiments.common import experiment_registry as _view

    return _view()


def experiment_descriptions():
    """A read-only, fully populated view of the per-experiment one-line
    descriptions (id -> text)."""
    from repro.experiments import runner  # noqa: F401
    from repro.experiments.common import experiment_descriptions as _view

    return _view()


__all__ = [
    "BENCH_SCALE",
    "DEFAULT_SCALE",
    "REGISTRY",
    "ExperimentResult",
    "ExperimentScale",
    "experiment_descriptions",
    "experiment_registry",
    "run_experiment",
    "run_system",
    "workload",
]
