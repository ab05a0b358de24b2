"""Run a resolved scenario: bind it to an experiment, or sweep generically.

Two execution shapes:

* ``scenario.experiment = "fig5"`` — the document drives a *registered*
  experiment.  :func:`bind_params` checks the declared sweep axes
  against what the experiment's ``@register(axes=...)`` promised, and
  the experiment function receives a
  :class:`~repro.scenario.params.ScenarioParams`.
* no ``experiment`` key — a *generic* sweep: every axis name is a dotted
  document path (``machine.dcache.size_kw``, ``workload.level``) and
  the grid is expanded point by point over the base document.

An experiment id names its committed scenario
(:func:`builtin_scenario_path`): ``repro-experiments fig5`` runs
``scenarios/fig5.toml`` through :func:`run_scenario`, the one run body
every spelling shares.
"""

from __future__ import annotations

import itertools
from pathlib import Path
from typing import Any, Callable, Dict, List, Tuple

from repro.core.serialization import did_you_mean
from repro.errors import ConfigurationError
from repro.scenario.params import ScenarioParams
from repro.scenario.resolve import ResolvedScenario, resolve_scenario
from repro.scenario.schema import validate_document


def builtin_scenario_path(experiment_id: str) -> Path:
    """The committed scenario file for a registered experiment."""
    return (Path(__file__).resolve().parents[3] / "scenarios"
            / f"{experiment_id}.toml")


def default_params(experiment_id: str) -> ScenarioParams:
    """The bound params of an experiment's committed scenario."""
    return bind_params(resolve_scenario(builtin_scenario_path(experiment_id)),
                       experiment_id)


def bind_params(resolved: ResolvedScenario,
                experiment_id: str) -> ScenarioParams:
    """Check a scenario's axes against an experiment's declaration.

    The experiment's ``@register(axes=...)`` names the axes it consumes;
    the scenario must declare exactly those — a missing axis would crash
    mid-run, an extra one would be silently ignored (the worst failure
    mode for a config file), so both are errors here, up front.
    """
    from repro.experiments.common import EXPERIMENT_AXES

    expected = set(EXPERIMENT_AXES.get(experiment_id, ()))
    declared = set(resolved.axes)
    # Report unknown axes before missing ones: a typo'd axis name produces
    # both, and the did-you-mean suggestion is the actionable message.
    unknown = declared - expected
    if unknown:
        first = sorted(unknown)[0]
        raise ConfigurationError(
            f"scenario {resolved.name!r} declares sweep axes unknown to "
            f"experiment {experiment_id!r}: {', '.join(sorted(unknown))}"
            f"{did_you_mean(first, expected)}; expected axes: "
            f"{', '.join(sorted(expected)) or 'none'}")
    missing = expected - declared
    if missing:
        raise ConfigurationError(
            f"scenario {resolved.name!r} is missing sweep axes required "
            f"by experiment {experiment_id!r}: "
            f"{', '.join(sorted(missing))}")
    return ScenarioParams(machine=resolved.machine, axes=dict(resolved.axes))


def expand_grid(axes: Dict[str, Tuple[Any, ...]],
                mode: str = "product") -> List[Dict[str, Any]]:
    """Expand named axes into grid points, in declaration order.

    ``product`` crosses every axis (first axis outermost); ``zip`` walks
    them in lockstep (equal lengths enforced at validation).
    """
    if not axes:
        return []
    names = list(axes)
    if mode == "zip":
        lengths = {len(values) for values in axes.values()}
        if len(lengths) > 1:
            raise ConfigurationError(
                "zip sweep needs equal-length axes")
        return [dict(zip(names, combo))
                for combo in zip(*(axes[n] for n in names))]
    return [dict(zip(names, combo))
            for combo in itertools.product(*(axes[n] for n in names))]


def _set_path(doc: Dict[str, Any], dotted: str, value: Any) -> None:
    parts = dotted.split(".")
    node = doc
    for part in parts[:-1]:
        node = node.setdefault(part, {})
        if not isinstance(node, dict):
            raise ConfigurationError(
                f"sweep axis {dotted!r} descends through non-table "
                f"key {part!r}")
    node[parts[-1]] = value


def generic_points(resolved: ResolvedScenario
                   ) -> List[Tuple[Dict[str, Any], ResolvedScenario]]:
    """Build every point of a generic sweep without running it.

    Returns ``(assignment, point)`` pairs in grid order, each point the
    base document with its axis values set, validated and resolved; so a
    bad axis fails here, for ``validate`` and ``run`` alike.
    """
    import copy

    from repro.scenario.resolve import _build

    for name in resolved.axes:
        root = name.split(".", 1)[0]
        if root not in ("machine", "workload"):
            raise ConfigurationError(
                f"generic sweep axis {name!r} must start with 'machine.' "
                "or 'workload.' (or set scenario.experiment to drive a "
                "registered experiment)")
    points = []
    for assignment in expand_grid(resolved.axes, resolved.sweep_mode) or [{}]:
        doc = copy.deepcopy(resolved.document)
        for dotted, value in assignment.items():
            _set_path(doc, dotted, value)
        validate_document(doc)
        points.append((assignment, _build(doc, None)))
    return points


def _generic_sweep(resolved: ResolvedScenario):
    """Sweep dotted-path axes over the base document, one run per point."""
    from repro.experiments.common import ExperimentResult, run_system

    headers = [*resolved.axes, "CPI", "memory CPI"]
    rows: List[List[Any]] = []
    for assignment, point in generic_points(resolved):
        stats = run_system(point.machine, point.scale)
        cpi = stats.cpi(point.machine.cpu_stall_cpi)
        rows.append([*assignment.values(), round(cpi, 3),
                     round(stats.memory_cpi, 3)])
    return ExperimentResult(
        experiment_id=resolved.name,
        title=resolved.description or "scenario sweep",
        headers=headers,
        rows=rows,
        notes=f"generic sweep over {', '.join(resolved.axes) or 'nothing'} "
              f"({resolved.sweep_mode} mode)",
    )


def bind_experiment(resolved: ResolvedScenario
                    ) -> Tuple[Callable[..., Any], ScenarioParams]:
    """The registered experiment a scenario drives, and its bound params."""
    from repro.experiments import experiment_registry

    registry = experiment_registry()
    if resolved.experiment not in registry:
        raise ConfigurationError(
            f"scenario {resolved.name!r} names unknown experiment "
            f"{resolved.experiment!r}"
            f"{did_you_mean(resolved.experiment, registry)}; "
            f"available: {', '.join(sorted(registry))}")
    return (registry[resolved.experiment],
            bind_params(resolved, resolved.experiment))


def run_scenario(resolved: ResolvedScenario):
    """Execute a resolved scenario; returns an ``ExperimentResult``.

    Every point it runs is bound to the scenario's ``scenario_sha256``,
    engine and energy technology, and the workload scale is the
    document's.  The caller owns the surrounding
    :func:`~repro.farm.context.farm_session` (jobs, cache, nodes,
    journal); this function only decides *what* to run.
    """
    from repro.farm.context import scenario_scope

    with scenario_scope(resolved.scenario_sha256, resolved.engine,
                        resolved.energy):
        if resolved.experiment is None:
            return _generic_sweep(resolved)
        run, params = bind_experiment(resolved)
        return run(resolved.scale, params)
