"""Declarative scenario documents: machine + workload + sweep in one file.

A *scenario* is a TOML (or JSON) document that declares everything an
experiment run needs — the machine (:class:`~repro.core.config.SystemConfig`
fields), the workload scale, the simulation engine, the energy technology,
and the sweep grid — so a figure is reproduced from a committed file
instead of constants baked into a Python module.  An experiment id names
its committed scenario, so these run the same document::

    repro-experiments fig5
    repro-experiments run scenarios/fig5.toml
    repro-experiments fig5 --overlay quick.toml
    repro-experiments validate scenarios/fig5.toml

Scenarios compose: a document may ``extends`` a base file, and the CLI
may stack overlay files on top (its scale flags are one last overlay);
overlays are deep-merged left to right with an explicit
:data:`~repro.scenario.document.DELETE` sentinel for removals.  The fully
resolved document is canonicalized and hashed into ``scenario_sha256``,
which :func:`run_scenario` binds around the scenario's points: it joins
the farm's content-addressed cache key, the durable journal's run
records, and the serve wire protocol — the same scenario is
bit-identically reproducible locally, across ``--jobs``, across
``--nodes``, and across ``--journal`` resume.
"""

from repro.scenario.document import (
    DELETE,
    canonical_json,
    deep_merge,
    diff_documents,
    flatten_document,
    load_document,
    scenario_sha256,
)
from repro.scenario.params import ScenarioParams
from repro.scenario.resolve import ResolvedScenario, resolve_scenario
from repro.scenario.driver import (
    builtin_scenario_path,
    default_params,
    expand_grid,
    run_scenario,
)

__all__ = [
    "DELETE",
    "ResolvedScenario",
    "ScenarioParams",
    "builtin_scenario_path",
    "canonical_json",
    "deep_merge",
    "default_params",
    "diff_documents",
    "expand_grid",
    "flatten_document",
    "load_document",
    "resolve_scenario",
    "run_scenario",
]
