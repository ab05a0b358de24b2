"""Scenario resolution: extends chain + overlays -> one validated object.

Resolution order (later wins)::

    base chain (scenario.extends, recursively)  <-  scenario file  <-
    overlay files, left to right

The fully merged document is validated against the real dataclasses
(:mod:`repro.scenario.schema`), canonicalized with ``scenario.extends``
stripped (the *content* identifies a scenario, not the file layout it
was assembled from), and hashed into ``scenario_sha256``.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Optional, Sequence, Tuple

from repro.core.config import SystemConfig, base_architecture
from repro.core.engine import DEFAULT_ENGINE
from repro.errors import ConfigurationError
from repro.scenario.document import deep_merge, load_document
from repro.scenario.document import scenario_sha256 as _sha256
from repro.scenario.schema import validate_document

#: Cap on ``extends`` chain depth; generous next to the base + figure
#: layout the repository ships, tight enough to fail fast on cycles that
#: evade the exact-path check (e.g. via symlinks).
_MAX_EXTENDS_DEPTH = 16


@dataclass(frozen=True)
class ResolvedScenario:
    """A scenario document after extends/overlay composition."""

    name: str
    description: str
    #: Registered experiment id this scenario drives, or ``None`` for a
    #: generic (dotted-axis) sweep.
    experiment: Optional[str]
    machine: SystemConfig
    scale: "Any"  # ExperimentScale; typed loosely to avoid an import cycle
    engine: str
    energy: Optional[str]
    sweep_mode: str
    axes: Dict[str, Tuple[Any, ...]]
    #: SHA-256 of the canonical resolved document; the identity that
    #: joins cache keys, journals, and the serve protocol.
    scenario_sha256: str
    #: The canonical resolved document itself.
    document: Dict[str, Any]
    #: What this scenario was composed *onto* (the resolved extends
    #: chain), for the ``validate`` CLI's diff; ``None`` when the file
    #: stands alone with no overlays.
    base_document: Optional[Dict[str, Any]]


def _strip_extends(doc: Dict[str, Any]) -> Dict[str, Any]:
    if "extends" not in doc.get("scenario", {}):
        return doc
    out = dict(doc)
    out["scenario"] = {k: v for k, v in doc["scenario"].items()
                       if k != "extends"}
    return out


def _resolve_chain(path: Path,
                   seen: Tuple[Path, ...] = ()) -> Tuple[Dict[str, Any],
                                                         Optional[Dict]]:
    """Load ``path`` and merge it onto its (recursive) extends base.

    Returns ``(merged, base)`` where ``base`` is the resolved parent
    chain (``None`` for a root document).
    """
    path = path.resolve()
    if path in seen:
        chain = " -> ".join(str(p) for p in (*seen, path))
        raise ConfigurationError(f"scenario extends cycle: {chain}")
    if len(seen) >= _MAX_EXTENDS_DEPTH:
        raise ConfigurationError(
            f"scenario extends chain deeper than {_MAX_EXTENDS_DEPTH} "
            f"at {path}")
    doc = load_document(path)
    extends = doc.get("scenario", {}).get("extends") \
        if isinstance(doc.get("scenario"), dict) else None
    if extends is None:
        return doc, None
    if not isinstance(extends, str):
        raise ConfigurationError(
            f"{path}: scenario.extends must be a string path")
    base_path = (path.parent / extends).resolve()
    base, _ = _resolve_chain(base_path, (*seen, path))
    return deep_merge(_strip_extends(base), _strip_extends(doc)), base


def resolve_scenario(path,
                     overlays: Sequence = ()) -> ResolvedScenario:
    """Resolve a scenario file (plus CLI overlays) into one object.

    Overlays are plain documents merged on top, left to right: files, or
    dicts already in memory (the runner's scale flags arrive as one).
    They may not themselves ``extends`` anything (composition is the
    CLI's job, not the overlay's).  The result is validated,
    canonicalized, and hashed.
    """
    path = Path(path)
    merged, chain_base = _resolve_chain(path)
    base_doc = chain_base
    for source in overlays:
        overlay = (source if isinstance(source, dict)
                   else load_document(source))
        if isinstance(overlay.get("scenario"), dict) \
                and "extends" in overlay["scenario"]:
            raise ConfigurationError(
                f"{source}: overlays may not use scenario.extends "
                "(stack multiple --overlay flags instead)")
        if base_doc is None:
            base_doc = merged  # diff overlays against the bare file
        merged = deep_merge(merged, overlay)
    doc = _strip_extends(merged)
    validate_document(doc)
    return _build(doc, base_doc and _strip_extends(base_doc))


def _build(doc: Dict[str, Any],
           base_doc: Optional[Dict[str, Any]]) -> ResolvedScenario:
    from repro.core.serialization import config_from_dict
    from repro.experiments.common import DEFAULT_SCALE, ExperimentScale

    meta = doc["scenario"]
    machine = (config_from_dict(doc["machine"], path="machine")
               if "machine" in doc else base_architecture())
    workload = doc.get("workload", {})
    scale = ExperimentScale(
        instructions_per_benchmark=workload.get(
            "instructions_per_benchmark",
            DEFAULT_SCALE.instructions_per_benchmark),
        level=workload.get("level", DEFAULT_SCALE.level),
        time_slice=workload.get("time_slice", DEFAULT_SCALE.time_slice),
        warmup_fraction=workload.get("warmup_fraction",
                                     DEFAULT_SCALE.warmup_fraction),
    )
    sweep = doc.get("sweep", {})
    axes = {name: tuple(values)
            for name, values in sweep.get("axes", {}).items()}
    return ResolvedScenario(
        name=meta["name"],
        description=meta.get("description", ""),
        experiment=meta.get("experiment"),
        machine=machine,
        scale=scale,
        engine=doc.get("engine", {}).get("name", DEFAULT_ENGINE),
        energy=doc.get("energy", {}).get("technology"),
        sweep_mode=sweep.get("mode", "product"),
        axes=axes,
        scenario_sha256=_sha256(doc),
        document=doc,
        base_document=base_doc,
    )
