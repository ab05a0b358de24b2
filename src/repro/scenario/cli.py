"""The ``repro-experiments validate`` subcommand.

``validate`` resolves and checks a scenario without simulating anything,
printing the effective-config diff against its base and the hash the
farm/journal/serve layers will see.  Running a scenario is the
experiments runner's job (:func:`repro.experiments.runner.main`), which
routes ``validate`` here, so it inherits the runner's
:func:`~repro.errors.cli_errors` behaviour — schema problems are one
:class:`~repro.errors.ConfigurationError` line on stderr and a non-zero
exit, never a traceback.
"""

from __future__ import annotations

import argparse
from pathlib import Path
from typing import List, Optional

from repro.scenario.document import diff_documents
from repro.scenario.driver import bind_experiment, generic_points
from repro.scenario.resolve import ResolvedScenario, resolve_scenario


def build_validate_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-experiments validate",
        description="Resolve and check a scenario without running it.")
    parser.add_argument("scenario", type=Path,
                        help="scenario file (.toml or .json)")
    parser.add_argument("--overlay", type=Path, action="append",
                        default=[], metavar="FILE",
                        help="overlay file merged on top (repeatable; "
                             "later overlays win)")
    return parser


def _describe(resolved: ResolvedScenario) -> List[str]:
    lines = [f"scenario: {resolved.name}"]
    if resolved.description:
        lines.append(f"description: {resolved.description}")
    lines.append(f"experiment: {resolved.experiment or '(generic sweep)'}")
    lines.append(f"engine: {resolved.engine}")
    if resolved.energy is not None:
        lines.append(f"energy: {resolved.energy}")
    scale = resolved.scale
    lines.append(
        f"workload: {scale.instructions_per_benchmark:,} instr/bench, "
        f"level {scale.level}, slice {scale.time_slice:,}, "
        f"warmup {scale.warmup_fraction}")
    if resolved.axes:
        axes = ", ".join(f"{name}[{len(values)}]"
                         for name, values in resolved.axes.items())
        lines.append(f"sweep: {resolved.sweep_mode} over {axes}")
    lines.append(f"scenario_sha256: {resolved.scenario_sha256}")
    return lines


def cmd_validate(argv: Optional[List[str]] = None) -> int:
    """``repro-experiments validate <scenario> [--overlay FILE ...]``."""
    args = build_validate_parser().parse_args(argv)
    resolved = resolve_scenario(args.scenario, args.overlay)
    # The checks a run makes before it simulates anything, so a validate
    # pass means the run will start.
    if resolved.experiment is None:
        generic_points(resolved)
    else:
        bind_experiment(resolved)
    for line in _describe(resolved):
        print(line)
    if resolved.base_document is not None:
        diff = diff_documents(resolved.base_document, resolved.document)
        print(f"diff vs base ({len(diff)} change"
              f"{'' if len(diff) == 1 else 's'}):")
        for line in diff:
            print(f"  {line}")
    else:
        print("diff vs base: (standalone document; no extends or "
              "overlays)")
    print("ok")
    return 0
