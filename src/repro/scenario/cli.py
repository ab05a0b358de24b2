"""The ``repro-experiments run`` / ``validate`` subcommands.

``run`` executes one scenario file (plus overlays) through the generic
driver inside a farm session bound to the scenario's ``scenario_sha256``,
with its sweep points fanned out by :func:`~repro.farm.context.render_all`;
``validate`` resolves and checks a scenario without simulating anything,
printing the effective-config diff against its base and the hash the
farm/journal/serve layers will see.  Both are routed from
:func:`repro.experiments.runner.main`, so they inherit its
:func:`~repro.errors.cli_errors` behaviour — schema problems are one
:class:`~repro.errors.ConfigurationError` line on stderr and a non-zero
exit, never a traceback.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path
from typing import List, Optional

from repro.farm.context import farm_session, render_all
from repro.farm.telemetry import RunTelemetry
from repro.robust.atomic import atomic_write_text
from repro.scenario.document import diff_documents
from repro.scenario.driver import run_scenario
from repro.scenario.resolve import ResolvedScenario, resolve_scenario


def _scenario_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("scenario", type=Path,
                        help="scenario file (.toml or .json)")
    parser.add_argument("--overlay", type=Path, action="append",
                        default=[], metavar="FILE",
                        help="overlay file merged on top (repeatable; "
                             "later overlays win)")


def build_run_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-experiments run",
        description="Run one scenario file through the generic driver.")
    _scenario_args(parser)
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker processes for the scenario's sweep "
                             "points (default %(default)s; results are "
                             "identical at any value)")
    parser.add_argument("--nodes", type=str, default=None,
                        metavar="URL[,URL...]",
                        help="distribute sweep points over these "
                             "repro-serve backends (comma-separated)")
    parser.add_argument("--cache-dir", type=Path, default=None,
                        help="content-addressed result cache root")
    parser.add_argument("--no-cache", action="store_true",
                        help="disable the sweep-point result cache")
    parser.add_argument("--journal", type=Path, default=None, metavar="DIR",
                        help="write-ahead run journal directory "
                             "(crash-resumable exactly-once; needs the "
                             "cache)")
    parser.add_argument("--out", type=Path, default=None,
                        help="directory to also write the report")
    parser.add_argument("--chart", action="store_true",
                        help="draw an ASCII chart of the result")
    parser.add_argument("--manifest", type=Path, default=None,
                        help="write run telemetry to this JSON file")
    return parser


def build_validate_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-experiments validate",
        description="Resolve and check a scenario without running it.")
    _scenario_args(parser)
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
    if resolved.experiment is not None:
        # Check axes against the experiment's declaration too, exactly
        # as `run` would — a validate pass must mean the run will start.
        from repro.scenario.driver import bind_params

        import repro.experiments.runner  # noqa: F401  (fills REGISTRY)

        bind_params(resolved, resolved.experiment)
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


def cmd_run(argv: Optional[List[str]] = None) -> int:
    """``repro-experiments run <scenario> [--overlay FILE ...]``."""
    from repro.experiments.runner import clamp_jobs, render_report

    args = build_run_parser().parse_args(argv)
    resolved = resolve_scenario(args.scenario, args.overlay)
    if args.journal is not None and args.no_cache:
        print("--journal requires the result cache (drop --no-cache)",
              file=sys.stderr)
        return 2
    if args.jobs < 1:
        print("--jobs must be >= 1", file=sys.stderr)
        return 2
    jobs, clamp_warning = clamp_jobs(args.jobs)
    if clamp_warning is not None:
        print(f"[warning: {clamp_warning}]", file=sys.stderr)
    nodes = None
    if args.nodes:
        nodes = [u.strip() for u in args.nodes.split(",") if u.strip()]
        if not nodes:
            print("--nodes needs at least one backend URL",
                  file=sys.stderr)
            return 2
    telemetry = RunTelemetry()
    started = time.time()
    with farm_session(jobs=jobs, cache_dir=args.cache_dir,
                      no_cache=args.no_cache, telemetry=telemetry,
                      nodes=nodes, journal=args.journal,
                      engine=resolved.engine, energy=resolved.energy,
                      scenario=resolved.scenario_sha256):
        result = render_all([lambda: run_scenario(resolved)])[0]
    report = render_report(result, args.chart)
    print(report)
    print(f"[{resolved.name} completed in {time.time() - started:.1f}s]\n")
    if args.out is not None:
        args.out.mkdir(parents=True, exist_ok=True)
        atomic_write_text(args.out / f"{resolved.name}.txt", report + "\n")
    print(f"[farm: {telemetry.format_summary()}]")
    if args.manifest is not None:
        telemetry.write_manifest(args.manifest)
    return 0
