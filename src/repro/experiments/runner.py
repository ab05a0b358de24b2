"""Command-line entry point for the experiments.

Usage::

    python -m repro.experiments --list
    python -m repro.experiments fig5
    python -m repro.experiments all --instructions 1000000
    repro-experiments all --jobs 4 --out results/      # parallel + cached
    repro-experiments fig6 --level 8 --out results/
    repro-experiments scenarios/fig5.toml --overlay tiny.toml
    repro-experiments run scenarios/fig5.toml          # same as `fig5`
    repro-experiments validate scenarios/fig5.toml     # resolve + check

Every experiment's machine, workload and sweep grid live in a committed
scenario document, and an experiment id names it: ``fig5`` runs
``scenarios/fig5.toml``.  Each target resolves into one scenario, with
the ``--overlay`` files and then the scale, ``--engine`` and
``--energy`` flags that were given merged on top, and
:func:`repro.scenario.run_scenario` runs it.  So the spellings of one
workload share one ``scenario_sha256``, cache namespace and report (see
:mod:`repro.scenario`).

Every experiment regenerates one of the paper's tables or figures and
prints it as an ASCII table along with the scalar findings EXPERIMENTS.md
tracks.

Execution goes through :mod:`repro.farm`: the sweep points of every
target run in one fan-out (``render_all``) over ``--jobs N`` forked
workers or the ``--nodes`` grid, and every point is memoized in a
content-addressed result cache (``--cache-dir``, disable with
``--no-cache``), so re-running a figure skips the simulation work.
Reports are bit-identical regardless of ``--jobs``, ``--nodes`` or
cache state.  ``--manifest`` writes the run's telemetry (per-point wall
clock, throughput, cache hit-rate) as JSON.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
import threading
import time
from dataclasses import replace
from pathlib import Path
from typing import Any, Dict, List, Optional, TextIO, Tuple

import repro.obs as obs
from repro.core.engine import DEFAULT_ENGINE, ENGINE_NAMES
from repro.errors import FarmCancelled, cli_errors
from repro.experiments.common import (
    DEFAULT_SCALE,
    DESCRIPTIONS,
    REGISTRY,
    ExperimentScale,
)
from repro.farm.context import farm_session, render_all
from repro.farm.telemetry import RunTelemetry
from repro.robust.atomic import atomic_write_text
from repro.robust.signals import SignalDrain
from repro.scenario import (builtin_scenario_path, resolve_scenario,
                            run_scenario)

# Importing the modules populates REGISTRY.
from repro.experiments import (  # noqa: F401  (imported for registration)
    ablations,
    clock_rate,
    fig2_multiprogramming,
    fig3_timeslice,
    fig4_base_breakdown,
    fig5_write_policy,
    fig6_l2_orgs,
    fig7_l2i_speed_size,
    fig8_l2d_speed_size,
    fig9_optimizations,
    fig10_concurrency,
    fig11_optimized,
    l1_size_ablation,
    pareto,
    per_benchmark,
    scaling,
    table1_workload,
    tech_derivation,
    variance,
)


def _energy_choices() -> List[str]:
    from repro.energy import ENERGY_TECHNOLOGIES

    return sorted(ENERGY_TECHNOLOGIES)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Regenerate the paper's tables and figures.",
    )
    parser.add_argument("experiments", nargs="*", metavar="TARGET",
                        help="experiment ids (each runs its committed "
                             "scenarios/<id>.toml), 'all', or scenario "
                             "files")
    parser.add_argument("--list", action="store_true",
                        help="list available experiments and exit")
    parser.add_argument("--overlay", type=Path, action="append",
                        default=[], metavar="FILE",
                        help="scenario overlay merged onto every target "
                             "(repeatable; later overlays win)")
    parser.add_argument("--instructions", type=int, default=None,
                        help="instructions per benchmark (default: the "
                             "scenario's)")
    parser.add_argument("--level", type=int, default=None,
                        help="multiprogramming level (default: the "
                             "scenario's)")
    parser.add_argument("--time-slice", type=int, default=None,
                        help="scheduler time slice in cycles (default: "
                             "the scenario's)")
    parser.add_argument("--warmup-fraction", type=float, default=None,
                        help="fraction of the run excluded from statistics "
                             "(default: the scenario's)")
    parser.add_argument("--out", type=Path, default=None,
                        help="directory to also write per-experiment reports")
    parser.add_argument("--resume", action="store_true",
                        help="skip experiments whose report already exists "
                             "in --out (restart an interrupted sweep)")
    parser.add_argument("--chart", action="store_true",
                        help="draw an ASCII chart of each result")
    parser.add_argument("--config", type=Path, default=None,
                        help="run a custom machine from a SystemConfig "
                             "JSON file (ignores targets and --overlay)")
    parser.add_argument("--engine", choices=list(ENGINE_NAMES),
                        default=None,
                        help="simulation engine for every sweep point "
                             "(default: the scenario's; engines are "
                             "bit-identical; 'batched' executes only "
                             "events)")
    parser.add_argument("--energy", choices=_energy_choices(), default=None,
                        help="enable per-event energy accounting under this "
                             "technology for every sweep point (default: "
                             "the scenario's, usually disabled; timing "
                             "results are unaffected)")
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker processes for the sweep points of all "
                             "requested experiments (default %(default)s; "
                             "results are identical at any value)")
    parser.add_argument("--nodes", type=str, default=None,
                        metavar="URL[,URL...]",
                        help="distribute sweep points over these "
                             "repro-serve backends (comma-separated; "
                             "host:port accepted) via the fault-tolerant "
                             "grid dispatcher; results stay bit-identical "
                             "and fall back to local execution if the "
                             "pool is lost")
    parser.add_argument("--cache-dir", type=Path, default=None,
                        help="content-addressed result cache root (default: "
                             "$REPRO_FARM_CACHE or ~/.cache/repro-farm)")
    parser.add_argument("--no-cache", action="store_true",
                        help="disable the sweep-point result cache")
    parser.add_argument("--journal", type=Path, default=None,
                        metavar="DIR",
                        help="write-ahead run journal directory: every "
                             "sweep becomes crash-resumable exactly-once "
                             "(kill -9 this process at any instant, re-run "
                             "the same command, get a bit-identical "
                             "report); the run's points get one content-"
                             "addressed journal file in DIR, so resume and "
                             "sealed-run detection are automatic. "
                             "Requires the cache (not --no-cache)")
    parser.add_argument("--manifest", type=Path, default=None,
                        help="write run telemetry (points, wall clock, "
                             "cache hit-rate) to this JSON file")
    parser.add_argument("--heartbeat", type=float, default=None,
                        metavar="SECONDS",
                        help="print a progress line (latest point, elapsed, "
                             "simulated instr/s, cache hits) every this "
                             "many seconds")
    parser.add_argument("--trace", type=Path, default=None,
                        help="write a repro.obs JSONL event log of the run "
                             "(inspect with repro-obs summarize/timeline/"
                             "export)")
    return parser


class Heartbeat:
    """Background progress narrator for long runs.

    Every ``interval_s`` it prints the most recently completed point,
    elapsed wall-clock, the simulated-instruction throughput, and
    the cache hit/miss split — all read from the run's
    :class:`~repro.farm.telemetry.RunTelemetry`, which the parent fills
    as each point finishes, whether a pool worker or a grid node ran it.
    """

    def __init__(self, telemetry: RunTelemetry, interval_s: float,
                 stream: Optional[TextIO] = None):
        if interval_s <= 0:
            raise ValueError("heartbeat interval must be positive")
        self.telemetry = telemetry
        self.interval_s = interval_s
        self.stream = stream if stream is not None else sys.stderr
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop,
                                        name="heartbeat", daemon=True)

    def _format_line(self) -> str:
        s = self.telemetry.summary()
        events = self.telemetry.events
        label = events[-1]["label"] if events else "-"
        misses = s["points"] - s["cache_hits"]
        return (f"[heartbeat] {s['elapsed_s']:.0f}s elapsed, last point "
                f"{label}, {s['points']} points "
                f"({s['cache_hits']} cache hits / {misses} misses), "
                f"{s['instructions_per_second'] / 1e6:.2f} M "
                f"simulated instr/s")

    def _loop(self) -> None:
        while not self._stop.wait(self.interval_s):
            print(self._format_line(), file=self.stream, flush=True)

    def start(self) -> "Heartbeat":
        self._thread.start()
        return self

    def stop(self) -> None:
        self._stop.set()
        self._thread.join(timeout=1.0)


def run_custom_config(path: Path, scale: ExperimentScale) -> str:
    """Run a user-supplied machine configuration; returns its report."""
    from repro.analysis.tables import format_cpi_stack
    from repro.core.serialization import config_from_json
    from repro.experiments.common import run_system

    config = config_from_json(path.read_text())
    stats = run_system(config, scale)
    lines = [
        f"== custom: {config.name} ({path}) ==",
        f"instructions : {stats.instructions:,}",
        f"L1-I miss    : {stats.l1i_miss_ratio:.4f}",
        f"L1-D miss    : {stats.l1d_miss_ratio:.4f}",
        f"L2 miss      : {stats.l2_miss_ratio:.4f}",
        f"memory CPI   : {stats.memory_cpi:.3f}",
        f"total CPI    : {stats.cpi(config.cpu_stall_cpi):.3f}",
        format_cpi_stack(stats.breakdown(config.cpu_stall_cpi),
                         title="CPI stack:"),
    ]
    return "\n".join(lines)


def render_report(result, chart: bool) -> str:
    """An experiment result's report text, with its ASCII chart if asked."""
    report = result.render()
    if chart:
        from repro.analysis.ascii_plot import chart_for_result

        drawn = chart_for_result(result)
        if drawn is not None:
            report = f"{report}\n\n{drawn}"
    return report


def clamp_jobs(requested: int,
               cpu_count: Optional[int] = None) -> Tuple[int, Optional[str]]:
    """Clamp a ``--jobs`` request to the machine's CPU count.

    Forked simulation workers are CPU-bound; oversubscribing buys context
    switches, not throughput.  Returns the effective job count and a
    warning line when the request was clamped.
    """
    cpus = cpu_count if cpu_count is not None else (os.cpu_count() or 1)
    if requested <= cpus:
        return requested, None
    return cpus, (f"--jobs {requested} oversubscribes this "
                  f"{cpus}-CPU machine (simulation workers are CPU-bound "
                  f"and parallel efficiency drops below serial); "
                  f"clamping to {cpus}")


def stale_report_reason(path: Path) -> Optional[str]:
    """Why an existing report file should be re-run, or ``None`` if it
    looks complete.

    ``--resume`` used to trust any non-empty file; a truncated or
    corrupted report (a torn write from a crash, a NUL-padded block from
    a dirty filesystem, a manifest written under an older schema) was
    then "skipped" and crashed whoever read it later.  Detect those here
    and re-run the experiment instead.
    """
    import json as _json

    from repro.farm.telemetry import MANIFEST_MAGIC, MANIFEST_VERSION

    try:
        blob = path.read_bytes()
    except OSError:
        return "unreadable"
    if not blob.strip():
        return "empty (stale partial write)"
    if b"\x00" in blob:
        return "contains NUL bytes (truncated/torn write)"
    try:
        text = blob.decode("utf-8")
    except UnicodeDecodeError:
        return "not valid UTF-8 (corrupt write)"
    stripped = text.lstrip()
    if stripped.startswith("{") or stripped.startswith("["):
        # A JSON report (e.g. a manifest co-located in --out): parse it
        # now — better a re-run than a crash at read time.
        try:
            doc = _json.loads(text)
        except _json.JSONDecodeError:
            return "invalid JSON (truncated write)"
        if isinstance(doc, dict) and "magic" in doc:
            if (doc.get("magic") != MANIFEST_MAGIC
                    or doc.get("version") != MANIFEST_VERSION):
                return (f"schema mismatch (magic={doc.get('magic')!r}, "
                        f"version={doc.get('version')!r}; this build "
                        f"writes {MANIFEST_MAGIC!r} v{MANIFEST_VERSION})")
    return None


def _filter_resume(wanted: List[str], out: Optional[Path],
                   resume: bool) -> List[str]:
    """Drop already-completed experiments; a report that is empty,
    truncated, corrupt, or schema-mismatched (see
    :func:`stale_report_reason`) is re-run, not skipped."""
    if not resume:
        return wanted
    remaining: List[str] = []
    for experiment_id in wanted:
        report_path = out / f"{experiment_id}.txt"
        if report_path.exists():
            reason = stale_report_reason(report_path)
            if reason is None:
                print(f"[{experiment_id} already done, skipping]\n")
                continue
            print(f"[{experiment_id} report is {reason}; re-running]")
        remaining.append(experiment_id)
    return remaining


def _flag_overlay(args: argparse.Namespace) -> Dict[str, Any]:
    """The scale, engine and energy flags given, as one overlay document
    (empty when none is given, so the scenario's own values stand)."""
    workload = {key: value for key, value in (
        ("instructions_per_benchmark", args.instructions),
        ("level", args.level),
        ("time_slice", args.time_slice),
        ("warmup_fraction", args.warmup_fraction)) if value is not None}
    overlay: Dict[str, Any] = {}
    if workload:
        overlay["workload"] = workload
    if args.engine is not None:
        overlay["engine"] = {"name": args.engine}
    if args.energy is not None:
        overlay["energy"] = {"technology": args.energy}
    return overlay


def _scenario_paths(targets: List[str]) -> Tuple[List[Path], List[str]]:
    """Each target's scenario file, and the targets that name none: an
    experiment id is its committed scenario, ``all`` every one of them,
    and a ``.toml``/``.json`` path a scenario file."""
    paths: List[Path] = []
    unknown: List[str] = []
    for target in targets:
        if target == "all":
            paths.extend(map(builtin_scenario_path, sorted(REGISTRY)))
        elif target in REGISTRY:
            paths.append(builtin_scenario_path(target))
        elif Path(target).suffix.lower() in (".toml", ".json"):
            paths.append(Path(target))
        else:
            unknown.append(target)
    return paths, unknown


@cli_errors
def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "validate":
        from repro.scenario.cli import cmd_validate

        return cmd_validate(argv[1:])
    if argv and argv[0] == "run":
        argv = argv[1:]  # `run scenarios/fig5.toml` spells `fig5`
    args = build_parser().parse_args(argv)
    if args.heartbeat is not None and args.heartbeat <= 0:
        print("--heartbeat must be a positive number of seconds",
              file=sys.stderr)
        return 2
    telemetry = RunTelemetry()
    if args.trace is not None:
        # Environment first so pool workers inherit tracing (fork or
        # spawn); the tracer itself rebinds to per-pid files after fork.
        os.environ[obs.TRACE_ENV] = str(args.trace)
        obs.enable(args.trace)
    heartbeat = (Heartbeat(telemetry, args.heartbeat).start()
                 if args.heartbeat is not None else None)
    try:
        # The root span makes the event log account for the whole
        # invocation's wall-clock, not just the simulated stretches.
        with obs.span("run", cat="cli"):
            return _run(args, telemetry)
    finally:
        if heartbeat is not None:
            heartbeat.stop()
        if args.trace is not None:
            obs.disable()
            os.environ.pop(obs.TRACE_ENV, None)


def _run(args: argparse.Namespace, telemetry: RunTelemetry) -> int:
    """The runner body; ``main`` owns tracing/heartbeat setup around it."""
    if args.journal is not None and args.no_cache:
        print("--journal requires the result cache (drop --no-cache): "
              "the journal records digests, the cache holds the results",
              file=sys.stderr)
        return 2
    nodes = None
    if args.nodes:
        nodes = [u.strip() for u in args.nodes.split(",") if u.strip()]
        if not nodes:
            print("--nodes needs at least one backend URL", file=sys.stderr)
            return 2
    if args.jobs < 1:
        print("--jobs must be >= 1", file=sys.stderr)
        return 2
    jobs, clamp_warning = clamp_jobs(args.jobs)
    if clamp_warning is not None:
        print(f"[warning: {clamp_warning}]", file=sys.stderr)
    session = functools.partial(
        farm_session, jobs=jobs, cache_dir=args.cache_dir,
        no_cache=args.no_cache, telemetry=telemetry, nodes=nodes,
        journal=args.journal)
    flags = _flag_overlay(args)
    if args.config is not None:
        scale = replace(DEFAULT_SCALE, **flags.get("workload", {}))
        with session(engine=args.engine or DEFAULT_ENGINE,
                     energy=args.energy):
            print(render_all(
                [lambda: run_custom_config(args.config, scale)])[0])
        if args.manifest is not None:
            telemetry.write_manifest(args.manifest)
        return 0
    if args.list or not args.experiments:
        print("available experiments:")
        width = max(map(len, REGISTRY), default=0)
        for experiment_id in sorted(REGISTRY):
            description = DESCRIPTIONS.get(experiment_id, "")
            print(f"  {experiment_id:<{width}} — {description}")
        return 0
    paths, unknown = _scenario_paths(args.experiments)
    if unknown:
        print(f"unknown experiments: {', '.join(unknown)}", file=sys.stderr)
        print(f"available: {', '.join(sorted(REGISTRY))}", file=sys.stderr)
        return 2
    if args.resume and args.out is None:
        print("--resume requires --out", file=sys.stderr)
        return 2
    overlays = [*args.overlay, flags] if flags else args.overlay
    scenarios = [resolve_scenario(path, overlays) for path in paths]
    if args.out is not None:
        args.out.mkdir(parents=True, exist_ok=True)
    remaining = _filter_resume([s.name for s in scenarios], args.out,
                               args.resume)
    scenarios = [s for s in scenarios if s.name in remaining]

    reports: Dict[str, str] = {}
    interrupted = False
    started = time.time()
    stop = threading.Event()
    # The same latch-and-drain signal handling the server uses: SIGTERM or
    # Ctrl-C cancels the point pass (the pool reaps its workers; points
    # already run stay cached), flushes the manifest and exits 130.
    with SignalDrain(on_signal=lambda _signum: stop.set(),
                     reraise=False) as latch, session():
        try:
            results = render_all([functools.partial(run_scenario, s)
                                  for s in scenarios], stop_event=stop)
            reports = {s.name: render_report(result, args.chart)
                       for s, result in zip(scenarios, results)}
        except FarmCancelled:
            interrupted = True  # pool already reaped its children
        interrupted = interrupted or latch.triggered
        latch.consume()

    for name, report in reports.items():
        print(report + "\n")
        if args.out is not None:
            # Atomic: an interrupted run never leaves a truncated report,
            # which --resume would otherwise happily treat as complete.
            atomic_write_text(args.out / f"{name}.txt", report + "\n")
    if reports:
        print(f"[{' '.join(reports)} completed in "
              f"{time.time() - started:.1f}s]\n")
    if scenarios:
        print(f"[farm: {telemetry.format_summary()}]")
    if args.manifest is not None:
        telemetry.write_manifest(args.manifest)
    if interrupted:
        print("[interrupted: completed reports and telemetry flushed; "
              "re-run with --resume to continue]", file=sys.stderr)
        return 130
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via CLI
    sys.exit(main())
