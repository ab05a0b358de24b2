"""Command-line entry point for the experiments.

Usage::

    python -m repro.experiments --list
    python -m repro.experiments fig5
    python -m repro.experiments all --instructions 1000000
    repro-experiments all --jobs 4 --out results/      # parallel + cached
    repro-experiments fig6 --level 8 --out results/
    repro-experiments run scenarios/fig5.toml          # scenario-driven
    repro-experiments validate scenarios/fig5.toml     # resolve + check

Every experiment's machine and sweep grid now live in a committed
scenario document (``scenarios/<id>.toml``); the legacy ``fig5``-style
invocation resolves the same file, so both paths are bit-identical (see
:mod:`repro.scenario`).

Every experiment regenerates one of the paper's tables or figures and
prints it as an ASCII table along with the scalar findings EXPERIMENTS.md
tracks.

Execution goes through :mod:`repro.farm`: ``--jobs N`` fans independent
experiments across forked workers, and every simulated sweep point is
memoized in a content-addressed result cache (``--cache-dir``, disable
with ``--no-cache``), so re-running an overlapping figure — or the same
figure twice — skips the simulation work entirely.  Reports are
bit-identical regardless of ``--jobs`` or cache state.  ``--manifest``
writes the run's telemetry (per-point wall clock, throughput, cache
hit-rate) as JSON.
"""

from __future__ import annotations

import argparse
import os
import sys
import threading
import time
from dataclasses import asdict
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
from repro.farm.cache import ResultCache
from repro.farm.context import farm_session
from repro.farm.pool import run_tasks
from repro.farm.telemetry import RunTelemetry
from repro.robust.atomic import atomic_write_text
from repro.robust.signals import SignalDrain

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
    parser.add_argument("experiments", nargs="*",
                        help="experiment ids (or 'all')")
    parser.add_argument("--list", action="store_true",
                        help="list available experiments and exit")
    parser.add_argument("--instructions", type=int,
                        default=DEFAULT_SCALE.instructions_per_benchmark,
                        help="instructions per benchmark (default %(default)s)")
    parser.add_argument("--level", type=int, default=DEFAULT_SCALE.level,
                        help="multiprogramming level (default %(default)s)")
    parser.add_argument("--time-slice", type=int,
                        default=DEFAULT_SCALE.time_slice,
                        help="scheduler time slice in cycles")
    parser.add_argument("--warmup-fraction", type=float,
                        default=DEFAULT_SCALE.warmup_fraction,
                        help="fraction of the run excluded from statistics")
    parser.add_argument("--out", type=Path, default=None,
                        help="directory to also write per-experiment reports")
    parser.add_argument("--resume", action="store_true",
                        help="skip experiments whose report already exists "
                             "in --out (restart an interrupted sweep)")
    parser.add_argument("--chart", action="store_true",
                        help="draw an ASCII chart of each result")
    parser.add_argument("--config", type=Path, default=None,
                        help="run a custom machine from a SystemConfig "
                             "JSON file (ignores experiment ids)")
    parser.add_argument("--engine", choices=list(ENGINE_NAMES),
                        default=DEFAULT_ENGINE,
                        help="simulation engine for every sweep point "
                             "(engines are bit-identical; 'batched' "
                             "executes only events)")
    parser.add_argument("--energy", choices=_energy_choices(), default=None,
                        help="enable per-event energy accounting under this "
                             "technology for every sweep point (default: "
                             "disabled; timing results are unaffected)")
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker processes for independent experiments "
                             "(default %(default)s; results are identical "
                             "at any value)")
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
                             "report); each sweep gets a content-addressed "
                             "journal file in DIR, so resume and "
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

    Every ``interval_s`` it prints the most recently completed unit of
    work, elapsed wall-clock, the simulated-instruction throughput, and
    the cache hit/miss split — all read from the shared
    :class:`~repro.farm.telemetry.RunTelemetry`, so it works unchanged
    under ``--jobs N`` (worker summaries fold in as tasks finish).
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
        label = "-"
        for event in reversed(self.telemetry.events):
            label = event["label"]
            break
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


def _render(experiment_id: str, scale: ExperimentScale, chart: bool) -> str:
    """Run one experiment and render its (deterministic) report text."""
    result = REGISTRY[experiment_id](scale)
    report = result.render()
    if chart:
        from repro.analysis.ascii_plot import chart_for_result

        drawn = chart_for_result(result)
        if drawn is not None:
            report = f"{report}\n\n{drawn}"
    return report


def _experiment_task(payload: Dict[str, Any]) -> Dict[str, Any]:
    """One whole experiment as a farm task (runs in a pool worker).

    The worker opens its own ``jobs=1`` farm session so its sweep points
    hit the shared on-disk cache; the telemetry summary and the metrics
    registry snapshot ride back to the parent for aggregation.
    """
    scale = ExperimentScale(**payload["scale"])
    started = time.time()
    with farm_session(jobs=1,
                      cache_dir=payload["cache_dir"],
                      no_cache=payload["cache_dir"] is None,
                      engine=payload.get("engine", DEFAULT_ENGINE),
                      energy=payload.get("energy"),
                      journal=payload.get("journal")) as ctx:
        report = _render(payload["experiment_id"], scale, payload["chart"])
    return {
        "report": report,
        "elapsed": time.time() - started,
        "telemetry": ctx.telemetry.summary(),
        "obs": ctx.telemetry.registry.snapshot(),
    }


def clamp_jobs(requested: int,
               cpu_count: Optional[int] = None) -> Tuple[int, Optional[str]]:
    """Clamp a ``--jobs`` request to the machine's CPU count.

    Forked simulation workers are CPU-bound; oversubscribing buys context
    switches, not throughput — ``BENCH_farm.json`` records a 0.874x
    "speedup" for jobs=4 on a 1-CPU box.  Returns the effective job count
    and a warning line when the request was clamped.
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


@cli_errors
def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] in ("run", "validate"):
        # Scenario subcommands: declarative documents through the
        # generic driver (see repro.scenario).
        from repro.scenario.cli import cmd_run, cmd_validate

        handler = cmd_run if argv[0] == "run" else cmd_validate
        return handler(argv[1:])
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
    scale = ExperimentScale(
        instructions_per_benchmark=args.instructions,
        level=args.level,
        time_slice=args.time_slice,
        warmup_fraction=args.warmup_fraction,
    )
    cache = None if args.no_cache else ResultCache(args.cache_dir)
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
    if args.config is not None:
        with farm_session(jobs=1, cache=cache, no_cache=args.no_cache,
                          telemetry=telemetry, engine=args.engine,
                          energy=args.energy, nodes=nodes,
                          journal=args.journal):
            print(run_custom_config(args.config, scale))
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
    wanted = list(args.experiments)
    if wanted == ["all"]:
        wanted = sorted(REGISTRY)
    unknown = [e for e in wanted if e not in REGISTRY]
    if unknown:
        print(f"unknown experiments: {', '.join(unknown)}", file=sys.stderr)
        print(f"available: {', '.join(sorted(REGISTRY))}", file=sys.stderr)
        return 2
    if args.resume and args.out is None:
        print("--resume requires --out", file=sys.stderr)
        return 2
    if args.jobs < 1:
        print("--jobs must be >= 1", file=sys.stderr)
        return 2
    jobs, clamp_warning = clamp_jobs(args.jobs)
    if clamp_warning is not None:
        print(f"[warning: {clamp_warning}]", file=sys.stderr)
    if args.out is not None:
        args.out.mkdir(parents=True, exist_ok=True)
    wanted = _filter_resume(wanted, args.out, args.resume)

    reports: Dict[str, str] = {}
    elapsed: Dict[str, float] = {}
    interrupted = False
    # The same latch-and-drain signal handling the server uses: SIGTERM or
    # Ctrl-C stops cleanly between experiments, flushes every completed
    # report and the manifest, then exits through the conventional path.
    if nodes is not None and jobs > 1:
        # Parallelism comes from the backend pool, not local forks: the
        # experiments loop runs serially and every point is dispatched.
        print("[--nodes distributes sweep points; ignoring --jobs "
              f"{jobs}]", file=sys.stderr)
        jobs = 1
    with SignalDrain(reraise=False) as latch:
        if jobs > 1 and len(wanted) > 1:
            # Independent experiments fan out across workers; each
            # worker's sweep points still share the on-disk result cache.
            payloads = [{
                "experiment_id": experiment_id,
                "scale": asdict(scale),
                "cache_dir": None if cache is None else str(cache.root),
                "chart": args.chart,
                "engine": args.engine,
                "energy": args.energy,
                "journal": (None if args.journal is None
                            else str(args.journal)),
            } for experiment_id in wanted]

            def collect(index: int, value: Dict[str, Any]) -> None:
                experiment_id = wanted[index]
                reports[experiment_id] = value["report"]
                elapsed[experiment_id] = value["elapsed"]
                telemetry.record_task(experiment_id, value["elapsed"],
                                      value["telemetry"])
                telemetry.registry.merge(value["obs"])

            try:
                run_tasks(_experiment_task, payloads, jobs=jobs,
                          labels=wanted, on_result=collect)
            except FarmCancelled:
                interrupted = True  # pool already reaped its children
        else:
            with farm_session(jobs=1, cache=cache, no_cache=args.no_cache,
                              telemetry=telemetry, engine=args.engine,
                              energy=args.energy, nodes=nodes,
                              journal=args.journal):
                for experiment_id in wanted:
                    if latch.triggered:
                        interrupted = True
                        break
                    started = time.time()
                    reports[experiment_id] = _render(experiment_id, scale,
                                                     args.chart)
                    elapsed[experiment_id] = time.time() - started
        interrupted = interrupted or latch.triggered
        latch.consume()

    for experiment_id in wanted:
        if experiment_id not in reports:
            continue  # cut short by a signal
        print(reports[experiment_id])
        print(f"[{experiment_id} completed in {elapsed[experiment_id]:.1f}s]\n")
        if args.out is not None:
            # Atomic: an interrupted run never leaves a truncated report,
            # which --resume would otherwise happily treat as complete.
            path = args.out / f"{experiment_id}.txt"
            atomic_write_text(path, reports[experiment_id] + "\n")
    if wanted:
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
