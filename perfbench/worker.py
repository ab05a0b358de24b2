"""One benchmark sample: set up, run one operation, report.

``run.py`` starts a fresh interpreter on this file for every sample, so
the set-up covers interpreter start, imports, scenario resolution,
profile generation, opening the farm session and, for ``fig5_nodes``,
booting the node until ``/readyz`` answers.  An untraced sample runs the
host-speed probe (``hostclock.py``) from its first instant to the end of
the op (on ``fig5_nodes`` the node and its forked simulations run it
too, through ``nodeprobe/``), and reports the set-up and the op both in
wall seconds and in reference-host seconds.  The result is written as JSON to
``<dir>/result.json``.

    python3 perfbench/worker.py --workload paper_l8 --seed 0 --dir D \\
        --spawned-at <time.monotonic() of the parent> \\
        [--traced | --setup-only]
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import signal
import sys
import time
import traceback
import urllib.request
from contextlib import nullcontext
from pathlib import Path

from gate import check_stats, input_digest, stats_digest
from hostclock import Probe
from layers import Recorder, layer_metrics, model_metrics
from workloads import WORKLOADS, points_for, run_op

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def wait_ready(url: str, timeout_s: float = 30.0) -> None:
    """Poll ``/readyz`` until the node answers 200."""
    give_up = time.monotonic() + timeout_s
    while True:
        try:
            with urllib.request.urlopen(f"{url}/readyz", timeout=2.0) as r:
                if r.status == 200:
                    return
        except OSError:
            pass
        if time.monotonic() > give_up:
            raise RuntimeError(f"node {url} not ready after {timeout_s:g}s")
        time.sleep(0.01)


def grid_counters(dispatcher) -> dict:
    if dispatcher is None:
        return {}
    snapshot = dispatcher.metrics.snapshot()

    def total(name: str) -> int:
        return sum(snapshot.get(name, {}).get("values", {}).values())

    return {"attempts": total("grid_dispatch_total"),
            "points": total("grid_points_total")}


def sample(name: str, seed: int, workdir: Path, overlays=(),
           traced: bool = False, spawned_at: float = None,
           probe: Probe = None, setup_only: bool = False) -> dict:
    """Set up and run one operation of workload ``name``; returns the
    result dict (raises on any failure).  With a running ``probe`` the
    set-up and the op are also given in reference-host seconds.  With
    ``setup_only`` the sample ends where the op would start and reports
    only the set-up times."""
    if spawned_at is None:
        spawned_at = time.monotonic()
    # Imported here, so that the probe's window covers the imports.
    from repro.analysis.repeat import reseed_profiles
    from repro.core.stats import SimStats
    from repro.experiments.common import workload as table1_workload
    from repro.farm.context import farm_session
    from repro.grid.backends import BackendPool
    from repro.scenario.resolve import resolve_scenario

    wl = WORKLOADS[name]
    recorder = Recorder() if traced else None
    if recorder is not None:
        recorder.install()
    pool = None
    try:
        started = time.perf_counter()
        resolved = resolve_scenario(
            ROOT / wl.scenario,
            [ROOT / p for p in (*wl.overlays, *overlays)])
        resolve_s = time.perf_counter() - started
        scale = resolved.scale
        profiles = reseed_profiles(table1_workload(scale), seed)
        points = points_for(wl, resolved)
        nodes = None
        if wl.nodes:
            if probe is not None:
                # The node's simulations run probes of their own.
                os.environ["PERFBENCH_PROBE_DIR"] = str(workdir / "probes")
                os.environ["PYTHONPATH"] = os.pathsep.join(
                    p for p in (str(BENCH / "nodeprobe"),
                                os.environ.get("PYTHONPATH")) if p)
                (workdir / "probes").mkdir()
            node_launch = time.monotonic()
            pool = BackendPool(1, root=workdir / "node", no_cache=True)
            node_pid = pool.backends[0].pid
            (workdir / "node.pid").write_text(str(node_pid))
            wait_ready(pool.urls[0])
            nodes = pool.urls
        cache_dir = workdir / "cache"
        if cache_dir.exists() and any(cache_dir.iterdir()):
            raise RuntimeError(f"result cache {cache_dir} is not empty")
        with farm_session(jobs=1, cache_dir=cache_dir, quiet=True,
                          engine=resolved.engine, energy=resolved.energy,
                          nodes=nodes,
                          scenario=resolved.scenario_sha256) as ctx:
            op_start = time.monotonic()
            if not setup_only:
                with (recorder.op(0) if recorder is not None
                      else nullcontext()):
                    stats = run_op(points, profiles, scale)
            op_end = time.monotonic()
            if probe is not None:
                probe.stop()
            counters = grid_counters(ctx.dispatcher)
    finally:
        if pool is not None:
            pool.close()
        if recorder is not None:
            recorder.uninstall()
    setup_wall, setup_ref = op_start - spawned_at, None
    op_wall, op_ref, op_burst = op_end - op_start, None, None
    if probe is not None:
        setup_wall, setup_ref = probe.rescale(spawned_at, op_start)
        op_probe = probe
        if wl.nodes:
            # The node boots itself, and its forked processes do the op.
            logs = sorted((workdir / "probes").glob("*.txt"))
            node = Probe.from_logs(p for p in logs
                                   if p.stem == str(node_pid))
            op_probe = Probe.from_logs(p for p in logs
                                       if p.stem != str(node_pid))
            if not op_probe.starts:
                # Simulations shorter than one period (smoke scale).
                op_probe = node
            before = probe.rescale(spawned_at, node_launch)
            boot = node.rescale(node_launch, op_start)
            setup_wall = before[0] + boot[0]
            setup_ref = before[1] + boot[1]
        if not setup_only:
            op_wall, op_ref = op_probe.rescale(op_start, op_end)
            op_burst = op_probe.median_burst(op_start, op_end)
    if setup_only:
        return {"ok": True, "workload": name, "seed": seed,
                "setup_wall_s": setup_wall, "setup_ref_s": setup_ref}
    if recorder is not None:
        # The op span, which the traced self times add up to.
        op_wall = recorder.totals["op"][1]
    who = resource.RUSAGE_CHILDREN if wl.nodes else resource.RUSAGE_SELF
    summed = SimStats()
    for point in stats:
        summed.add(point)
    result = {
        "ok": True,
        "workload": name,
        "seed": seed,
        "engine": resolved.engine,
        "setup_wall_s": setup_wall,
        "setup_ref_s": setup_ref,
        "resolve_s": resolve_s,
        "op_wall_s": op_wall,
        "op_ref_s": op_ref,
        "op_burst_s": op_burst,
        "instructions": len(points) * sum(p.instructions for p in profiles),
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
        "labels": [label for label, _ in points],
        "inputs": [input_digest(resolved.document, seed, label)
                   for label, _ in points],
        "digests": [stats_digest(point) for point in stats],
        "check_errors": [f"{label}: {error}"
                         for (label, _), point in zip(points, stats)
                         for error in check_stats(point, resolved.energy)],
        "model": model_metrics(summed),
    }
    if recorder is not None:
        result["layers"] = layer_metrics(recorder, summed, resolve_s,
                                         len(points), counters)
        recorder.write_spans(workdir / "spans.jsonl",
                             {"workload": name, "seed": seed,
                              "op_wall_s": op_wall})
        result["self_s"] = {n: e[2] for n, e in recorder.totals.items()}
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dir", type=Path, required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--overlay", action="append", default=[])
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    def terminate(signum, frame):
        raise SystemExit(128 + signum)

    signal.signal(signal.SIGTERM, terminate)
    # The traced run has its own clocks; bursts would land in its spans.
    probe = None if args.traced else Probe()
    try:
        if probe is not None:
            probe.start()
        result = sample(args.workload, args.seed, args.dir, args.overlay,
                        args.traced, args.spawned_at, probe,
                        args.setup_only)
    except Exception as exc:
        traceback.print_exc()
        result = {"ok": False, "error": f"{type(exc).__name__}: {exc}"}
    finally:
        if probe is not None:
            probe.stop()
    (args.dir / "result.json").write_text(json.dumps(result),
                                          encoding="utf-8")
    return 0 if result["ok"] else 1


if __name__ == "__main__":
    sys.exit(main())
