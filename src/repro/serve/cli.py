"""``repro-serve``: run and query the simulation service.

Usage::

    repro-serve start --port 8023 --queue-depth 8 --workers 2
    repro-serve simulate --url http://127.0.0.1:8023 \\
        --config machine.json --instructions 200000 --level 4
    repro-serve metrics --url http://127.0.0.1:8023

``start`` serves until SIGINT/SIGTERM and then drains gracefully (stop
accepting, finish or checkpoint in-flight simulations, exit 0).
``simulate`` is the retrying client: it backs off with jitter on 429/503,
honors ``Retry-After``, and gives up when its time budget runs out.
``metrics`` prints the server's Prometheus text exposition.
The service's fault storm is ``repro-chaos serve`` (:mod:`repro.chaos`).
"""

from __future__ import annotations

import argparse
import json
import sys
import urllib.request
from pathlib import Path
from typing import List, Optional

from repro.core.engine import DEFAULT_ENGINE, ENGINE_NAMES
from repro.errors import ServeError, cli_errors
from repro.farm.cache import ResultCache


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-serve",
        description="Fault-tolerant simulation service for config→CPI "
                    "queries, backed by the farm's result cache.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    start = sub.add_parser("start", help="run the service until signalled")
    start.add_argument("--host", default="127.0.0.1")
    start.add_argument("--port", type=int, default=8023)
    start.add_argument("--queue-depth", type=int, default=8,
                       help="bounded admission queue; beyond it requests "
                            "are shed with 429 (default %(default)s)")
    start.add_argument("--workers", type=int, default=2,
                       help="executor threads (default %(default)s)")
    start.add_argument("--deadline", type=float, default=30.0,
                       help="default per-request deadline, seconds")
    start.add_argument("--max-deadline", type=float, default=120.0,
                       help="ceiling on client-requested deadlines")
    start.add_argument("--drain-grace", type=float, default=10.0,
                       help="seconds a drain lets in-flight work finish")
    start.add_argument("--isolation", choices=["auto", "fork", "inline"],
                       default="auto",
                       help="simulation isolation (default %(default)s)")
    start.add_argument("--checkpoint-dir", type=Path, default=None,
                       help="spool for drain checkpoints (inline mode)")
    start.add_argument("--cache-dir", type=Path, default=None,
                       help="result cache root (default: $REPRO_FARM_CACHE "
                            "or ~/.cache/repro-farm)")
    start.add_argument("--no-cache", action="store_true",
                       help="serve without the result cache")
    start.add_argument("--port-file", type=Path, default=None,
                       help="write the bound port here once listening "
                            "(lets an orchestrator use --port 0)")

    simulate = sub.add_parser("simulate",
                              help="run one point through a server")
    simulate.add_argument("--url", default="http://127.0.0.1:8023")
    simulate.add_argument("--config", type=Path, required=True,
                          help="SystemConfig JSON file")
    simulate.add_argument("--instructions", type=int, default=120000,
                          help="instructions per benchmark")
    simulate.add_argument("--level", type=int, default=2,
                          help="multiprogramming level")
    simulate.add_argument("--time-slice", type=int, default=30000)
    simulate.add_argument("--engine", choices=list(ENGINE_NAMES),
                          default=DEFAULT_ENGINE,
                          help="simulation engine executing the point")
    simulate.add_argument("--deadline", type=float, default=None,
                          help="per-request deadline, seconds")
    simulate.add_argument("--budget", type=float, default=60.0,
                          help="total client budget across retries")
    simulate.add_argument("--json", action="store_true",
                          help="print the raw response JSON")

    metrics = sub.add_parser("metrics",
                             help="print the /metrics text exposition")
    metrics.add_argument("--url", default="http://127.0.0.1:8023")
    return parser


def drain_summary(telemetry) -> str:
    """A node's closing line: its points and cache hits, the instructions
    it simulated over the summed wall time of those simulations, and the
    instructions it answered from the cache.  A node idles between
    requests, so its uptime would measure the traffic, not the
    simulator."""
    s = telemetry.summary()
    wall = s["point_wall_s"]
    rate = s["simulated_instructions"] / wall if wall > 0 else 0.0
    return (f"{s['points']} points, {s['cache_hits']} cache hits "
            f"({100.0 * s['cache_hit_rate']:.1f}%), "
            f"{s['simulated_instructions']:,} instructions simulated in "
            f"{wall:.3f}s ({rate / 1e6:.2f} M instr/s), "
            f"{s['cached_instructions']:,} from the cache")


def _cmd_start(args) -> int:
    from repro.serve.server import ServeSettings, SimServer

    cache = None if args.no_cache else ResultCache(args.cache_dir)
    settings = ServeSettings(
        host=args.host, port=args.port, queue_depth=args.queue_depth,
        workers=args.workers, default_deadline_s=args.deadline,
        max_deadline_s=args.max_deadline, drain_grace_s=args.drain_grace,
        isolation=args.isolation, checkpoint_dir=args.checkpoint_dir)
    server = SimServer(settings, cache=cache)
    code = server.run_until_signal(port_file=args.port_file)
    print(f"[serve] drained; {drain_summary(server.telemetry)}",
          file=sys.stderr)
    return code


def _cmd_simulate(args) -> int:
    from repro.serve.client import ServeClient

    try:
        config = json.loads(args.config.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ServeError(f"cannot read config {args.config}: {exc}")
    request = {
        "config": config,
        "workload": {"suite": {
            "instructions_per_benchmark": args.instructions,
            "level": args.level,
        }},
        "time_slice": args.time_slice,
        "level": args.level,
        "engine": args.engine,
    }
    if args.deadline is not None:
        request["deadline_s"] = args.deadline
    client = ServeClient(args.url)
    result = client.simulate(request, budget_s=args.budget)
    if args.json:
        print(json.dumps(result, indent=1))
        return 0
    stats = result["stats"]
    print(f"key      : {result['key'][:16]}…")
    print(f"cached   : {result['cached']}")
    print(f"CPI      : {result['cpi']:.4f}")
    print(f"instr    : {stats['instructions']:,}")
    print(f"wall     : {result['wall_s']:.3f}s")
    return 0


def _cmd_metrics(args) -> int:
    url = args.url.rstrip("/") + "/metrics"
    try:
        with urllib.request.urlopen(url, timeout=30) as response:
            text = response.read().decode("utf-8")
    except OSError as exc:  # refused, reset, timed out, or an HTTP error
        raise ServeError(f"metrics unavailable: {exc}") from exc
    print(text, end="")
    return 0


@cli_errors
def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    if args.command == "start":
        return _cmd_start(args)
    if args.command == "simulate":
        return _cmd_simulate(args)
    if args.command == "metrics":
        return _cmd_metrics(args)
    return 2  # pragma: no cover - argparse enforces the choices


if __name__ == "__main__":  # pragma: no cover - exercised via CLI
    sys.exit(main())
