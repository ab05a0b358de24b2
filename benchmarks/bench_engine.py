"""Bench the engines: ``batched`` vs ``reference`` wall-clock, plus the
bit-identical check that makes the speedup claim meaningful.

Two workloads, both run end-to-end through :class:`Simulation` with obs
tracing disabled (the default):

* ``hot_loop`` — a single process whose code and data fit the L1s, so
  nearly every instruction hits everywhere.  This is the workload the
  ≥3× engine-level target and the CI floor apply to.  The event-indexed
  batched engine skips most of its events here as provable L1 hits and
  finishes the misses that hit in L2 in its own loop, reaching about
  9.8× (8.9× in a smoke run; the floor is 3× either way).
* ``paper_suite`` — the repo's calibrated Table 1 suite at level 1,
  miss rates in the paper's ranges; reported for honesty (the batched
  engine must never *lose* here).

For each run the engine's own time (``MemorySystem.run_slice``) is
measured separately from total wall clock: trace synthesis, address
translation, and scheduling are identical work for both engines, so
``engine_speedup`` is the figure the engine refactor actually controls,
while ``end_to_end_speedup`` shows what a full simulation gains.  Runs
are interleaved (reference, batched, reference, …) and the best of
``--reps`` is kept, which is the standard defense against noisy hosts.

Exit status: 0 if the hot-loop engine speedup meets ``--floor`` (and
every run was bit-identical), 1 otherwise.  Usage::

    PYTHONPATH=src python benchmarks/bench_engine.py [--smoke]
        [--floor X] [--reps N] [--out PATH]

``--smoke`` shrinks the workloads for CI, with the same floor.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time
from pathlib import Path

import repro.obs as obs
from repro.core.config import base_architecture
from repro.core.engine import ENGINE_NAMES
from repro.core.simulator import Simulation
from repro.trace.benchmarks import default_suite
from repro.trace.synthetic import BenchmarkProfile, CodeProfile, DataProfile

#: Minimum hot-loop engine speedup, with or without ``--smoke``.
FLOOR = 3.0


def hot_loop_profile(instructions: int) -> BenchmarkProfile:
    """A resident working set: ~3 KW of code, 2 KW of hot data."""
    return BenchmarkProfile(
        name="hot_loop", category="I", instructions=instructions,
        syscalls=4,
        code=CodeProfile(code_words=3072, phase_regions=2,
                         loops_per_phase=8),
        data=DataProfile(hot_words=2048, p_warm=0.0, p_stream=0.0,
                         p_cold=0.0),
        seed=7)


def workloads(smoke: bool):
    hot = 200_000 if smoke else 800_000
    paper = 60_000 if smoke else 150_000
    return {
        "hot_loop": dict(profiles=[hot_loop_profile(hot)],
                         level=1, time_slice=100_000),
        "paper_suite": dict(profiles=default_suite(paper), level=1,
                            time_slice=50_000),
    }


def timed_run(engine: str, workload: dict):
    """One full simulation; returns (engine_seconds, total_seconds, stats)."""
    sim = Simulation(config=base_architecture(), engine=engine, **workload)
    inner = sim.memsys.engine.run_slice
    spent = [0.0]

    def wrapped(*args, **kwargs):
        t0 = time.perf_counter()
        result = inner(*args, **kwargs)
        spent[0] += time.perf_counter() - t0
        return result

    sim.memsys.engine.run_slice = wrapped
    t0 = time.perf_counter()
    stats = sim.run()
    total = time.perf_counter() - t0
    return spent[0], total, stats


def bench_workload(name: str, workload: dict, reps: int) -> dict:
    best = {engine: [float("inf"), float("inf")] for engine in ENGINE_NAMES}
    stats = {}
    for _ in range(reps):
        for engine in ENGINE_NAMES:  # interleaved against host drift
            engine_s, total_s, run_stats = timed_run(engine, workload)
            best[engine][0] = min(best[engine][0], engine_s)
            best[engine][1] = min(best[engine][1], total_s)
            stats[engine] = dataclasses.asdict(run_stats)
    identical = all(stats[e] == stats["reference"] for e in ENGINE_NAMES)
    ref_e, ref_t = best["reference"]
    bat_e, bat_t = best["batched"]
    instructions = stats["reference"]["instructions"]
    return {
        "instructions": instructions,
        "bit_identical": identical,
        "reference": {"engine_s": round(ref_e, 4),
                      "total_s": round(ref_t, 4),
                      "engine_instr_per_s": round(instructions / ref_e)},
        "batched": {"engine_s": round(bat_e, 4),
                    "total_s": round(bat_t, 4),
                    "engine_instr_per_s": round(instructions / bat_e)},
        "engine_speedup": round(ref_e / bat_e, 3),
        "end_to_end_speedup": round(ref_t / bat_t, 3),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="small workloads for CI")
    parser.add_argument("--floor", type=float, default=FLOOR,
                        help="minimum hot-loop engine speedup (default: "
                             f"{FLOOR})")
    parser.add_argument("--reps", type=int, default=None,
                        help="interleaved repetitions (default: 5, or 3 "
                             "with --smoke)")
    parser.add_argument("--out", default="BENCH_engine.json",
                        help="output path (default: BENCH_engine.json)")
    args = parser.parse_args(argv)
    reps = args.reps if args.reps is not None else (3 if args.smoke else 5)
    if obs.is_enabled():
        print("FAIL: obs tracing is enabled; the bench measures the "
              "tracing-disabled fast path", file=sys.stderr)
        return 1

    report = {"smoke": args.smoke, "reps": reps, "floor": args.floor,
              "workloads": {}}
    for name, workload in workloads(args.smoke).items():
        result = bench_workload(name, workload, reps)
        report["workloads"][name] = result
        print(f"[{name}] engine {result['engine_speedup']}x  "
              f"end-to-end {result['end_to_end_speedup']}x  "
              f"bit_identical={result['bit_identical']}")

    hot = report["workloads"]["hot_loop"]
    identical = all(w["bit_identical"] for w in report["workloads"].values())
    passed = identical and hot["engine_speedup"] >= args.floor
    report["passed"] = passed
    Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    if not identical:
        print("FAIL: engines diverged — speedup is meaningless until the "
              "lockstep suite passes", file=sys.stderr)
        return 1
    if not passed:
        print(f"FAIL: hot-loop engine speedup {hot['engine_speedup']}x is "
              f"below the floor {args.floor}x", file=sys.stderr)
        return 1
    print(f"PASS: batched >= {args.floor}x reference on the hot-loop "
          "workload")
    return 0


if __name__ == "__main__":
    sys.exit(main())
