"""The repository's benchmark: four workloads, three end-to-end metrics,
and a traced run that reports host time and counts per layer.

    python3 perfbench/run.py --workload paper_l8 --seed 0 --seconds 20 \\
        --trace 0

For ``--seconds`` it starts one fresh worker process after another
(``worker.py``), each doing the whole set-up and one operation with a
fresh empty result cache, NumPy/BLAS threads pinned to 1 and the
modelled caches empty; it stops starting samples once the time is up.
Every sample's statistics go through the correctness gate
(``gate.py``).  The last line of standard output is one JSON object:

* ``--trace 0``: ``sim_instr_per_s``, ``setup_s`` and ``peak_rss_mb``,
  each the median over the samples; the two times are in reference-host
  seconds (``hostclock.py``), and their wall-clock medians are printed
  beside them.  When fewer than ``MIN_SETUPS`` samples fit in the time,
  set-up-only samples (the same worker, stopped where the op would
  start) follow until ``setup_s`` has that many values;
* ``--trace 1``: samples alternate untraced and traced; the per-layer
  metrics are medians over the traced samples (``layers.py``), and
  ``tracing.overhead_x`` compares the two kinds' op wall times.

Quartiles, sample counts, host facts and every sample are written to
``.perfbench/results/`` in the checkout; traced spans to
``.perfbench/spans/``.  ``--overlay`` adds scenario overlays (the engine
comparison uses ``overlays/batched.toml``); ``--record-digests`` adds
this run's digests to ``digests.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".perfbench"
sys.path.insert(0, str(BENCH))

from gate import DIGESTS_PATH, combined, gate, load_recorded  # noqa: E402
from hostclock import REFERENCE_BURST_S  # noqa: E402
from layers import PER_LAYER_UNITS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

END_TO_END_UNITS = {"sim_instr_per_s": "instr/s", "setup_s": "s",
                    "peak_rss_mb": "MB"}

#: No sample starts after this many seconds, and a hung worker is stopped
#: 20 s later, so every run ends within three minutes.
HARD_LIMIT_S = 150.0

#: Set-ups whose median ``setup_s`` reports.  One set-up varies by about
#: 8% (README.md); with only the two or three of a 20-s ``fig5_sweep``
#: run, the middle half of ten runs spread by up to 13% of their median.
MIN_SETUPS = 8

#: Paper's Fig. 4 stack for the base machine (EXPERIMENTS.md, Fig. 4).
PAPER_FIG4 = ("paper (Fig. 4, read from the figure): total ~1.7 CPI = "
              "1.238 base + L1-I ~0.08 + L1-D ~0.11 + L1 writes 0.071 + "
              "WB small + L2 ~0.2")


def worker_env() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    env["TMPDIR"] = str(OUT / "tmp")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    return env


def _stop(process: subprocess.Popen, node_pid_file: Path) -> None:
    """End a worker that overran, and the node it may have booted."""
    process.send_signal(signal.SIGTERM)
    try:
        process.wait(timeout=15)
    except subprocess.TimeoutExpired:
        process.kill()
        process.wait()
    try:
        pid = int(node_pid_file.read_text())
    except (OSError, ValueError):
        return
    try:
        os.kill(pid, signal.SIGKILL)
    except OSError:
        return
    while Path(f"/proc/{pid}").exists():
        time.sleep(0.05)


def run_sample(args, index: int, traced: bool, timeout: float,
               setup_only: bool = False) -> dict:
    workdir = OUT / "tmp" / f"{args.workload}-{args.seed}-{os.getpid()}-{index}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    command = [sys.executable, str(BENCH / "worker.py"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--dir", str(workdir)]
    for overlay in args.overlay:
        command += ["--overlay", overlay]
    if traced:
        command.append("--traced")
    if setup_only:
        command.append("--setup-only")
    log_path = workdir / "worker.log"
    try:
        with open(log_path, "w", encoding="utf-8") as log:
            spawned_at = time.monotonic()
            process = subprocess.Popen(
                command + ["--spawned-at", repr(spawned_at)],
                cwd=ROOT, env=worker_env(), stdout=log, stderr=log)
            try:
                process.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                _stop(process, workdir / "node.pid")
                return {"ok": False, "traced": traced,
                        "setup_only": setup_only,
                        "error": f"timed out after {timeout:.0f}s"}
        try:
            result = json.loads((workdir / "result.json").read_text())
        except (OSError, ValueError):
            result = {"ok": False,
                      "error": f"worker exited {process.returncode} "
                               "without a result"}
        if not result.get("ok"):
            sys.stderr.write(log_path.read_text()[-4000:])
        if traced and result.get("ok"):
            spans = OUT / "spans"
            spans.mkdir(parents=True, exist_ok=True)
            shutil.copyfile(workdir / "spans.jsonl", spans /
                            f"{args.workload}-seed{args.seed}-{index}.jsonl")
        result["traced"] = traced
        result["setup_only"] = setup_only
        return result
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def summary(values) -> dict:
    values = list(values)
    if len(values) > 1:
        q1, median, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = median = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values)}


def host_facts() -> dict:
    import numpy

    return {"nproc": len(os.sched_getaffinity(0)),
            "loadavg": list(os.getloadavg()),
            "python": platform.python_version(),
            "numpy": numpy.__version__}


def record_digests(samples) -> int:
    """Add the run's (gate-checked) point digests to ``digests.json``."""
    recorded = load_recorded()
    added = 0
    for s in samples:
        for label, inputs, digest in zip(s["labels"], s["inputs"],
                                         s["digests"]):
            if inputs not in recorded:
                added += 1
            recorded[inputs] = {"workload": s["workload"], "seed": s["seed"],
                                "label": label, "stats": digest}
    DIGESTS_PATH.write_text(json.dumps({"points": recorded}, indent=1,
                                       sort_keys=True) + "\n",
                            encoding="utf-8")
    return added


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Layered benchmark of the repro cache simulator.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--overlay", action="append", default=[],
                        help="extra scenario overlay, relative to the "
                             "checkout root")
    parser.add_argument("--record-digests", action="store_true")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    missing = [p for p in ("src/repro/__init__.py", "scenarios/fig4.toml",
                           "scenarios/fig5.toml") if not (ROOT / p).exists()]
    if missing:
        print(f"perfbench: not a repro checkout ({', '.join(missing)} "
              f"missing under {ROOT})", file=sys.stderr)
        return 2

    # Byte-compile up front so no sample's set-up pays for compilation.
    subprocess.run([sys.executable, "-m", "compileall", "-q",
                    str(ROOT / "src"), str(BENCH)], check=True,
                   stdout=subprocess.DEVNULL)
    started = time.monotonic()
    samples = []
    while True:
        traced = bool(args.trace) and len(samples) % 2 == 1
        elapsed = time.monotonic() - started
        samples.append(run_sample(args, len(samples), traced,
                                  timeout=HARD_LIMIT_S + 20 - elapsed))
        elapsed = time.monotonic() - started
        last = elapsed / len(samples)
        enough = (not args.trace or len(samples) >= 2)
        if enough and (elapsed >= args.seconds
                       or elapsed + 1.5 * last > HARD_LIMIT_S):
            break
    while not args.trace and len(samples) < MIN_SETUPS:
        elapsed = time.monotonic() - started
        if elapsed > HARD_LIMIT_S:
            break
        samples.append(run_sample(args, len(samples), False,
                                  timeout=HARD_LIMIT_S + 20 - elapsed,
                                  setup_only=True))

    attempted, failed, digest_status, reasons = gate(samples,
                                                     load_recorded())
    ok = [s for s in samples if s.get("ok") and not s["setup_only"]]
    plain = [s for s in ok if not s["traced"]]
    traced = [s for s in ok if s["traced"]]
    setups = [s for s in samples if s.get("ok") and not s["traced"]]
    if not plain or (args.trace and not traced):
        print(f"perfbench: no successful sample of {args.workload}",
              file=sys.stderr)
        return 1

    if args.trace:
        units = PER_LAYER_UNITS
        values = {name: [s["layers"][name] for s in traced]
                  for name in units if name != "tracing.overhead_x"}
        values["tracing.overhead_x"] = [
            statistics.median(s["op_wall_s"] for s in traced)
            / statistics.median(s["op_wall_s"] for s in plain)]
    else:
        units = END_TO_END_UNITS
        values = {
            "sim_instr_per_s": [s["instructions"] / s["op_ref_s"]
                                for s in plain],
            "setup_s": [s["setup_ref_s"] for s in setups],
            "peak_rss_mb": [s["peak_rss_mb"] for s in plain],
        }
        wall = {
            "sim_instr_per_s": statistics.median(
                s["instructions"] / s["op_wall_s"] for s in plain),
            "setup_s": statistics.median(s["setup_wall_s"] for s in setups),
            "burst_us": 1e6 * statistics.median(s["op_burst_s"]
                                                for s in plain),
        }
    stats = {name: summary(values[name]) for name in units}

    facts = host_facts()
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"samples={len(samples)} nproc={facts['nproc']} "
          f"load={facts['loadavg']} python={facts['python']} "
          f"numpy={facts['numpy']} engine={ok[0]['engine']}")
    for name, st in stats.items():
        print(f"  {name:28s} median={st['median']:<14.6g} "
              f"q1={st['q1']:<14.6g} q3={st['q3']:<14.6g} n={st['n']} "
              f"{units[name]}")
    if not args.trace:
        print(f"  wall clock: sim_instr_per_s {wall['sim_instr_per_s']:.6g} "
              f"instr/s, setup_s {wall['setup_s']:.4g} s; probe burst "
              f"{wall['burst_us']:.1f} us here, "
              f"{REFERENCE_BURST_S * 1e6:.0f} us on the reference host")
    print(f"  gate: {attempted} samples attempted ("
          f"{sum(s['setup_only'] for s in samples)} set-up only), "
          f"{failed} failed; digest "
          f"check {digest_status}; op digest "
          f"{combined(ok[0]['digests'])[:16]} inputs "
          f"{combined(ok[0]['inputs'])[:16]}")
    for reason in reasons:
        print(f"    {reason}")
    stack = {k.split(".")[-1]: v for k, v in ok[0]["model"].items()
             if k != "model.cpi"}
    cpi = ok[0]["model"]["model.cpi"]
    print(f"  model: CPI {cpi:.4f} = {cpi - sum(stack.values()):.3f} base + "
          + " + ".join(f"{k} {v:.4f}" for k, v in stack.items()))
    print(f"  {PAPER_FIG4}; the model is checked only against the paper's "
          "published figures, and absolute miss ratios run 1.2-10x the "
          "paper's (EXPERIMENTS.md divergence 1)")

    if args.record_digests and failed == 0:
        print(f"  recorded {record_digests(ok)} new point digests in "
              f"{DIGESTS_PATH.name}")

    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}-"
     f"{stamp}.json").write_text(json.dumps({
         "workload": args.workload, "seed": args.seed,
         "trace": args.trace, "overlays": args.overlay, "host": facts,
         "attempted": attempted, "failed": failed,
         "digest_check": digest_status, "metrics": stats, "units": units,
         "wall_clock": None if args.trace else wall,
         "samples": samples}, indent=1), encoding="utf-8")

    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": st["median"], "unit": units[name]}
                    for name, st in stats.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
