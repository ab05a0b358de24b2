"""Chaos storms: serving, distributing and resuming a sweep never change
a bit of its results.

Each storm is a plain function that arms its own faults, checks every
promise of its layer against ground truth from the bare simulator
(computed before any fault is armed), and returns a :class:`ChaosReport`:

* :func:`serve_storm` — concurrent clients against a real
  :class:`~repro.serve.server.SimServer` while a saboteur byte-flips its
  cache and :data:`~repro.robust.faults.WORKER_FAULT_ENV` crashes and
  stalls its workers.  Every 200 equals ground truth, every failure is a
  429, 503, 504, 500 or transport error, no hopeless request gets a 200,
  and a drain under load ends within its grace with no worker alive;
* :func:`grid_storm` — a sweep over real backends
  (:class:`~repro.grid.backends.BackendPool`): one is SIGKILLed at the
  2nd resolved point, one SIGSTOPped at the 3rd, the third's cache
  corrupted throughout.  No point is lost or diverges, the killed node
  ends quarantined, and the stopped one is re-admitted after SIGCONT;
* :func:`durable_storm` — a journaled coordinator SIGKILLed right after
  a chosen journal append (:data:`~repro.durable.journal.CRASH_ENV`),
  then resumed: results, telemetry, journal (readable, untorn, sealed,
  one ``point_done`` per point) and cache (one entry per point) are
  checked.  A ``jobs=2`` coordinator is crashed too, and a worker frozen
  past its lease (``freeze_once``) must be reclaimed by the watchdog.

Usage::

    repro-chaos serve --duration 6
    repro-chaos grid --points 6 --instructions 12000
    repro-chaos durable --points 3 --instructions 4000
    repro-chaos durable --offsets 3 5 --no-stall --json

(also ``python -m repro.chaos``); the exit code is 1 on any violation.
"""

from __future__ import annotations

import argparse
import collections
import dataclasses
import json
import multiprocessing
import os
import random
import signal
import sys
import tempfile
import threading
import time
import urllib.request
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.config import base_architecture
from repro.core.simulator import simulate
from repro.durable import DurableSettings
from repro.durable.journal import CRASH_ENV, read_records, replay_records
from repro.errors import GridError, JournalError, ServeError, cli_errors
from repro.farm.cache import ResultCache
from repro.farm.points import PointSpec, run_points
from repro.farm.telemetry import RunTelemetry
from repro.grid.backends import BackendPool
from repro.grid.dispatcher import GridDispatcher, GridSettings, wire_body
from repro.robust.atomic import atomic_write_text
from repro.robust.faults import (WORKER_FAULT_ENV, FaultInjector,
                                 worker_fault_spec)
from repro.serve.client import RetryPolicy, ServeClient
from repro.serve.server import ServeSettings, SimServer
from repro.trace.benchmarks import default_suite

#: Cycles per time slice of every storm point.
TIME_SLICE = 2000

# ------------------------------------------------------------ serve storm

#: Concurrent storm clients; every ``HOPELESS_EVERY``-th request of each
#: is a hopeless one.
SERVE_CLIENTS = 4
HOPELESS_EVERY = 8
#: A hopeless request runs this many instructions against
#: ``HOPELESS_DEADLINE_S``.  The pool accepts a result that is ready
#: within one poll after the deadline, so the simulation must take far
#: longer than that window, or a hopeless request would be served (and
#: cached, making every later one a 200 hit).
HOPELESS_INSTRUCTIONS = 20_000_000
HOPELESS_DEADLINE_S = 0.05
#: Deadline of every other request, seconds.
SERVE_DEADLINE_S = 15.0
#: Per-attempt worker crash and stall probabilities, and the stall.
WORKER_CRASH_P = 0.25
WORKER_STALL_P = 0.35
WORKER_STALL_S = 1.2
#: One executor behind a two-deep queue: stalls pin the executor, which
#: is what fills the queue and forces 429 shedding.
QUEUE_DEPTH = 2
SERVE_WORKERS = 1
SERVE_RETRIES = 3
DRAIN_GRACE_S = 30.0
SERVE_CORRUPT_EVERY_S = 0.2
#: Families the ``/metrics`` exposition must declare.
METRICS_FAMILIES = ("serve_requests_total", "serve_responses_total",
                    "serve_executor_total", "serve_queue_depth",
                    "serve_draining", "farm_points_total")
#: How :func:`serve_storm` files each failure status (0 = transport).
_FAILURES = {429: "shed", 504: "deadline_expired", 503: "unavailable",
             500: "server_error", 0: "transport_errors"}

# ------------------------------------------------------------- grid storm

#: Backends of the grid storm: index 0 is killed, 1 stalled, 2 corrupted.
BACKENDS = 3
#: Resolved points at which the kill and the stall fire (mid-sweep: the
#: sweep resolves every point twice).
KILL_AT = 2
STALL_AT = 3
GRID_CORRUPT_EVERY_S = 0.1
#: Seed of the grid storm's cache saboteur.
GRID_SEED = 0
#: Dispatcher policy sized for a fast storm: quick quarantine, short
#: stuck-socket timeouts.
GRID_SETTINGS = GridSettings(
    quarantine_after=2, readmit_after_s=20.0, probe_interval_s=0.5,
    probe_timeout_s=2.0, request_timeout_s=10.0, attempt_budget_s=12.0)

# ---------------------------------------------------------- durable storm

#: Resume attempts per crash before the journal counts as unrecoverable
#: (one should always do; the bound catches a resume that keeps crashing).
MAX_RESUMES = 3
#: Lease and heartbeat of the journaled sweeps: tight, so the watchdog's
#: verdict on the frozen worker lands in seconds.
LEASE_S = 3.0
HEARTBEAT_S = 0.5
#: Wall-clock guard on each coordinator subprocess.
CHILD_TIMEOUT_S = 120.0


@dataclass
class ChaosReport:
    """What one storm produced: its counts and every broken promise."""

    storm: str
    counts: Dict[str, Any] = field(default_factory=dict)
    violations: List[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.violations

    def render(self) -> str:
        lines = [f"== {self.storm} chaos report =="]
        lines.extend(f"{name:<22}: {value}"
                     for name, value in self.counts.items())
        lines.append(f"{'violations':<22}: {len(self.violations)}")
        lines.extend(f"  VIOLATION: {v}" for v in self.violations)
        return "\n".join(lines)


def _specs(storm: str, points: int, instructions: int) -> List[PointSpec]:
    """``points`` one-benchmark specs of the base machine with distinct
    workload sizes, hence distinct content addresses."""
    config = base_architecture()
    return [PointSpec(
        label=f"{storm}-{i}", config=config, time_slice=TIME_SLICE,
        profiles=tuple(default_suite(instructions + 250 * i)[:1]))
        for i in range(points)]


def hopeless_spec() -> PointSpec:
    """The serve storm's hopeless point: it never finishes within
    :data:`HOPELESS_DEADLINE_S`, so a 504 is its one honest answer."""
    return _specs("hopeless", 1, HOPELESS_INSTRUCTIONS)[0]


def _ground_truth(specs: Sequence[PointSpec]) -> List[Dict[str, Any]]:
    return [simulate(spec.config, list(spec.profiles),
                     time_slice=spec.time_slice).to_dict()
            for spec in specs]


class _Saboteur(threading.Thread):
    """Byte-flips random entries of one result cache until stopped."""

    def __init__(self, cache_root: Path, period_s: float, seed: int):
        super().__init__(name="chaos-saboteur", daemon=True)
        self.cache_root = cache_root
        self.period_s = period_s
        self.injector = FaultInjector(seed=seed)
        self.rng = random.Random(seed)
        self.stop = threading.Event()
        self.corruptions = 0

    def run(self) -> None:
        while not self.stop.wait(self.period_s):
            entries = list(self.cache_root.glob("*.json"))
            if not entries:
                continue
            try:
                self.injector.corrupt_file(
                    self.rng.choice(entries), offset=self.rng.randrange(64),
                    kind="corrupt_cache_entry")
                self.corruptions += 1
            except (OSError, IndexError, ValueError):
                continue  # entry vanished or shrank mid-flip: fine


# ------------------------------------------------------------ serve storm


def _send(client: ServeClient, body: Dict[str, Any],
          truth: Optional[Dict[str, Any]], name: str, budget_s: float,
          report: ChaosReport, lock: threading.Lock) -> None:
    """Send one request and file its outcome in ``report``;
    ``truth=None`` marks a hopeless request."""
    counts = report.counts
    with lock:
        counts["requests"] += 1
        if truth is None:
            counts["hopeless_sent"] += 1
    try:
        result = client.simulate(body, budget_s=budget_s)
    except ServeError as exc:
        with lock:
            if exc.status in _FAILURES:
                counts[_FAILURES[exc.status]] += 1
            else:
                report.violations.append(
                    f"unclassified failure status {exc.status}: {exc}")
        return
    with lock:
        if truth is None:
            report.violations.append(
                "hopeless request (deadline far below simulation time) "
                "returned 200 — deadline not enforced")
            return
        counts["ok"] += 1
        counts["ok_cached"] += bool(result.get("cached"))
        if result.get("stats") != truth:
            report.violations.append(
                f"{name}: 200 response diverged from ground truth "
                f"(cached={result.get('cached')})")


def _run_threads(threads: List[threading.Thread], timeout_s: float) -> None:
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=timeout_s)


def serve_storm(duration_s: float = 6.0, points: int = 3,
                instructions: int = 6000, seed: int = 0) -> ChaosReport:
    """Storm one in-process server for ``duration_s`` seconds of client
    load over ``points`` distinct points; see the module doc."""
    report = ChaosReport("serve", dict.fromkeys(
        ("requests", "ok", "ok_cached", "hopeless_sent",
         *_FAILURES.values()), 0))
    lock = threading.Lock()
    # The clients' points, then a burst of twice what the server holds.
    specs = _specs("serve", points + 2 * (QUEUE_DEPTH + SERVE_WORKERS),
                   instructions)
    bodies = [dict(wire_body(spec), deadline_s=SERVE_DEADLINE_S)
              for spec in specs]
    truths = _ground_truth(specs)
    hopeless = dict(wire_body(hopeless_spec()),
                    deadline_s=HOPELESS_DEADLINE_S)

    tmp = tempfile.TemporaryDirectory(prefix="repro-chaos-cache-")
    cache_dir = Path(tmp.name)
    server = SimServer(
        ServeSettings(port=0, queue_depth=QUEUE_DEPTH, workers=SERVE_WORKERS,
                      default_deadline_s=SERVE_DEADLINE_S,
                      max_deadline_s=30.0,
                      drain_grace_s=DRAIN_GRACE_S, retries=SERVE_RETRIES),
        cache=ResultCache(cache_dir))
    server.start()
    base_url = f"http://127.0.0.1:{server.port}"

    def client_loop(client: ServeClient, rng: random.Random,
                    phase: int) -> None:
        # Client i sends its hopeless requests i requests after client 0,
        # whose first request is one: however short the storm, a
        # hopeless request meets the armed faults.
        sent = -phase
        while time.monotonic() < stop_at:
            if sent % HOPELESS_EVERY == 0:
                # Every attempt of a hopeless request is a 504, so
                # retrying it at length proves nothing: a short budget.
                _send(client, dict(hopeless), None, "hopeless request", 1.0,
                      report, lock)
            else:
                index = rng.randrange(points)
                _send(client, dict(bodies[index]), truths[index],
                      f"point {index}", 10.0, report, lock)
            sent += 1

    saboteur = _Saboteur(cache_dir, SERVE_CORRUPT_EVERY_S, seed)
    previous_faults = os.environ.get(WORKER_FAULT_ENV)
    try:
        # A hopeless request to the idle, fault-free server is admitted
        # (the queue is empty) and cannot finish: its one answer is 504.
        single_shot = RetryPolicy(max_attempts=1)
        os.environ.pop(WORKER_FAULT_ENV, None)
        _send(ServeClient(base_url, retry=single_shot), dict(hopeless), None,
              "hopeless request", SERVE_DEADLINE_S, report, lock)
        saboteur.start()
        # Every burst worker stalls, so the executor holds one burst
        # request while the others arrive: more of them than the queue
        # and executors hold must be shed.
        os.environ[WORKER_FAULT_ENV] = worker_fault_spec(
            stall=1.0, stall_s=WORKER_STALL_S)
        _run_threads([threading.Thread(
            target=_send, name=f"chaos-burst-{k}", daemon=True,
            args=(ServeClient(base_url, retry=single_shot), bodies[k],
                  truths[k], f"burst point {k}", SERVE_DEADLINE_S,
                  report, lock))
            for k in range(points, len(bodies))], SERVE_DEADLINE_S + 5.0)
        os.environ[WORKER_FAULT_ENV] = worker_fault_spec(
            crash=WORKER_CRASH_P, stall=WORKER_STALL_P,
            stall_s=WORKER_STALL_S)
        stop_at = time.monotonic() + duration_s
        retry = RetryPolicy(max_attempts=4, base_delay_s=0.05,
                            max_delay_s=0.5)
        _run_threads([threading.Thread(
            target=client_loop, name=f"chaos-client-{i}", daemon=True,
            args=(ServeClient(base_url, retry=retry,
                              timeout_s=SERVE_DEADLINE_S + 5.0,
                              rng=random.Random(seed + i)),
                  random.Random(1000 + seed + i), i))
            for i in range(SERVE_CLIENTS)], duration_s + 60.0)

        # The exposition must declare every family while still serving.
        try:
            with urllib.request.urlopen(f"{base_url}/metrics",
                                        timeout=10.0) as response:
                exposition = response.read().decode("utf-8")
        except OSError as exc:
            exposition = ""
            report.violations.append(f"/metrics unavailable: {exc}")
        families = {line.split()[2] for line in exposition.splitlines()
                    if line.startswith("# TYPE ")}
        report.violations.extend(f"/metrics is missing '{name}'"
                                 for name in METRICS_FAMILIES
                                 if name not in families)
        report.counts["metrics_families"] = len(families)

        # Drain while the tail of the load may still be in flight.
        drain_started = time.monotonic()
        summary = server.drain()
        drain_wall = time.monotonic() - drain_started
        report.counts["drain"] = {"clean": summary["clean"],
                                  "cancelled": summary["cancelled"],
                                  "wall_s": round(drain_wall, 3)}
        if drain_wall > DRAIN_GRACE_S + 5.0:
            report.violations.append(
                f"drain took {drain_wall:.1f}s, grace was "
                f"{DRAIN_GRACE_S:g}s")
        leftover = multiprocessing.active_children()
        if leftover:
            report.violations.append(
                f"{len(leftover)} worker process(es) left alive after drain")
    finally:
        saboteur.stop.set()
        saboteur.join(timeout=2.0)
        if previous_faults is None:
            os.environ.pop(WORKER_FAULT_ENV, None)
        else:
            os.environ[WORKER_FAULT_ENV] = previous_faults
        tmp.cleanup()
    counts = report.counts
    counts["corruptions"] = saboteur.corruptions
    if counts["ok"] == 0:
        report.violations.append(
            "no request succeeded at all — the service never degraded "
            "gracefully, it just failed")
    if counts["hopeless_sent"] and not counts["deadline_expired"]:
        report.violations.append(
            f"{counts['hopeless_sent']} hopeless request(s) sent but no "
            "504 ever came back — deadlines are not being enforced")
    # The burst overfilled the queue while stalls pinned the executor, so
    # a server that bounds admission shed.
    if duration_s >= 4.0 and counts["shed"] == 0:
        report.violations.append(
            "full-length storm with stalling workers never produced a "
            "429 — load shedding is not working")
    return report


# ------------------------------------------------------------- grid storm


def grid_storm(points: int = 6, instructions: int = 5000) -> ChaosReport:
    """Sweep ``points`` distinct points, each dispatched twice (the
    repeat rides the sabotaged caches), over :data:`BACKENDS` real
    backends under a kill, a stall and cache corruption; see the module
    doc."""
    specs = _specs("grid", points, instructions)
    specs += [dataclasses.replace(spec, label=f"{spec.label}-again")
              for spec in specs]
    report = ChaosReport("grid", {"points": len(specs)})
    truths = _ground_truth(specs)
    resolutions = 0

    with BackendPool(BACKENDS) as pool:
        killed, stalled = pool.backends[0], pool.backends[1]
        saboteur = _Saboteur(pool.backends[2].cache_dir,
                             GRID_CORRUPT_EVERY_S, GRID_SEED)
        dispatcher = GridDispatcher(pool.urls, settings=GRID_SETTINGS)

        def on_result(_index: int, _value: Dict[str, Any]) -> None:
            # Runs once per resolved point under the dispatcher's hook
            # lock, so each fault fires exactly once, mid-sweep.
            nonlocal resolutions
            resolutions += 1
            if resolutions == KILL_AT:
                pool.kill(0)
            if resolutions == STALL_AT:
                pool.stall(1)

        try:
            saboteur.start()
            try:
                results = dispatcher.run_points(specs, on_result=on_result)
            except GridError as exc:
                report.violations.append(f"sweep raised: {exc}")
                results = []
            resolved = sum(1 for stats in results if stats is not None)
            divergent = [spec.label for spec, stats, truth
                         in zip(specs, results, truths)
                         if stats is not None and stats.to_dict() != truth]
            report.counts.update(resolved=resolved,
                                 lost=len(specs) - resolved,
                                 divergent=len(divergent))
            report.violations.extend(
                f"point {label} diverged from the serial ground truth"
                for label in divergent)
            if resolved < len(specs):
                report.violations.append(
                    f"{len(specs) - resolved} point(s) lost — the sweep "
                    "did not complete")
            was_killed = resolutions >= KILL_AT
            was_stalled = resolutions >= STALL_AT
            report.counts.update(
                killed=killed.url if was_killed else None,
                stalled=stalled.url if was_stalled else None)
            report.violations.extend(
                f"the {fault} fault never fired — the sweep resolved "
                f"fewer than {at} points"
                for fault, at in (("kill", KILL_AT), ("stall", STALL_AT))
                if resolutions < at)

            # Drive probes until the health model has seen the corpse.
            for _ in range(GRID_SETTINGS.quarantine_after + 1):
                dispatcher.registry.poll_once()
            killed_node = next(n for n in dispatcher.registry.snapshot()
                               if n["url"] == killed.url)
            if was_killed and killed_node["state"] != "quarantined":
                report.violations.append(
                    "killed backend was never quarantined — health "
                    "checking is not working")

            # The stalled backend must recover: SIGCONT, then a probe
            # succeeds and re-admission happens automatically.
            if was_stalled:
                pool.resume(1)
                node = next(n for n in dispatcher.registry.nodes
                            if n.url == stalled.url)
                deadline = time.monotonic() + 10.0
                # Probe directly rather than wait out the quarantine
                # cooldown: what is under test is that one good probe
                # re-admits, not the cooldown clock.
                while not (dispatcher.registry.probe(node)
                           and not node.quarantined):
                    if time.monotonic() >= deadline:
                        report.violations.append(
                            "stalled backend did not return to healthy "
                            "after SIGCONT — re-admission is not working")
                        break
                    time.sleep(0.2)

            values = dispatcher.metrics.snapshot()[
                "grid_points_total"]["values"]
            report.counts["sources"] = {
                "remote": values.get('["remote"]', 0),
                "local": values.get('["local"]', 0)}
            report.counts["nodes"] = {
                node["url"]: {key: node[key] for key in (
                    "state", "dispatched", "completed", "failures_total",
                    "quarantines")}
                for node in dispatcher.registry.snapshot()}
        finally:
            saboteur.stop.set()
            saboteur.join(timeout=2.0)
            dispatcher.close()
    report.counts["corruptions"] = saboteur.corruptions
    return report


# ---------------------------------------------------------- durable storm


def _coordinator_child(specs: List[PointSpec], workdir: Path, jobs: int,
                       env: Dict[str, str]) -> None:
    """Body of one coordinator subprocess: run the journaled sweep and
    write its results (or its error) to ``workdir/out.json`` — unless an
    armed crash kills it first."""
    os.environ.update(env)
    telemetry = RunTelemetry(stream=None)
    out: Dict[str, Any] = {}
    try:
        results = run_points(
            specs, jobs=jobs, cache=ResultCache(workdir / "cache"),
            telemetry=telemetry, journal=workdir / "journal",
            durable=DurableSettings(lease_s=LEASE_S,
                                    heartbeat_s=HEARTBEAT_S))
        out["results"] = [stats.to_dict() for stats in results]
        out["telemetry_points"] = sum(
            1 for e in telemetry.events if e["kind"] == "point")
    except Exception as exc:  # noqa: BLE001 - shipped to the parent
        out["error"] = f"{type(exc).__name__}: {exc}"
    atomic_write_text(workdir / "out.json", json.dumps(out))


def _coordinator(specs: List[PointSpec], workdir: Path, jobs: int,
                 env: Optional[Dict[str, str]] = None
                 ) -> Tuple[Optional[int], Dict[str, Any]]:
    """Fork-run one coordinator over ``workdir``'s journal and cache.

    Returns its exit code (negative = killed by that signal, ``None`` =
    hung past :data:`CHILD_TIMEOUT_S` and killed here) and the out file's
    contents (``{}`` when it wrote none)."""
    out_path = workdir / "out.json"
    out_path.unlink(missing_ok=True)
    (workdir / "journal").mkdir(parents=True, exist_ok=True)
    proc = multiprocessing.get_context("fork").Process(
        target=_coordinator_child, args=(specs, workdir, jobs, env or {}))
    proc.start()
    proc.join(CHILD_TIMEOUT_S)
    code = proc.exitcode
    if proc.is_alive():
        proc.kill()
        proc.join(5.0)
        code = None
    try:
        return code, json.loads(out_path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError):
        return code, {}


def _check_run(code: Optional[int], out: Dict[str, Any],
               truths: List[Dict[str, Any]], workdir: Path,
               report: ChaosReport) -> List[Dict[str, Any]]:
    """Check one journaled run that should have completed: its results,
    its telemetry, its cache and its journal's exactly-once invariants.
    Returns the journal's records (none when the run or the journal
    failed)."""
    where, points = workdir.name, len(truths)
    violations = report.violations
    if code != 0 or "results" not in out:
        violations.append(f"{where}: run failed (exitcode={code}, "
                          f"error={out.get('error')!r})")
        return []
    if out["results"] != truths:
        violations.append(
            f"{where}: results diverge from the serial ground truth")
    if out.get("telemetry_points") != points:
        violations.append(
            f"{where}: run reported {out.get('telemetry_points')} "
            f"telemetry points, expected {points} (lost or double-counted)")
    cache_entries = len(list((workdir / "cache").glob("*.json")))
    if cache_entries != points:
        violations.append(f"{where}: cache holds {cache_entries} entries, "
                          f"expected {points}")
    wals = sorted((workdir / "journal").glob("*.wal"))
    if len(wals) != 1:
        violations.append(f"{where}: expected exactly one journal file, "
                          f"found {len(wals)}")
        return []
    try:
        records, torn = read_records(wals[0])
        state = replay_records(records)
    except JournalError as exc:
        violations.append(f"{where}: final journal unreadable: {exc}")
        return []
    if torn:
        # Legal mid-crash, but the final journal was written by a
        # coordinator that exited cleanly.
        violations.append(f"{where}: final journal ends in a torn line")
    if not state.sealed:
        violations.append(f"{where}: final journal is not sealed")
    done = collections.Counter(
        r["index"] for r in records if r["rec"] == "point_done")
    if sorted(done) != list(range(points)):
        violations.append(f"{where}: point_done indices {sorted(done)} "
                          f"!= expected 0..{points - 1}")
    doubled = {i: c for i, c in done.items() if c != 1}
    if doubled:
        violations.append(f"{where}: points done more than once "
                          f"(double-counted): {doubled}")
    return records


def _crash_and_resume(specs: List[PointSpec], truths: List[Dict[str, Any]],
                      workdir: Path, jobs: int, offset: int,
                      report: ChaosReport) -> None:
    """Kill a coordinator after its ``offset``-th append, resume it
    until it seals, and check the run."""
    code, _ = _coordinator(specs, workdir, jobs, {CRASH_ENV: str(offset)})
    if code != -signal.SIGKILL:
        report.violations.append(
            f"{workdir.name}: armed crash at append {offset} did not "
            f"SIGKILL the coordinator (exitcode={code})")
        return
    report.counts["crashes"] += 1
    for _ in range(MAX_RESUMES):
        code, out = _coordinator(specs, workdir, jobs)
        report.counts["resumes"] += 1
        if code == 0 and "results" in out:
            break
    _check_run(code, out, truths, workdir, report)


def durable_storm(points: int = 3, instructions: int = 4000,
                  offsets: Optional[List[int]] = None,
                  parallel_crash: bool = True,
                  stalled_worker: bool = True) -> ChaosReport:
    """Crash a journaled sweep of ``points`` points after each journal
    append in ``offsets`` (default: every append of an uninterrupted
    reference run), plus the parallel crash and the stalled worker;
    see the module doc."""
    specs = _specs("durable", points, instructions)
    report = ChaosReport("durable", {"points": points, "crashes": 0,
                                     "resumes": 0})
    truths = _ground_truth(specs)

    with tempfile.TemporaryDirectory(prefix="repro-durable-chaos-") as td:
        tmp = Path(td)
        # The reference run counts the journal's appends, so the crash
        # scan covers every offset that can actually occur.
        records = len(_check_run(*_coordinator(specs, tmp / "reference", 1),
                                 truths, tmp / "reference", report))
        if offsets is None:
            offsets = list(range(1, records + 1))
        report.counts.update(journal_records=records, offsets_tested=offsets)

        for k in offsets:
            _crash_and_resume(specs, truths, tmp / f"offset-{k}", 1, k,
                              report)
        report.counts["parallel_crash_tested"] = parallel_crash
        if parallel_crash:
            # One mid-run offset with a 2-worker pool: recovery must not
            # depend on the serial pool's deterministic append order.
            _crash_and_resume(specs, truths, tmp / "parallel-crash", 2,
                              max(2, records // 2), report)
        report.counts["stalled_worker_tested"] = stalled_worker
        if stalled_worker:
            workdir = tmp / "stalled-worker"
            marker = workdir / "freeze.marker"
            run = _coordinator(specs, workdir, 2, {
                WORKER_FAULT_ENV: worker_fault_spec(freeze_once=str(marker))})
            reclaims = sum(1 for r in _check_run(*run, truths, workdir, report)
                           if r["rec"] == "point_reclaimed")
            report.counts["watchdog_reclaims"] = reclaims
            if not marker.exists():
                report.violations.append(
                    "stalled-worker: the freeze fault never fired")
            if reclaims < 1:
                report.violations.append(
                    "stalled-worker: no point_reclaimed record — the "
                    "lease watchdog never declared the frozen worker stuck")
    return report


# -------------------------------------------------------------------- CLI

STORMS = {"serve": serve_storm, "grid": grid_storm,
          "durable": durable_storm}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-chaos",
        description="Fault storms against the service, the grid and the "
                    "run journal; exit 1 on any violation.")
    # Unset flags stay out of the namespace, so each storm function's own
    # defaults apply.
    sub = parser.add_subparsers(dest="storm", required=True)
    serve = sub.add_parser(
        "serve", argument_default=argparse.SUPPRESS,
        help="cache corruption, worker crashes and stalls against one "
             "server")
    serve.add_argument("--duration", dest="duration_s", type=float,
                       help="seconds of client load (default 6)")
    grid = sub.add_parser(
        "grid", argument_default=argparse.SUPPRESS,
        help="kill, stall and cache corruption against three backends")
    durable = sub.add_parser(
        "durable", argument_default=argparse.SUPPRESS,
        help="SIGKILL the coordinator at every journal offset")
    for storm in (grid, durable):
        storm.add_argument("--points", type=int,
                           help="distinct sweep points")
        storm.add_argument("--instructions", type=int,
                           help="instructions of the first point (each "
                                "next point runs 250 more)")
    durable.add_argument("--json", action="store_true",
                         help="print the report as JSON")
    durable.add_argument("--offsets", type=int, nargs="+", metavar="K",
                         help="crash only after these journal appends "
                              "(default: every offset)")
    durable.add_argument("--no-parallel", dest="parallel_crash",
                         action="store_false",
                         help="skip the jobs=2 crash")
    durable.add_argument("--no-stall", dest="stalled_worker",
                         action="store_false",
                         help="skip the stalled-worker (SIGSTOP) run")
    return parser


@cli_errors
def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    kwargs = vars(build_parser().parse_args(argv))
    storm, as_json = kwargs.pop("storm"), kwargs.pop("json", False)
    started = time.monotonic()
    report = STORMS[storm](**kwargs)
    report.counts["wall_s"] = round(time.monotonic() - started, 1)
    if as_json:
        print(json.dumps(dict(dataclasses.asdict(report),
                              passed=report.passed), indent=1))
    else:
        print(report.render(), flush=True)
    return 0 if report.passed else 1


if __name__ == "__main__":  # pragma: no cover - exercised via CLI
    sys.exit(main())
