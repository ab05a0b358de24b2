"""Multi-node chaos: kill, stall, and corrupt the pool mid-sweep.

The single-node storm (:mod:`repro.serve.chaos`) proves one server
degrades honestly.  This harness proves the *grid* does, with real
subprocess backends (:class:`~repro.grid.backends.BackendPool`) under
simultaneous, distinct faults:

* one backend is **SIGKILLed** mid-sweep — the node crash.  Its
  in-flight points fail, get retried on surviving nodes, and the health
  poller quarantines it;
* another is **SIGSTOPped** — the stall/partition: its socket accepts
  but nothing answers.  Straggler detection hedges its points onto
  healthy nodes and the stuck attempts die by timeout;
* a saboteur thread **byte-flips cache entries** of a third backend the
  whole time — served-from-cache corruption.  The server's checksummed
  cache turns each hit into a miss, and the dispatcher's response
  validation (content address + bit-exact stats round-trip) rejects
  anything that slips through.

The contract, asserted point by point against ground truth computed
serially *before* any backend is launched:

1. the sweep **completes with zero lost points** — every spec produces
   exactly one result, even though a third of the pool is dead and
   another third is catatonic;
2. every result is **bit-identical to the serial simulation** — faults
   may cost retries, hedges, and local fallbacks, never a wrong CPI;
3. the killed backend ends up **quarantined** (the health model actually
   noticed), and the stalled one recovers after SIGCONT.

:func:`run_grid_chaos` returns a :class:`GridChaosReport`;
``report.passed`` is the single bit CI cares about.
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional

from repro.core.config import base_architecture
from repro.core.simulator import simulate
from repro.errors import GridError
from repro.farm.points import PointSpec
from repro.grid.backends import BackendPool
from repro.grid.dispatcher import GridDispatcher, GridSettings
from repro.robust.faults import FaultInjector
from repro.trace.benchmarks import default_suite


@dataclass
class GridChaosSettings:
    """Knobs for one multi-node storm; defaults are CI-sized."""

    backends: int = 3
    #: Distinct sweep points; each is dispatched twice (the repeat rides
    #: the backends' caches, which is what the saboteur is corrupting).
    points: int = 6
    instructions: int = 5000
    time_slice: int = 2000
    #: Resolved-point counts at which each fault fires (the sweep is
    #: underway, not finished).
    kill_after_points: int = 2
    stall_after_points: int = 3
    #: Backend indices receiving each fault.
    kill_index: int = 0
    stall_index: int = 1
    corrupt_index: int = 2
    corrupt_every_s: float = 0.1
    #: Dispatcher policy sized for a fast storm: quick quarantine, quick
    #: hedges, short stuck-socket timeouts.
    quarantine_after: int = 2
    readmit_after_s: float = 20.0
    probe_interval_s: float = 0.5
    request_timeout_s: float = 10.0
    attempt_budget_s: float = 12.0
    hedge_after_s: float = 1.5
    isolation: str = "auto"
    seed: int = 0


@dataclass
class GridChaosReport:
    """What the storm produced."""

    points: int = 0
    resolved: int = 0
    lost: int = 0
    divergent: int = 0
    corruptions_injected: int = 0
    killed: Optional[str] = None
    stalled: Optional[str] = None
    sources: Dict[str, int] = field(default_factory=dict)
    nodes: List[Dict[str, Any]] = field(default_factory=list)
    violations: List[str] = field(default_factory=list)
    wall_s: float = 0.0

    @property
    def passed(self) -> bool:
        return not self.violations

    def render(self) -> str:
        lines = [
            "== grid chaos report ==",
            f"points            : {self.points}",
            f"  resolved        : {self.resolved}",
            f"  lost            : {self.lost}",
            f"  divergent       : {self.divergent}",
            f"sources           : {self.sources}",
            f"killed backend    : {self.killed}",
            f"stalled backend   : {self.stalled}",
            f"corruptions       : {self.corruptions_injected}",
            f"wall              : {self.wall_s:.1f}s",
            f"violations        : {len(self.violations)}",
        ]
        lines.extend(f"  VIOLATION: {v}" for v in self.violations)
        for node in self.nodes:
            lines.append(
                f"  node {node['url']}: {node['state']}, "
                f"dispatched={node['dispatched']} "
                f"completed={node['completed']} "
                f"failures={node['failures_total']} "
                f"quarantines={node['quarantines']}")
        return "\n".join(lines)


def _chaos_specs(settings: GridChaosSettings) -> List[PointSpec]:
    """``points`` distinct specs (distinct workload sizes → distinct
    content addresses), each listed twice so the second pass exercises
    the backends' (sabotaged) caches."""
    config = base_architecture()
    specs = []
    for i in range(settings.points):
        instructions = settings.instructions + 250 * i
        profiles = tuple(default_suite(instructions)[:1])
        specs.append(PointSpec(
            label=f"chaos-{i}", config=config, profiles=profiles,
            time_slice=settings.time_slice))
    return specs + [PointSpec(
        label=f"{spec.label}-again", config=spec.config,
        profiles=spec.profiles, time_slice=spec.time_slice)
        for spec in specs]


class _CacheSaboteur(threading.Thread):
    """Byte-flips one backend's cache entries until told to stop."""

    def __init__(self, cache_root: Path, period_s: float, seed: int):
        super().__init__(name="grid-chaos-saboteur", daemon=True)
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
            target = self.rng.choice(entries)
            try:
                self.injector.corrupt_file(
                    target, offset=self.rng.randrange(64),
                    kind="corrupt_backend_cache")
                self.corruptions += 1
            except (OSError, IndexError, ValueError):
                continue  # entry vanished mid-flip: fine


class _FaultScheduler(threading.Thread):
    """Fires kill/stall once the dispatcher has resolved enough points —
    guaranteeing the faults land *mid-sweep*, not before or after."""

    def __init__(self, dispatcher: GridDispatcher, pool: BackendPool,
                 settings: GridChaosSettings):
        super().__init__(name="grid-chaos-faults", daemon=True)
        self.dispatcher = dispatcher
        self.pool = pool
        self.settings = settings
        self.stop = threading.Event()
        self.killed = False
        self.stalled = False

    def _resolved(self) -> int:
        snapshot = self.dispatcher.metrics.snapshot()
        values = snapshot["grid_points_total"]["values"]
        return sum(values.values())

    def run(self) -> None:
        while not self.stop.wait(0.05):
            resolved = self._resolved()
            if (not self.killed
                    and resolved >= self.settings.kill_after_points):
                self.pool.kill(self.settings.kill_index)
                self.killed = True
            if (not self.stalled
                    and resolved >= self.settings.stall_after_points):
                self.pool.stall(self.settings.stall_index)
                self.stalled = True
            if self.killed and self.stalled:
                return


def run_grid_chaos(settings: Optional[GridChaosSettings] = None,
                   stream=None) -> GridChaosReport:
    """Run the full multi-node storm; see the module doc."""
    settings = settings or GridChaosSettings()
    if settings.backends < 3:
        raise GridError("the grid storm needs at least 3 backends "
                        "(one to kill, one to stall, one to corrupt)")
    report = GridChaosReport()
    started = time.monotonic()

    specs = _chaos_specs(settings)
    report.points = len(specs)
    # Serial ground truth before any backend exists: the bare simulator,
    # nothing shared with the system under test.
    truths = [simulate(spec.config, list(spec.profiles),
                       time_slice=spec.time_slice).to_dict()
              for spec in specs]

    grid_settings = GridSettings(
        quarantine_after=settings.quarantine_after,
        readmit_after_s=settings.readmit_after_s,
        probe_interval_s=settings.probe_interval_s,
        probe_timeout_s=2.0,
        request_timeout_s=settings.request_timeout_s,
        attempt_budget_s=settings.attempt_budget_s,
        hedge_after_s=settings.hedge_after_s)
    with BackendPool(settings.backends, isolation=settings.isolation,
                     deadline_s=60.0) as pool:
        saboteur = _CacheSaboteur(
            pool.backends[settings.corrupt_index].cache_dir,
            settings.corrupt_every_s, settings.seed)
        dispatcher = GridDispatcher(pool.urls, settings=grid_settings)
        scheduler = _FaultScheduler(dispatcher, pool, settings)
        try:
            saboteur.start()
            scheduler.start()
            try:
                results = dispatcher.run_points(specs)
            except GridError as exc:
                report.violations.append(f"sweep raised: {exc}")
                results = []
            report.wall_s = time.monotonic() - started
            report.killed = (pool.backends[settings.kill_index].url
                             if scheduler.killed else None)
            report.stalled = (pool.backends[settings.stall_index].url
                              if scheduler.stalled else None)

            report.resolved = sum(1 for r in results if r is not None)
            report.lost = report.points - report.resolved
            for i, stats in enumerate(results):
                if stats is not None and stats.to_dict() != truths[i]:
                    report.divergent += 1
                    report.violations.append(
                        f"point {specs[i].label} diverged from the serial "
                        "ground truth")
            if report.lost:
                report.violations.append(
                    f"{report.lost} point(s) lost — the sweep did not "
                    "complete")
            if not scheduler.killed:
                report.violations.append(
                    "the kill fault never fired — the sweep finished "
                    "before reaching kill_after_points")
            if not scheduler.stalled:
                report.violations.append(
                    "the stall fault never fired — the sweep finished "
                    "before reaching stall_after_points")

            # Drive probes until the health model has seen the corpse.
            killed_url = pool.backends[settings.kill_index].url
            for _ in range(settings.quarantine_after + 1):
                dispatcher.registry.poll_once()
            killed_node = next(
                n for n in dispatcher.registry.snapshot()
                if n["url"] == killed_url)
            if scheduler.killed and killed_node["state"] != "quarantined":
                report.violations.append(
                    "killed backend was never quarantined — health "
                    "checking is not working")

            # The stalled backend must recover: SIGCONT, then a probe
            # succeeds and re-admission happens automatically.
            if scheduler.stalled:
                pool.resume(settings.stall_index)
                stalled_url = pool.backends[settings.stall_index].url
                stalled_node = next(n for n in dispatcher.registry.nodes
                                    if n.url == stalled_url)
                recovered = False
                deadline = time.monotonic() + 10.0
                while time.monotonic() < deadline:
                    # Probe directly rather than waiting out the
                    # quarantine cooldown: what's under test is that one
                    # good probe re-admits, not the cooldown clock.
                    if (dispatcher.registry.probe(stalled_node)
                            and not stalled_node.quarantined):
                        recovered = True
                        break
                    time.sleep(0.2)
                if not recovered:
                    report.violations.append(
                        "stalled backend did not return to healthy after "
                        "SIGCONT — re-admission is not working")

            values = dispatcher.metrics.snapshot()[
                "grid_points_total"]["values"]
            report.sources = {
                "remote": values.get('["remote"]', 0),
                "local": values.get('["local"]', 0),
            }
            report.nodes = dispatcher.registry.snapshot()
        finally:
            scheduler.stop.set()
            scheduler.join(timeout=2.0)
            saboteur.stop.set()
            saboteur.join(timeout=2.0)
            dispatcher.close()
    report.corruptions_injected = saboteur.corruptions
    if stream is not None:
        print(report.render(), file=stream, flush=True)
    return report
