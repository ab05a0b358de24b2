"""Sweep points as farm tasks: specify, address, execute, memoize.

A :class:`PointSpec` bundles everything a sweep point needs; its
:meth:`~PointSpec.payload` is the canonical dict that (a) hashes to the
cache key and (b) ships to a pool worker, which rebuilds the simulation
from it via :mod:`repro.core.serialization`.  Because worker and key share
one description, a cached result is by construction the result of the
keyed computation.

:func:`run_points` is the farm's main entry and the one sweep-point path:
cache-probe every point, execute the misses through the local pool
(:func:`repro.farm.pool.run_tasks`) or a grid dispatcher, store, journal
and narrate each result, and return stats **in input order** — callers
cannot observe whether a point came from silicon or disk, nor from which
executor.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.config import SystemConfig
from repro.core.engine import DEFAULT_ENGINE
from repro.core.stats import SimStats
from repro.farm.cache import ResultCache, payload_key, point_payload
from repro.farm.pool import run_tasks
from repro.farm.telemetry import RunTelemetry
from repro.params import DEFAULT_TIME_SLICE
from repro.trace.synthetic import BenchmarkProfile


@dataclass(frozen=True)
class PointSpec:
    """One sweep point, fully specified."""

    label: str
    config: SystemConfig
    profiles: Tuple[BenchmarkProfile, ...]
    time_slice: int = DEFAULT_TIME_SLICE
    level: Optional[int] = None
    warmup_instructions: int = 0
    max_instructions: Optional[int] = None
    engine: str = DEFAULT_ENGINE
    #: Energy accounting technology name (``None`` = disabled); the
    #: *derived model* joins the payload, so it is part of the cache key.
    energy: Optional[str] = None
    #: ``scenario_sha256`` of the resolved scenario document this point
    #: was launched from (``None`` = no scenario).  Inert for execution,
    #: but part of the payload and therefore the cache key — a scenario's
    #: results are addressed under the scenario's own content identity.
    scenario: Optional[str] = None

    def payload(self) -> Dict[str, Any]:
        """Canonical dict: cache-key preimage and worker input."""
        return point_payload(self.config, self.profiles, self.time_slice,
                             self.level, self.warmup_instructions,
                             self.max_instructions, self.engine,
                             self.energy, self.scenario)

    def key(self) -> str:
        """Content address of this point."""
        return payload_key(self.payload())


def execute_point(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Run one canonical point payload; the pool's task function.

    Returns a picklable dict: the stats snapshot plus wall-clock so the
    parent's telemetry can attribute time spent in workers, and an ``obs``
    snapshot of this process's global metrics registry so forked workers
    ship their counters back over the existing result channel (the parent
    folds them in; see :func:`run_points`).

    This is the farm's process-fault boundary: when the chaos harness arms
    :data:`repro.robust.faults.WORKER_FAULT_ENV`, the injected crash/stall
    happens here — before any result exists — so a killed worker can only
    ever cost a retry, never corrupt a result.
    """
    import repro.obs as obs
    from repro.core.serialization import config_from_dict, profile_from_dict
    from repro.core.simulator import Simulation

    # In a traced run a forked worker inherits runtime.enabled=True and the
    # tracer rebinds to a per-pid sibling file on first emit; a spawned
    # worker starts cold and picks tracing up from the environment here.
    obs.enable_from_env()

    if os.environ.get("REPRO_WORKER_FAULTS"):
        from repro.robust.faults import maybe_worker_fault

        maybe_worker_fault(label="execute_point")

    config_dict = dict(payload["config"])
    config_dict.setdefault("name", "farm-point")
    config = config_from_dict(config_dict)
    profiles = [profile_from_dict(p) for p in payload["profiles"]]
    # An "obs_trace" key is out-of-band (the serve layer adds it to a copy
    # of the payload; cache keys are computed from the pristine one): the
    # simulation's spans are collected under that trace ID and shipped back
    # so the caller can stitch the cross-process trace together.
    trace = (obs.Trace(payload["obs_trace"])
             if payload.get("obs_trace") else None)
    # The payload carries the *derived* energy model, not just its name:
    # the worker runs exactly the cost vector the cache key hashed.
    energy = payload.get("energy")
    if energy is not None:
        from repro.energy import EnergyModel

        energy = EnergyModel.from_params(energy)
    started = time.monotonic()
    sim = Simulation(config=config, profiles=profiles,
                     time_slice=payload["time_slice"],
                     level=payload["level"],
                     warmup_instructions=payload["warmup_instructions"],
                     engine=payload.get("engine", DEFAULT_ENGINE),
                     energy=energy)
    if trace is not None:
        with obs.activate_trace(trace):
            stats = sim.run(max_instructions=payload["max_instructions"])
    else:
        stats = sim.run(max_instructions=payload["max_instructions"])
    wall_s = time.monotonic() - started
    # Per-task registry, not the global one: a forked worker inherits the
    # parent's global counters and the inline pool *is* the parent, so
    # shipping a delta-free global snapshot would double-count.  The
    # receiving side merges this exactly once.
    task_metrics = obs.Registry()
    task_metrics.counter("sim_runs_total", "simulations executed").inc()
    task_metrics.counter("sim_instructions_total",
                         "instructions simulated").inc(stats.instructions)
    task_metrics.histogram("sim_wall_seconds",
                           "wall-clock seconds per simulation"
                           ).observe(wall_s)
    if energy is not None:
        task_metrics.counter("sim_energy_pj_total",
                             "accounted energy (picojoules)"
                             ).inc(stats.energy_total_fj // 1000)
    result = {
        "stats": stats.to_dict(),
        "wall_s": wall_s,
        "obs": task_metrics.snapshot(),
    }
    if trace is not None:
        result["trace_spans"] = trace.spans
    return result


def cache_meta(spec: PointSpec, stats: SimStats, wall_s: float,
               source: Optional[str] = None) -> Dict[str, Any]:
    """The metadata stored beside a point's cache entry; ``source`` names
    a producer other than the local farm."""
    meta = {"label": spec.label, "config": spec.config.name,
            "instructions": stats.instructions, "wall_s": round(wall_s, 3),
            "created_unix": int(time.time())}
    if source is not None:
        meta["source"] = source
    return meta


def run_points(specs: Sequence[PointSpec],
               jobs: int = 1,
               cache: Optional[ResultCache] = None,
               telemetry: Optional[RunTelemetry] = None,
               timeout: Optional[float] = None,
               retries: int = 1,
               on_point=None,
               stop_event=None,
               dispatcher=None,
               journal=None,
               durable=None) -> List[SimStats]:
    """Execute every point (cache first, then an executor); input order out.

    The misses go to the local pool or a grid dispatcher through the same
    hooks: ``on_start`` claims a point before its work starts,
    ``on_heartbeat`` renews its lease, ``on_retry`` journals an abandoned
    attempt (the grid, which retries internally, reports only a lost
    point) and ``on_result`` stores a result in the cache, *then*
    journals it done, then records it.

    Args:
        specs: the points to produce results for.
        jobs: worker processes for the misses (1 = in-process).
        cache: optional result cache probed/filled per point.
        telemetry: optional sink for per-point events.
        timeout: per-point wall-clock limit (parallel mode).
        retries: crash/timeout re-run budget per point.
        on_point: called with each label as its processing starts, in
            input order (the legacy ``progress`` hook of ``run_sweep``).
        stop_event: optional cancellation token forwarded to the
            executor; once it is set, the pool or the dispatcher raises
            :class:`~repro.errors.FarmCancelled`.
        dispatcher: a :class:`repro.grid.GridDispatcher` to run the
            misses instead of the local pool (``jobs``, ``timeout`` and
            ``retries`` are then ignored).
        journal: a :class:`repro.durable.RunJournal`, journal file path,
            or journal directory; when set, the whole sweep runs under a
            write-ahead journal (see :mod:`repro.durable`) and is
            resumable exactly-once after a crash of any process,
            including this one.  Requires ``cache``.
        durable: optional :class:`repro.durable.DurableSettings`
            overriding lease/heartbeat/retry-budget timing.
    """
    run = None
    heartbeat_s = lease_s = None
    if journal is not None:
        from repro.durable import DurableRun, DurableSettings

        settings = durable if durable is not None else DurableSettings()
        run = DurableRun(journal, cache, settings,
                         registry=telemetry.registry if telemetry else None)
        # The journal counts the retry budget across resumes, and forked
        # workers prove liveness to its leases.
        retries = settings.max_point_retries
        if jobs > 1:
            heartbeat_s, lease_s = settings.heartbeat_s, settings.lease_s
    try:
        recovered = run.begin(specs) if run is not None else {}
        results: List[Optional[SimStats]] = [None] * len(specs)
        keys: List[Optional[str]] = [None] * len(specs)
        todo: List[int] = []
        for i, spec in enumerate(specs):
            if on_point is not None:
                on_point(spec.label)
            hit = recovered.get(i)
            if hit is None and cache is not None:
                keys[i] = spec.key()
                hit = cache.get(keys[i])
                if hit is not None and run is not None:
                    # A cache entry with no done record: a crash landed
                    # between cache.put and the journal append.
                    run.done(i, hit)
            if hit is not None:
                results[i] = hit
                if telemetry is not None:
                    telemetry.record_point(spec.label, hit.instructions,
                                           0.0, cached=True)
                continue
            todo.append(i)

        def on_result(j: int, value: Dict[str, Any]) -> None:
            i = todo[j]
            stats = SimStats.from_dict(value["stats"])
            results[i] = stats
            if cache is not None:
                cache.put(keys[i], stats,
                          meta=cache_meta(specs[i], stats, value["wall_s"],
                                          value.get("source")))
            if run is not None:
                run.done(i, stats)   # after the put: done asserts durability
            if telemetry is not None:
                telemetry.record_point(specs[i].label, stats.instructions,
                                       value["wall_s"], cached=False)
                if value.get("obs"):
                    telemetry.registry.merge(value["obs"])

        hooks: Dict[str, Any] = {"on_result": on_result}
        if run is not None:
            def on_retry(j: int, what: str) -> None:
                if dispatcher is not None:
                    run.fail(todo[j], what)   # lost by the grid for good
                else:
                    run.reclaim(todo[j], reason="lease_expired"
                                if "lease expired" in what
                                else "worker_crashed")

            hooks.update(on_start=lambda j: run.claim(todo[j]),
                         on_heartbeat=lambda j: run.heartbeat(todo[j]),
                         on_retry=on_retry)
        if dispatcher is not None:
            dispatcher.run_points([specs[i] for i in todo],
                                  stop_event=stop_event, **hooks)
        else:
            run_tasks(execute_point, [specs[i].payload() for i in todo],
                      jobs=jobs, timeout=timeout, retries=retries,
                      labels=[specs[i].label for i in todo],
                      stop_event=stop_event, heartbeat_s=heartbeat_s,
                      lease_s=lease_s, **hooks)
        if run is not None:
            run.seal()
        return results  # type: ignore[return-value]
    finally:
        if run is not None:
            run.close()
