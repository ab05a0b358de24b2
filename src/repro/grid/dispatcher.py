"""The distributed dispatcher: sweep points over a pool of serve nodes.

:class:`GridDispatcher` is the grid executor of
:func:`repro.farm.points.run_points`: it runs the points it is given over
the wire on ``repro.serve`` backends instead of in local forks, and
returns their results in input order.  The cache, the run journal and
telemetry stay with ``run_points``, which reaches them through the same
hooks the local pool takes (``on_start``, ``on_heartbeat``, ``on_retry``,
``on_result``).  Everything here is the robustness machinery that makes
remote execution safe:

* **placement** — the :class:`~repro.grid.nodes.NodeRegistry` picks the
  least-loaded node that is not quarantined; its quarantine is the only
  per-node health state.
* **one attempt at a time** — a point is queued or in flight at most
  once, so it resolves exactly once.  A slow node keeps its point until
  it answers or ``request_timeout_s`` ends the attempt.
* **re-queue on another node** — a failed attempt (transport error, 5xx,
  exhausted client budget, *or an invalid/corrupt payload*) re-queues the
  point, placed away from the node that failed when another is eligible,
  up to ``max_remote_attempts`` dispatches.
* **validation** — a 200 body must carry the point's own content
  address, a stats integrity digest
  (:func:`~repro.serve.protocol.stats_digest`) that matches the
  snapshot, and a snapshot that round-trips exactly; anything else (a
  corrupted cache entry forwarded by a backend, a truncated body, a
  single flipped field) is treated as a node failure, never as a result.
* **graceful degradation** — when no backend is usable (all quarantined,
  or the pool was lost entirely) or a point exhausts its attempts, it
  runs **locally in-process** through the same
  :func:`~repro.farm.points.execute_point` the farm uses.  A sweep
  finishes with zero lost points even if every node dies mid-flight.

Observability: per-node dispatch counters, the remote/local point
counters and node health transitions all land in one obs
:class:`~repro.obs.metrics.Registry`; when an obs trace is active, each
dispatch hop ships the trace ID over the wire (``obs_trace``) so the
backend's spans come back stitched under the caller's trace.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from queue import Empty, Queue
from typing import Any, Dict, List, Optional, Sequence

import repro.obs as obs
from repro.core.serialization import config_to_dict, profile_to_dict
from repro.core.stats import SimStats
from repro.errors import (ConfigurationError, FarmCancelled, GridError,
                          ServeError)
from repro.farm.points import PointSpec, execute_point
from repro.grid.nodes import NodeRegistry
from repro.obs.metrics import Registry
from repro.serve.protocol import stats_digest

#: Scheduler tick: heartbeats and completion waits poll at this period.
_TICK = 0.05

#: HTTP statuses that condemn the *request*, not the node: retrying the
#: same bytes elsewhere cannot help, so the point falls back locally.
_PERMANENT_STATUSES = frozenset({400, 404})


@dataclass
class GridSettings:
    """Tunable policy for one :class:`GridDispatcher`."""

    #: Consecutive failures before a node is quarantined.
    quarantine_after: int = 3
    #: Quarantine cooldown before a node is probed/tried again.
    readmit_after_s: float = 10.0
    #: Background ``/readyz`` poll period.
    probe_interval_s: float = 2.0
    #: Socket timeout for one ``/readyz`` probe.
    probe_timeout_s: float = 2.0
    #: Per-attempt socket timeout for dispatch requests.
    request_timeout_s: float = 30.0
    #: Server-side deadline attached to each dispatched point.
    deadline_s: float = 60.0
    #: Client wall-clock budget for one dispatch attempt (covers the
    #: transport's own short retries).
    attempt_budget_s: float = 45.0
    #: Total dispatches (first + re-queues) per point before the point
    #: degrades to local execution.
    max_remote_attempts: int = 4
    #: Dispatcher worker threads per registered node.
    inflight_per_node: int = 2
    #: Degrade to local in-process execution when no backend is usable
    #: (disable only in tests that assert the error path).
    local_fallback: bool = True

    def __post_init__(self):
        positive = (
            ("readmit_after_s", self.readmit_after_s),
            ("probe_interval_s", self.probe_interval_s),
            ("probe_timeout_s", self.probe_timeout_s),
            ("request_timeout_s", self.request_timeout_s),
            ("deadline_s", self.deadline_s),
            ("attempt_budget_s", self.attempt_budget_s),
        )
        for name, value in positive:
            if not value > 0:
                raise ConfigurationError(
                    f"GridSettings.{name} must be positive, got {value!r}")
        if self.quarantine_after < 1:
            raise ConfigurationError(
                f"GridSettings.quarantine_after must be >= 1, got "
                f"{self.quarantine_after!r}: a node needs at least one "
                "failure before quarantine")
        if self.max_remote_attempts < 1:
            raise ConfigurationError(
                f"GridSettings.max_remote_attempts must be >= 1, got "
                f"{self.max_remote_attempts!r}: every point needs at "
                "least one dispatch")
        if self.inflight_per_node < 1:
            raise ConfigurationError(
                f"GridSettings.inflight_per_node must be >= 1, got "
                f"{self.inflight_per_node!r}")


class _Task:
    """One point's dispatch state.  ``done``, ``result`` and
    ``permanent_error`` are guarded by the dispatcher's lock; the attempt
    fields belong to the one worker holding the point."""

    def __init__(self, index: int, spec: PointSpec, hooks: Dict[str, Any]):
        self.index = index
        self.spec = spec
        self.hooks = hooks   # its run's on_result/on_retry; emptied at exit
        self.key = spec.key()
        self.body = wire_body(spec)
        self.payload = spec.payload()   # canonical: local-fallback input
        self.attempts = 0            # dispatches started
        self.last_failed_url: Optional[str] = None
        self.done = False
        self.result: Optional[SimStats] = None
        self.permanent_error: Optional[str] = None


def wire_body(spec: PointSpec) -> Dict[str, Any]:
    """The ``/v1/simulate`` request for one point.  Field-for-field the
    same description the cache key hashes, so the backend's computed key
    must equal ``spec.key()`` — the first check of
    :meth:`GridDispatcher._validate`."""
    body: Dict[str, Any] = {
        "config": config_to_dict(spec.config),
        "workload": {
            "profiles": [profile_to_dict(p) for p in spec.profiles]},
        "time_slice": spec.time_slice,
        "warmup_instructions": spec.warmup_instructions,
        "engine": spec.engine,
    }
    if spec.level is not None:
        body["level"] = spec.level
    if spec.max_instructions is not None:
        body["max_instructions"] = spec.max_instructions
    if spec.energy is not None:
        body["energy"] = spec.energy
    if spec.scenario is not None:
        body["scenario"] = spec.scenario
    return body


class GridDispatcher:
    """Fault-tolerant point execution over a pool of serve backends;
    see the module docstring for the failure policy."""

    def __init__(self, nodes: Sequence[str],
                 settings: Optional[GridSettings] = None,
                 client_factory=None,
                 metrics: Optional[Registry] = None):
        self.settings = settings or GridSettings()
        self.metrics = metrics if metrics is not None else Registry()
        self.registry = NodeRegistry(
            nodes,
            quarantine_after=self.settings.quarantine_after,
            readmit_after_s=self.settings.readmit_after_s,
            probe_interval_s=self.settings.probe_interval_s,
            probe_timeout_s=self.settings.probe_timeout_s,
            request_timeout_s=self.settings.request_timeout_s,
            client_factory=client_factory,
            metrics=self.metrics)
        self._m_dispatch = self.metrics.counter(
            "grid_dispatch_total", "dispatch attempts by node and outcome",
            labels=("node", "outcome"))
        self._m_points = self.metrics.counter(
            "grid_points_total", "points resolved, by source",
            labels=("source",))
        for source in ("remote", "local"):
            self._m_points.labels(source)
        self._lock = threading.Lock()
        # Serializes the caller's hooks: worker-thread completions against
        # the supervisor's heartbeats.
        self._hook_lock = threading.Lock()
        self._started = False
        # Worker threads start with a fresh contextvar context, so the
        # caller's ambient trace is captured once per run_points and
        # threaded through explicitly.
        self._trace: Optional[obs.Trace] = None

    # -------------------------------------------------------------- lifecycle

    def start(self) -> None:
        """Start health polling (idempotent; ``run_points`` calls it)."""
        if not self._started:
            self.registry.start()
            self._started = True

    def close(self) -> None:
        """Stop the health poller."""
        self.registry.stop()
        self._started = False

    def __enter__(self) -> "GridDispatcher":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def status(self) -> Dict[str, Any]:
        """Per-node health plus the dispatcher's counters (JSON-ready)."""
        return {"nodes": self.registry.snapshot(),
                "obs": self.metrics.snapshot()}

    # ------------------------------------------------------------ main entry

    def run_points(self, specs: Sequence[PointSpec],
                   on_start=None, on_heartbeat=None, on_retry=None,
                   on_result=None, stop_event=None) -> List[SimStats]:
        """Execute every point on the pool; results in input order.

        Never loses a point while ``local_fallback`` is on: any point the
        pool cannot produce is simulated in-process.  Raises
        :class:`~repro.errors.GridError` only when fallback is disabled
        and a point exhausted every option.

        Once ``stop_event`` is set, no attempt is placed, requests in
        flight are left to their daemon threads, no hook is called again
        and :class:`~repro.errors.FarmCancelled` is raised.

        The hooks carry :func:`repro.farm.pool.run_tasks`'s names and are
        called under one lock, with the point's index in ``specs``:

        * ``on_start(index)`` once per point, before its first dispatch;
        * ``on_heartbeat(index)`` every scheduler tick while the point is
          unresolved (a slow attempt ends at ``request_timeout_s``);
        * ``on_retry(index, what)`` when the point is lost for good —
          re-dispatches stay inside the dispatcher;
        * ``on_result(index, value)`` once, when the point resolves:
          ``value`` has the validated ``stats`` snapshot, ``wall_s`` and
          ``source`` (``"grid"``, or ``"grid-local"`` plus the local
          run's ``obs`` after a fallback).
        """
        hooks = {"on_result": on_result, "on_retry": on_retry}
        tasks = [_Task(i, spec, hooks) for i, spec in enumerate(specs)]
        if not tasks:
            return []
        if on_start is not None:
            with self._hook_lock:
                for task in tasks:
                    on_start(task.index)
        self.start()
        self._trace = obs.current_trace()
        queue: "Queue[Optional[_Task]]" = Queue()
        for task in tasks:
            queue.put(task)
        remaining = len(tasks)
        done_event = threading.Event()

        def task_finished() -> None:
            nonlocal remaining
            remaining -= 1        # lock held by caller
            if remaining == 0:
                done_event.set()

        def stopped() -> bool:
            return done_event.is_set() or (stop_event is not None
                                           and stop_event.is_set())

        workers = min(len(tasks),
                      max(1, len(self.registry.nodes)
                          * self.settings.inflight_per_node))
        threads = [threading.Thread(
            target=self._worker_loop,
            args=(queue, stopped, task_finished),
            name=f"grid-worker-{i}", daemon=True)
            for i in range(workers)]
        for thread in threads:
            thread.start()
        cancelled = False
        try:
            cancelled = self._supervise(tasks, done_event, stop_event,
                                        on_heartbeat)
        finally:
            done_event.set()
            for _ in threads:
                queue.put(None)
            if not cancelled:
                # The last completions deliver their results first.
                for thread in threads:
                    thread.join(timeout=5.0)
            with self._hook_lock:
                hooks.clear()
        if cancelled:
            raise FarmCancelled("grid dispatch cancelled by caller")

        for task in tasks:
            if task.result is None:
                raise GridError(
                    task.permanent_error
                    or f"point {task.spec.label!r} was lost by the grid "
                       "(this is a bug: fallback should have caught it)",
                    label=task.spec.label)
        return [task.result for task in tasks]

    def _call(self, task: _Task, name: str, *args) -> None:
        """Call a hook of ``task``'s run, unless that run has ended."""
        with self._hook_lock:
            hook = task.hooks.get(name)
            if hook is not None:
                hook(task.index, *args)

    # ------------------------------------------------------------ scheduling

    def _supervise(self, tasks: List[_Task], done_event: threading.Event,
                   stop_event, on_heartbeat) -> bool:
        """Wait for completion, heartbeating unresolved points; returns
        whether ``stop_event`` cut the wait short."""
        while not done_event.wait(_TICK):
            if stop_event is not None and stop_event.is_set():
                return True
            if on_heartbeat is not None:
                # Unresolved points are in flight or queued, not abandoned.
                with self._hook_lock:
                    for task in tasks:
                        if not task.done:
                            on_heartbeat(task.index)
        return False

    # --------------------------------------------------------------- workers

    def _worker_loop(self, queue: "Queue[Optional[_Task]]", stopped,
                     task_finished) -> None:
        while True:
            try:
                task = queue.get(timeout=_TICK)
            except Empty:
                if stopped():
                    return
                continue
            if task is None or stopped():
                return
            try:
                self._attempt(task, queue, task_finished)
            except Exception as exc:  # defence: a worker must never die
                with self._lock:
                    if not task.done:
                        task.done = True
                        task.permanent_error = (
                            f"dispatch of {task.spec.label!r} raised "
                            f"{type(exc).__name__}: {exc}")
                        task_finished()

    def _attempt(self, task: _Task, queue: "Queue[Optional[_Task]]",
                 task_finished) -> None:
        """One dispatch attempt: place, send, validate, then resolve or
        re-queue.  Only the worker holding the point touches its
        attempt state."""
        node = None
        if task.last_failed_url is not None:
            # Retry on a *different* node than the one that just failed
            # (soft preference: dropped if nobody else is usable).
            node = self.registry.acquire(exclude=(task.last_failed_url,))
        if node is None:
            node = self.registry.acquire()
        if node is None:
            self._run_local(
                task, task_finished, "no_backends",
                f"no usable backend for point {task.spec.label!r} and "
                "local fallback is disabled")
            return
        task.attempts += 1
        body = dict(task.body)
        body["deadline_s"] = self.settings.deadline_s
        trace = self._trace
        if trace is not None:
            body["obs_trace"] = trace.trace_id
        outcome = "error"
        stats: Optional[SimStats] = None
        response: Optional[Dict[str, Any]] = None
        permanent: Optional[str] = None
        try:
            with obs.span("grid_dispatch", cat="grid", trace=trace,
                          node=node.url, point=task.spec.label,
                          attempt=task.attempts):
                response = node.client.simulate(
                    body, budget_s=self.settings.attempt_budget_s)
        except ServeError as exc:
            if exc.status in _PERMANENT_STATUSES:
                # The request itself is condemned; no node can fix it.
                permanent = (f"backend rejected point "
                             f"{task.spec.label!r}: {exc}")
        else:
            stats = self._validate(task, response)
            outcome = "ok" if stats is not None else "invalid"
        finally:
            self.registry.release(node)
        self._m_dispatch.labels(node.url, outcome).inc()

        if stats is not None:
            self.registry.note_success(node)
            if trace is not None and isinstance(response.get("trace"), dict):
                for record in response["trace"].get("spans", []):
                    if isinstance(record, dict):
                        trace.add_record(record)
            self._resolve(task, stats, {
                "stats": response["stats"],
                "wall_s": float(response.get("wall_s", 0.0)),
                "source": "grid"}, "remote", task_finished)
            return

        # Failure path: an invalid payload is as damning as a refused
        # connection — the node produced garbage.
        self.registry.note_failure(node)
        task.last_failed_url = node.url
        if permanent is not None:
            # The request is condemned, not just this node: no re-queue.
            self._run_local(task, task_finished, "request_condemned",
                            permanent)
        elif task.attempts < self.settings.max_remote_attempts:
            queue.put(task)
        else:
            self._run_local(
                task, task_finished, "retries_exhausted",
                f"point {task.spec.label!r} exhausted its remote attempts "
                "and local fallback is disabled")

    # ------------------------------------------------------------ resolving

    def _resolve(self, task: _Task, stats: SimStats, value: Dict[str, Any],
                 source: str, task_finished) -> None:
        """Resolve ``task`` with a result and deliver it.  A point is
        queued or in flight at most once, so this runs once per point."""
        with self._lock:
            task.done = True
            task.result = stats
            task_finished()
        self._m_points.labels(source).inc()
        self._call(task, "on_result", value)

    def _validate(self, task: _Task,
                  response: Dict[str, Any]) -> Optional[SimStats]:
        """A response is a result only if it names this point's content
        address, carries a matching stats integrity digest, and its stats
        snapshot round-trips bit-exactly.

        The digest (:func:`repro.serve.protocol.stats_digest`) is what
        catches *plausible* corruption — a real field mutated to another
        valid value still round-trips, but cannot match the digest the
        backend computed over the true snapshot."""
        if not isinstance(response, dict):
            return None
        if response.get("key") != task.key:
            return None
        snapshot = response.get("stats")
        if not isinstance(snapshot, dict):
            return None
        if response.get("stats_sha256") != stats_digest(snapshot):
            return None
        try:
            stats = SimStats.from_dict(snapshot)
        except Exception:
            return None
        if stats.to_dict() != snapshot:
            return None
        return stats

    # ------------------------------------------------------------- fallback

    def _run_local(self, task: _Task, task_finished, reason: str,
                   error: str) -> None:
        """The graceful-degradation path: execute the point in-process —
        same ``execute_point`` the farm uses, so the result is the result
        — or, with local fallback disabled, resolve it as lost with
        ``error``."""
        if not self.settings.local_fallback:
            self._resolve_permanent(task, error, task_finished)
            return
        payload = dict(task.payload)
        trace = self._trace
        if trace is not None:
            # Same out-of-band mechanism the serve layer uses: the copy
            # carries the trace ID, the canonical payload stays pristine.
            payload["obs_trace"] = trace.trace_id
        with obs.span("grid_local_fallback", cat="grid", trace=trace,
                      point=task.spec.label, reason=reason):
            try:
                value = execute_point(payload)
            except Exception as exc:
                self._resolve_permanent(
                    task,
                    f"local fallback for point {task.spec.label!r} failed: "
                    f"{type(exc).__name__}: {exc}", task_finished)
                return
        stats = SimStats.from_dict(value["stats"])
        if trace is not None:
            for record in value.get("trace_spans", ()):
                if isinstance(record, dict):
                    trace.add_record(record)
        value["source"] = "grid-local"
        self._resolve(task, stats, value, "local", task_finished)

    def _resolve_permanent(self, task: _Task, message: str,
                           task_finished) -> None:
        with self._lock:
            task.done = True
            task.permanent_error = message
            task_finished()
        self._call(task, "on_retry", message)
