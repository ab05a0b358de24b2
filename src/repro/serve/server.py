"""The fault-tolerant simulation service.

``repro-serve`` turns the sweep farm into an interactive service: a
threaded HTTP front end answering ``POST /v1/simulate`` (a validated
:class:`~repro.farm.points.PointSpec` in JSON) backed by the farm's
content-addressed :class:`~repro.farm.cache.ResultCache`, so a repeated
configuration→CPI query costs a file read instead of a simulation.

Failure model (see DESIGN.md §10 for the full policy):

* **Overload** — admission goes through a bounded queue.  A full queue
  sheds the request immediately with ``429`` and a ``Retry-After`` header;
  the server never builds an unbounded backlog and latency stays bounded
  by design.
* **Deadlines** — every request carries a deadline (client-supplied
  ``deadline_s``, clamped to a server maximum).  The clock starts at
  admission, so time spent queued counts.  Expiry anywhere — still
  queued, or mid-simulation — yields ``504``, and the farm pool's
  timeout machinery *kills* the worker so a runaway simulation cannot
  hold a slot.
* **Worker faults** — every simulation runs the batch farm's
  ``execute_point`` in a forked pool worker (in-process where the
  platform cannot fork); a crashed worker is retried within the pool's
  budget, a stalled one is bounded by the deadline.  Either the client
  gets a correct result or an explicit 5xx — never a wrong CPI, because
  results are only ever produced by ``execute_point`` and cache entries
  are checksummed (corruption = miss).
* **Shutdown** — SIGTERM/SIGINT starts a graceful drain: readiness goes
  503, new work is rejected, queued and in-flight simulations get a grace
  period to finish; whatever is still running when the grace expires is
  cancelled.  The process then exits 0.

Observability: ``GET /healthz`` (liveness), ``GET /readyz`` (admission
state), ``GET /metrics`` (the Prometheus 0.0.4 text exposition of
:attr:`SimServer.registry`, the node's one obs registry: per-class
response counts, executor outcomes, the ``farm_*`` point counters, the
forked workers' ``sim_*`` counters, and the queue and cache gauges set
at each scrape).
"""

from __future__ import annotations

import json
import queue
import threading
import time
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Any, Dict, List, Optional

from repro.core.stats import SimStats
from repro.errors import (
    ConfigurationError,
    FarmCancelled,
    FarmError,
    ReproError,
    ServeError,
)
from repro.farm.cache import ResultCache
from repro.farm.points import PointSpec, cache_meta, execute_point
from repro.farm.pool import run_tasks
from repro.farm.telemetry import count_point, point_metrics
from repro.obs.metrics import PROMETHEUS_CONTENT_TYPE, Registry
from repro.obs.tracing import Trace, span
from repro.robust.signals import SignalDrain
from repro.serve.protocol import (
    error_body,
    parse_simulate_request,
    render_result,
)

#: How often drain/worker loops poll their events, seconds.
_TICK = 0.05
#: ``Retry-After`` seconds attached to shed (429) responses.
RETRY_AFTER_S = 1
#: A forked worker whose remaining deadline exceeds this lease must
#: heartbeat every ``_WORKER_HEARTBEAT_S``; a lease expiring with no beat
#: means *stuck*, and the pool kills and retries it instead of burning
#: the whole request deadline.
_WORKER_LEASE_S = 15.0
_WORKER_HEARTBEAT_S = 2.0


@dataclass
class ServeSettings:
    """Tunable policy for one :class:`SimServer`."""

    host: str = "127.0.0.1"
    port: int = 8023
    #: Bounded admission queue: requests beyond this are shed with 429.
    queue_depth: int = 8
    #: Executor threads pulling from the queue.
    workers: int = 2
    #: Deadline applied when the client does not send ``deadline_s``.
    default_deadline_s: float = 30.0
    #: Hard ceiling on any client-requested deadline.
    max_deadline_s: float = 120.0
    #: How long a drain lets queued + in-flight work finish.
    drain_grace_s: float = 10.0
    #: Crash/timeout re-runs granted to a simulation's pool worker.
    retries: int = 1

    def __post_init__(self):
        if self.queue_depth < 1:
            raise ConfigurationError(
                f"queue_depth must be >= 1, got {self.queue_depth!r}")
        if self.workers < 1:
            raise ConfigurationError(
                f"workers must be >= 1, got {self.workers!r}")
        if self.retries < 0:
            raise ConfigurationError(
                f"retries must be >= 0, got {self.retries!r}")
        for name in ("default_deadline_s", "max_deadline_s",
                     "drain_grace_s"):
            value = getattr(self, name)
            if not value > 0:
                raise ConfigurationError(
                    f"{name} must be positive, got {value!r}")


#: Simulate response class by HTTP status; any other status is
#: ``internal_error``.  Every class is pre-seeded, so ``/metrics`` always
#: shows each one.
_RESPONSE_CLASSES = {200: "ok", 400: "bad_request", 404: "not_found",
                     429: "shed", 503: "unavailable",
                     504: "deadline_expired", 500: "internal_error"}
#: Executor outcomes, likewise pre-seeded.
_EXECUTOR_OUTCOMES = ("cache_hits", "simulated", "cancelled", "failed",
                      "expired_in_queue")
#: ``serve_requests_total`` endpoint label by GET path.
_GET_ENDPOINTS = {"/healthz": "healthz", "/readyz": "readyz",
                  "/metrics": "metrics"}


class _Job:
    """One admitted simulate request, shared between its connection
    thread (which owns the HTTP response) and an executor thread (which
    owns the result)."""

    def __init__(self, spec: PointSpec, deadline: float, deadline_s: float,
                 trace_id: Optional[str] = None):
        self.spec = spec
        self.key = spec.key()
        self.deadline = deadline          # absolute, time.monotonic()
        self.deadline_s = deadline_s
        self.done = threading.Event()
        self.stop = threading.Event()     # cancellation token (pool-aware)
        self.status = 500
        self.body: Dict[str, Any] = error_body(500, "never executed")
        #: End-to-end trace: the connection thread, the executor thread,
        #: and (via the result channel) a forked worker all append spans.
        #: A client-supplied ``obs_trace`` ID keeps one logical dispatch
        #: under one ID across grid → serve → worker hops.
        self.trace = Trace(trace_id)
        self.enqueued_wall = time.time()

    def finish(self, status: int, body: Dict[str, Any]) -> None:
        self.status = status
        self.body = body
        self.done.set()


class SimServer:
    """The service: HTTP front end, bounded queue, executor pool, drain.

    :attr:`registry` holds every count of the node.
    ``serve_responses_total`` counts what simulate clients were told,
    exactly one bump per simulate request; ``serve_executor_total``
    counts what the execution side did (a request the handler answered
    504 can still show up as ``outcome="cancelled"`` — that is the
    abandoned work being reaped, not a second response).  Each server
    owns its registry, so concurrent servers in one test process stay
    independent.
    """

    def __init__(self, settings: Optional[ServeSettings] = None,
                 cache: Optional[ResultCache] = None):
        self.settings = settings or ServeSettings()
        self.cache = cache
        self.registry = Registry()
        self._requests = self.registry.counter(
            "serve_requests_total", "HTTP requests by endpoint",
            labels=("endpoint",))
        self._responses = self.registry.counter(
            "serve_responses_total", "simulate responses by class",
            labels=("class",))
        self._executor = self.registry.counter(
            "serve_executor_total", "executor outcomes",
            labels=("outcome",))
        self._lease_renewals = self.registry.counter(
            "serve_lease_renewals_total",
            "forked-worker heartbeats observed on long-deadline requests")
        self._latency = self.registry.histogram(
            "serve_request_seconds",
            "request wall-clock seconds by endpoint",
            labels=("endpoint",))
        for name in _RESPONSE_CLASSES.values():
            self._responses.labels(name)
        for name in _EXECUTOR_OUTCOMES:
            self._executor.labels(name)
        point_metrics(self.registry)
        self.queue: "queue.Queue[_Job]" = queue.Queue(
            maxsize=self.settings.queue_depth)
        self._jobs: List[_Job] = []            # live (admitted, not done)
        self._jobs_lock = threading.Lock()
        self._in_flight = 0
        self._draining = False
        self._stopping = threading.Event()
        self._started = time.monotonic()
        self._workers: List[threading.Thread] = []
        self._httpd: Optional[ThreadingHTTPServer] = None
        self._http_thread: Optional[threading.Thread] = None

    # --------------------------------------------------------------- lifecycle

    @property
    def port(self) -> int:
        """The bound port (useful with ``port=0``)."""
        if self._httpd is None:
            raise ServeError("server is not started")
        return self._httpd.server_address[1]

    @property
    def draining(self) -> bool:
        return self._draining

    def start(self) -> None:
        """Bind, start executor threads and the HTTP accept loop."""
        if self._httpd is not None:
            raise ServeError("server already started")
        handler = _make_handler(self)
        self._httpd = ThreadingHTTPServer(
            (self.settings.host, self.settings.port), handler)
        self._httpd.daemon_threads = True
        self._started = time.monotonic()
        for i in range(max(1, self.settings.workers)):
            worker = threading.Thread(target=self._worker_loop,
                                      name=f"serve-exec-{i}", daemon=True)
            worker.start()
            self._workers.append(worker)
        self._http_thread = threading.Thread(
            target=self._httpd.serve_forever, kwargs={"poll_interval": _TICK},
            name="serve-http", daemon=True)
        self._http_thread.start()

    def drain(self, grace_s: Optional[float] = None) -> Dict[str, Any]:
        """Graceful shutdown: reject new work, let queued and in-flight
        simulations finish within the grace, cancel the rest, stop the
        listener, and report what happened.

        Idempotent; returns a summary dict (``clean`` means everything
        admitted was finished before the grace expired).
        """
        grace = (self.settings.drain_grace_s if grace_s is None else grace_s)
        self._draining = True
        deadline = time.monotonic() + grace
        while time.monotonic() < deadline:
            with self._jobs_lock:
                idle = not self._jobs
            if idle and self.queue.empty():
                break
            time.sleep(_TICK)
        with self._jobs_lock:
            leftover = list(self._jobs)
        clean = not leftover
        for job in leftover:
            # Cancels a running pool task (stop_event); a still-queued job
            # is answered 503 by the executor as soon as it is dequeued.
            job.stop.set()
        # Give cancellations a bounded moment to take effect so children
        # are reaped before the process exits.
        settle = time.monotonic() + max(1.0, 20 * _TICK)
        while time.monotonic() < settle:
            with self._jobs_lock:
                if not self._jobs:
                    break
            time.sleep(_TICK)
        self._stopping.set()
        for worker in self._workers:
            worker.join(timeout=1.0)
        if self._httpd is not None:
            self._httpd.shutdown()
            if self._http_thread is not None:
                self._http_thread.join(timeout=2.0)
            self._httpd.server_close()
            self._httpd = None
        return {"clean": clean, "cancelled": len(leftover)}

    def run_until_signal(self, port_file: Optional[Path] = None) -> int:
        """Serve until SIGINT/SIGTERM, then drain; returns the exit code
        (0 for a completed drain).

        ``port_file`` (if given) receives the bound port as text once the
        listener is up — how an orchestrator launching ``--port 0``
        backends (the grid chaos harness, the scaling benchmark) learns
        where each one landed.
        """
        stop = threading.Event()
        self.start()
        if port_file is not None:
            Path(port_file).write_text(f"{self.port}\n", encoding="utf-8")
        with SignalDrain(on_signal=lambda signum: stop.set(),
                         reraise=False) as latch:
            while not stop.is_set():
                time.sleep(_TICK)
            latch.consume()
        self.drain()
        return 0

    # ---------------------------------------------------------------- status

    def readiness_body(self) -> Dict[str, Any]:
        """The ``/readyz`` load signals: admission queue depth, in-flight
        count, and the engines this build can run — enough for a
        dispatcher to rank backends without a full ``/metrics`` scrape."""
        from repro.core.engine import ENGINE_NAMES

        return {
            "draining": self._draining,
            "queue_depth": self.queue.qsize(),
            "queue_capacity": self.settings.queue_depth,
            "in_flight": self._in_flight,
            "engines": sorted(ENGINE_NAMES),
        }

    def prometheus_body(self) -> str:
        """The ``/metrics`` document: the registry, after setting the
        point-in-time load gauges a scraper cannot derive from
        counters."""
        gauge = self.registry.gauge
        gauge("serve_queue_depth",
              "admitted requests waiting for an executor"
              ).set(self.queue.qsize())
        gauge("serve_queue_capacity",
              "admission queue bound (beyond it requests shed)"
              ).set(self.settings.queue_depth)
        gauge("serve_in_flight",
              "requests currently executing").set(self._in_flight)
        gauge("serve_draining",
              "1 while a graceful drain is in progress"
              ).set(1.0 if self._draining else 0.0)
        gauge("serve_uptime_seconds", "seconds since start").set(
            round(time.monotonic() - self._started, 3))
        if self.cache is not None:
            stats = self.cache.stats()
            gauge("serve_cache_entries",
                  "entries in the content-addressed result cache"
                  ).set(stats.get("entries", 0))
            gauge("serve_cache_bytes",
                  "bytes in the content-addressed result cache"
                  ).set(stats.get("bytes", 0))
        return self.registry.prometheus()

    # -------------------------------------------------------------- admission

    def admit(self, job: _Job) -> None:
        """Enqueue a job or shed it (raises :class:`ServeError` 429/503)."""
        if self._draining:
            raise ServeError("server is draining", status=503)
        # Register before enqueueing: the executor may pick the job up and
        # retire it before this thread runs again.
        with self._jobs_lock:
            self._jobs.append(job)
        try:
            self.queue.put_nowait(job)
        except queue.Full:
            self._retire(job)
            raise ServeError("queue full, try later", status=429) from None

    def _retire(self, job: _Job) -> None:
        with self._jobs_lock:
            if job in self._jobs:
                self._jobs.remove(job)

    # --------------------------------------------------------------- executor

    def _worker_loop(self) -> None:
        while True:
            try:
                job = self.queue.get(timeout=_TICK)
            except queue.Empty:
                if self._stopping.is_set():
                    return
                continue
            self._in_flight += 1
            try:
                self._execute(job)
            except Exception as exc:  # defence: a worker must never die
                self._executor.labels("failed").inc()
                job.finish(500, error_body(
                    500, f"{type(exc).__name__}: {exc}"))
            finally:
                self._in_flight -= 1
                self._retire(job)
                self.queue.task_done()

    def _execute(self, job: _Job) -> None:
        now = time.monotonic()
        job.trace.add_span("queue_wait", job.enqueued_wall, time.time(),
                           cat="serve")
        if job.stop.is_set():
            self._executor.labels("cancelled").inc()
            job.finish(503, error_body(503, "dropped while queued (drain)"))
            return
        if now >= job.deadline:
            self._executor.labels("expired_in_queue").inc()
            job.finish(504, error_body(
                504, f"deadline of {job.deadline_s:g}s expired in queue"))
            return
        if self.cache is not None:
            with span("cache_probe", cat="serve", trace=job.trace):
                hit = self.cache.get(job.key)
            if hit is not None:
                self._executor.labels("cache_hits").inc()
                count_point(self.registry, hit.instructions, 0.0,
                            cached=True)
                job.finish(200, render_result(job.spec, hit, job.key,
                                              cached=True, wall_s=0.0))
                return
        remaining = job.deadline - now
        started = time.monotonic()
        started_wall = time.time()
        try:
            stats, wall_s = self._execute_forked(job, remaining)
        except FarmCancelled:
            self._executor.labels("cancelled").inc()
            job.finish(503, error_body(503, "cancelled (drain or "
                                            "abandoned deadline)"))
            return
        except FarmError as exc:
            self._executor.labels("failed").inc()
            # The pool's timeout is this request's deadline; report it as
            # such rather than as a server fault.
            if "timed out" in str(exc):
                job.finish(504, error_body(
                    504, f"deadline of {job.deadline_s:g}s expired "
                         "mid-simulation"))
            else:
                job.finish(500, error_body(500, f"simulation failed: {exc}"))
            return
        except (ConfigurationError, ReproError) as exc:
            self._executor.labels("failed").inc()
            job.finish(500, error_body(500, f"simulation failed: {exc}"))
            return
        self._executor.labels("simulated").inc()
        job.trace.add_span("execute", started_wall, time.time(), cat="serve")
        count_point(self.registry, stats.instructions, wall_s,
                    cached=False)
        if self.cache is not None:
            self.cache.put(job.key, stats, meta=cache_meta(
                job.spec, stats, wall_s, source="repro-serve"))
        job.finish(200, render_result(job.spec, stats, job.key,
                                      cached=False,
                                      wall_s=time.monotonic() - started))

    def _execute_forked(self, job: _Job, remaining: float):
        """One simulation in a forked pool worker: the pool's timeout
        machinery enforces the deadline with a real kill, and crash
        retries come for free."""
        # The trace ID rides in a copy of the payload — ``execute_point``
        # treats it as out-of-band, and the cache key comes from
        # ``spec.key()`` over the pristine payload, so caching is unaffected.
        payload = dict(job.spec.payload())
        payload["obs_trace"] = job.trace.trace_id
        # Long-deadline requests get worker-side lease renewal: the child
        # heartbeats over the result pipe, and a beat-less lease expiry
        # kills the stuck worker *now* instead of burning the rest of the
        # request deadline on a process that will never answer.
        lease = None
        heartbeat = None
        on_heartbeat = None
        if remaining > _WORKER_LEASE_S:
            lease = _WORKER_LEASE_S
            heartbeat = _WORKER_HEARTBEAT_S

            def on_heartbeat(_index: int) -> None:
                self._lease_renewals.inc()
        value = run_tasks(execute_point, [payload],
                          jobs=2,  # parallel path: one child, killable
                          timeout=remaining,
                          retries=self.settings.retries,
                          labels=[job.spec.label],
                          stop_event=job.stop,
                          heartbeat_s=heartbeat,
                          lease_s=lease,
                          on_heartbeat=on_heartbeat)[0]
        for record in value.get("trace_spans", ()):
            job.trace.add_record(record)
        if value.get("obs"):
            self.registry.merge(value["obs"])
        return SimStats.from_dict(value["stats"]), value["wall_s"]


# ------------------------------------------------------------- HTTP front end


def _make_handler(server: SimServer):
    """A request-handler class bound to one :class:`SimServer`."""

    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"
        server_version = "repro-serve/1"

        # ------------------------------------------------------------- plumbing

        def log_message(self, format, *args):  # noqa: A002 - stdlib name
            pass  # the service narrates via /metrics, not stderr

        def _respond(self, status: int, body: Dict[str, Any],
                     headers: Optional[Dict[str, str]] = None) -> None:
            blob = (json.dumps(body) + "\n").encode("utf-8")
            self._respond_bytes(status, blob, "application/json", headers)

        def _respond_bytes(self, status: int, blob: bytes,
                           content_type: str,
                           headers: Optional[Dict[str, str]] = None) -> None:
            self.send_response(status)
            self.send_header("Content-Type", content_type)
            self.send_header("Content-Length", str(len(blob)))
            for name, value in (headers or {}).items():
                self.send_header(name, value)
            self.end_headers()
            try:
                self.wfile.write(blob)
            except (BrokenPipeError, ConnectionResetError):
                pass  # client went away; nothing left to tell it

        # ------------------------------------------------------------ GET side

        def do_GET(self) -> None:  # noqa: N802 - stdlib API
            try:
                path = self.path.partition("?")[0]
                server._requests.labels(
                    _GET_ENDPOINTS.get(path, "other")).inc()
                if path == "/healthz":
                    self._respond(200, {
                        "ok": True,
                        "uptime_s": round(
                            time.monotonic() - server._started, 3),
                    })
                elif path == "/readyz":
                    # The status code is the contract (200 accepting,
                    # 503 draining); the body carries the load signals a
                    # dispatcher needs for placement.
                    body = server.readiness_body()
                    if server.draining:
                        self._respond(503, error_body(503, "draining",
                                                      **body))
                    else:
                        self._respond(200, {"ready": True, **body})
                elif path == "/metrics":
                    self._respond_bytes(
                        200, server.prometheus_body().encode("utf-8"),
                        PROMETHEUS_CONTENT_TYPE)
                else:
                    self._respond(404, error_body(404, "unknown path"))
            except Exception as exc:  # never a traceback on the wire
                self._respond(500, error_body(
                    500, f"{type(exc).__name__}: {exc}"))

        # ----------------------------------------------------------- POST side

        def do_POST(self) -> None:  # noqa: N802 - stdlib API
            if self.path != "/v1/simulate":
                server._requests.labels("other").inc()
                self._respond(404, error_body(404, "unknown path"))
                return
            server._requests.labels("simulate").inc()
            started = time.monotonic()
            try:
                status, body, headers = self._simulate()
            except Exception as exc:  # never a traceback on the wire
                status, body, headers = 500, error_body(
                    500, f"{type(exc).__name__}: {exc}"), None
            server._responses.labels(
                _RESPONSE_CLASSES.get(status, "internal_error")).inc()
            server._latency.labels("simulate").observe(
                time.monotonic() - started)
            self._respond(status, body, headers)

        def _simulate(self):
            settings = server.settings
            try:
                length = int(self.headers.get("Content-Length", ""))
            except ValueError:
                return 400, error_body(400, "Content-Length required"), None
            raw = self.rfile.read(max(0, length))
            try:
                spec, deadline_s, obs_trace = parse_simulate_request(raw)
            except (ServeError, ConfigurationError) as exc:
                return 400, error_body(400, str(exc)), None
            if deadline_s is None:
                deadline_s = settings.default_deadline_s
            deadline_s = min(deadline_s, settings.max_deadline_s)
            job = _Job(spec, time.monotonic() + deadline_s, deadline_s,
                       trace_id=obs_trace)

            def with_trace(status: int, body: Dict[str, Any]
                           ) -> Dict[str, Any]:
                # Close the end-to-end span and surface the whole trace in
                # the response, whatever the outcome — the ID is the
                # client's handle for correlating with the server's logs.
                job.trace.add_span("request", job.enqueued_wall, time.time(),
                                   cat="serve", status=status)
                body = dict(body)
                body["trace"] = job.trace.to_dict()
                return body

            try:
                server.admit(job)
            except ServeError as exc:
                if exc.status == 429:
                    return 429, with_trace(429, error_body(
                        429, str(exc), retry_after_s=RETRY_AFTER_S
                    )), {"Retry-After": str(RETRY_AFTER_S)}
                return exc.status, with_trace(
                    exc.status, error_body(exc.status, str(exc))), None
            finished = job.done.wait(timeout=(job.deadline
                                              - time.monotonic()) + 2 * _TICK)
            if not finished:
                # The connection answers 504 now; the stop event tells the
                # executor (and its forked child) to abandon the work.
                job.stop.set()
                return 504, with_trace(504, error_body(
                    504, f"deadline of {deadline_s:g}s expired")), None
            return job.status, with_trace(job.status, job.body), None

    return Handler
