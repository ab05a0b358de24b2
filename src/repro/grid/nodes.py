"""Health-checked node registry: the grid's view of its backend pool.

A :class:`NodeRegistry` owns one :class:`GridNode` per backend URL and
answers the only two questions the dispatcher asks:

* *"who should run this point?"* — :meth:`NodeRegistry.acquire` picks the
  least-loaded eligible node (healthy, or on probation past its
  cooldown; optionally not the node that just failed the point) and
  accounts the in-flight slot;
* *"who is healthy?"* — a background poller probes every node's
  ``/readyz`` each ``probe_interval_s``, keeping the latest load signals
  (queue depth, in-flight count, engine list) for load-aware placement.

Failure policy — the only per-node health state the grid keeps:

* ``quarantine_after`` **consecutive** failures (probe or dispatch) move a
  node to quarantine — no traffic, no probes — for ``readmit_after_s``;
* after the cooldown the node is *on probation*: the poller probes it
  again and the dispatcher may route one attempt to it.  A single success
  **re-admits** it fully; a failure re-quarantines it with a fresh
  cooldown.  Recovery is automatic — no operator action, no restart of
  the sweep.

Every transition is counted in an obs registry (``grid_probes_total``,
``grid_quarantines_total``, ``grid_readmissions_total``, labeled by
node), so ``/metrics``-style snapshots can narrate exactly which backend
misbehaved and when.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Set

from repro.errors import GridError
from repro.obs.metrics import Registry
from repro.serve.client import RetryPolicy, ServeClient


def normalize_node_url(url: str) -> str:
    """Canonical backend address: scheme added, trailing slash dropped."""
    url = url.strip().rstrip("/")
    if not url:
        raise GridError("empty backend URL")
    if "://" not in url:
        url = f"http://{url}"
    return url


def default_client_factory(timeout_s: float) -> Callable[[str], ServeClient]:
    """Per-node clients with *short* internal retries — the dispatcher
    owns cross-node retries, so the transport only smooths over a single
    429/hiccup instead of stalling a slot."""

    def make(url: str) -> ServeClient:
        return ServeClient(url,
                           retry=RetryPolicy(max_attempts=2,
                                             base_delay_s=0.05,
                                             max_delay_s=0.5),
                           timeout_s=timeout_s)

    return make


class GridNode:
    """One backend: its client, health state, and load accounting.

    All mutable state is guarded by the owning registry's lock; the
    ``client`` itself is thread-safe for concurrent requests.
    """

    def __init__(self, url: str, client: Any):
        self.url = url
        self.client = client
        self.consecutive_failures = 0
        self.quarantined_at: Optional[float] = None
        self.in_flight = 0
        self.dispatched = 0
        self.completed = 0
        self.failures_total = 0
        self.quarantines = 0
        self.last_ready: Dict[str, Any] = {}
        self.last_probe_ok: Optional[bool] = None

    @property
    def quarantined(self) -> bool:
        return self.quarantined_at is not None

    def snapshot(self) -> Dict[str, Any]:
        return {
            "url": self.url,
            "state": "quarantined" if self.quarantined else "healthy",
            "consecutive_failures": self.consecutive_failures,
            "in_flight": self.in_flight,
            "dispatched": self.dispatched,
            "completed": self.completed,
            "failures_total": self.failures_total,
            "quarantines": self.quarantines,
            "last_probe_ok": self.last_probe_ok,
            "last_ready": dict(self.last_ready),
        }


class NodeRegistry:
    """The pool: health polling, quarantine/re-admission, placement.

    Args:
        urls: backend base URLs (``host:port`` is accepted).
        quarantine_after: consecutive failures before quarantine.
        readmit_after_s: quarantine cooldown before probation.
        probe_interval_s: background ``/readyz`` poll period.
        probe_timeout_s: socket timeout for one probe.
        request_timeout_s: socket timeout for dispatch clients built by
            the default factory.
        client_factory: ``url -> client``; injectable for tests.  The
            default builds :class:`~repro.serve.client.ServeClient`s.
        clock: injectable monotonic clock for tests.
        metrics: obs registry receiving the transition counters.
    """

    def __init__(self, urls: Sequence[str],
                 quarantine_after: int = 3,
                 readmit_after_s: float = 10.0,
                 probe_interval_s: float = 2.0,
                 probe_timeout_s: float = 2.0,
                 request_timeout_s: float = 30.0,
                 client_factory: Optional[Callable[[str], Any]] = None,
                 clock: Callable[[], float] = time.monotonic,
                 metrics: Optional[Registry] = None):
        if not urls:
            raise GridError("a node registry needs at least one backend")
        if quarantine_after < 1:
            raise GridError("quarantine_after must be >= 1")
        self.quarantine_after = quarantine_after
        self.readmit_after_s = readmit_after_s
        self.probe_interval_s = probe_interval_s
        self.probe_timeout_s = probe_timeout_s
        self._clock = clock
        if client_factory is None:
            client_factory = default_client_factory(request_timeout_s)
        self.metrics = metrics if metrics is not None else Registry()
        self._m_probes = self.metrics.counter(
            "grid_probes_total", "readyz probes by node and outcome",
            labels=("node", "outcome"))
        self._m_quarantines = self.metrics.counter(
            "grid_quarantines_total", "nodes quarantined", labels=("node",))
        self._m_readmissions = self.metrics.counter(
            "grid_readmissions_total", "nodes re-admitted from quarantine",
            labels=("node",))
        self._lock = threading.Lock()
        self.nodes: List[GridNode] = []
        seen: Set[str] = set()
        for url in urls:
            canonical = normalize_node_url(url)
            if canonical in seen:
                raise GridError(f"duplicate backend URL {canonical}")
            seen.add(canonical)
            self.nodes.append(GridNode(canonical, client_factory(canonical)))
        self._poller: Optional[threading.Thread] = None
        self._stop = threading.Event()

    # ----------------------------------------------------------- accounting

    def _eligible(self, node: GridNode) -> bool:
        """Lock held.  Healthy, or on probation past its cooldown."""
        return (not node.quarantined
                or self._clock() - node.quarantined_at
                >= self.readmit_after_s)

    def acquire(self, exclude: Sequence[str] = ()) -> Optional[GridNode]:
        """Pick the least-loaded eligible node (ties broken by URL, so
        placement is deterministic given equal load) and charge one
        in-flight slot to it; ``None`` when no backend is usable —
        the dispatcher's cue to degrade to local execution."""
        excluded = set(exclude)
        with self._lock:
            candidates = [n for n in self.nodes
                          if n.url not in excluded and self._eligible(n)]
            if not candidates:
                return None
            node = min(candidates, key=lambda n: (n.in_flight, n.url))
            node.in_flight += 1
            node.dispatched += 1
            return node

    def release(self, node: GridNode) -> None:
        with self._lock:
            node.in_flight = max(0, node.in_flight - 1)

    def note_success(self, node: GridNode, probe: bool = False) -> None:
        """A request or probe succeeded: reset the failure streak and
        re-admit the node if it was quarantined."""
        with self._lock:
            node.consecutive_failures = 0
            if node.quarantined:
                node.quarantined_at = None
                self._m_readmissions.labels(node.url).inc()
            if not probe:
                node.completed += 1

    def note_failure(self, node: GridNode, probe: bool = False) -> None:
        """A request or probe failed: extend the streak; quarantine at
        the threshold (or re-quarantine a probation node immediately)."""
        with self._lock:
            node.consecutive_failures += 1
            node.failures_total += 1
            requarantine = (node.quarantined
                            and self._clock() - node.quarantined_at
                            >= self.readmit_after_s)
            if (node.consecutive_failures >= self.quarantine_after
                    and not node.quarantined) or requarantine:
                node.quarantined_at = self._clock()
                node.quarantines += 1
                self._m_quarantines.labels(node.url).inc()

    # -------------------------------------------------------------- probing

    def probe(self, node: GridNode) -> bool:
        """One ``/readyz`` round-trip; updates health state and the
        cached load signals."""
        ok, body = node.client.readiness(timeout_s=self.probe_timeout_s)
        self._m_probes.labels(node.url, "ok" if ok else "failed").inc()
        with self._lock:
            node.last_probe_ok = ok
            if isinstance(body, dict) and body:
                node.last_ready = body
        if ok:
            self.note_success(node, probe=True)
        else:
            self.note_failure(node, probe=True)
        return ok

    def poll_once(self) -> None:
        """Probe every node that is due: healthy ones always (keeps load
        signals fresh), quarantined ones only past their cooldown."""
        for node in list(self.nodes):
            with self._lock:
                due = self._eligible(node)
            if due:
                self.probe(node)

    def start(self) -> None:
        """Start the background ``/readyz`` poller (idempotent)."""
        if self._poller is not None:
            return
        self._stop.clear()

        def loop() -> None:
            while not self._stop.wait(self.probe_interval_s):
                self.poll_once()

        self._poller = threading.Thread(target=loop, name="grid-poller",
                                        daemon=True)
        self._poller.start()

    def stop(self) -> None:
        self._stop.set()
        if self._poller is not None:
            self._poller.join(timeout=2.0)
            self._poller = None

    # --------------------------------------------------------------- status

    def healthy_count(self) -> int:
        with self._lock:
            return sum(1 for n in self.nodes if not n.quarantined)

    def snapshot(self) -> List[Dict[str, Any]]:
        with self._lock:
            return [node.snapshot() for node in self.nodes]
