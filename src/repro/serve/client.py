"""A robust client for the simulation service.

:class:`ServeClient` wraps ``POST /v1/simulate`` with the three defences
a client of a load-shedding service needs:

* **Retries with exponential backoff and full jitter** — transient
  failures (connection errors, 429, 503, 504) are retried with a delay
  drawn uniformly from ``[0, min(cap, base * 2**attempt)]`` (the "full
  jitter" scheme), so a thundering herd of clients decorrelates itself.
  A server-provided ``Retry-After`` is honored as the *floor* of the next
  delay: the server knows its queue better than the client's schedule.
* **A total deadline budget** — every call takes a wall-clock budget
  covering all attempts and sleeps; the client never spends longer than
  the caller allowed, and raises :class:`~repro.errors.ServeError` with
  the last status seen when the budget is exhausted.
* **A circuit breaker** — after ``failure_threshold`` consecutive
  transport-level failures the circuit *opens* and calls fail fast
  (status 0, no network traffic) for ``cooldown_s``; it then *half-opens*,
  letting one probe through — success closes the circuit, failure
  re-opens it.  This keeps a dead server from absorbing every caller's
  full retry budget.

Permanent errors (400 bad request, 404) are never retried: the request
will not get better by asking again.
"""

from __future__ import annotations

import json
import random
import socket
import threading
import time
import urllib.error
import urllib.request
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional, Tuple

from repro.errors import ConfigurationError, ServeError

#: HTTP statuses worth retrying: shedding, draining, deadline expiry.
RETRYABLE_STATUSES = frozenset({429, 502, 503, 504})


@dataclass
class RetryPolicy:
    """Exponential backoff with full jitter."""

    max_attempts: int = 5
    base_delay_s: float = 0.1
    max_delay_s: float = 5.0

    def __post_init__(self):
        if self.max_attempts < 1:
            raise ConfigurationError(
                f"max_attempts must be >= 1, got {self.max_attempts!r}: "
                "every request needs at least one attempt")
        if self.base_delay_s < 0:
            raise ConfigurationError(
                f"base_delay_s must be >= 0, got {self.base_delay_s!r}")
        if self.max_delay_s < self.base_delay_s:
            raise ConfigurationError(
                f"max_delay_s ({self.max_delay_s!r}) must be >= "
                f"base_delay_s ({self.base_delay_s!r})")

    def delay(self, attempt: int, rng: random.Random,
              retry_after: Optional[float] = None) -> float:
        """The sleep before retry ``attempt`` (0-based), honoring a
        server-provided ``Retry-After`` as a floor."""
        cap = min(self.max_delay_s, self.base_delay_s * (2 ** attempt))
        delay = rng.uniform(0.0, cap)
        if retry_after is not None:
            delay = max(delay, retry_after)
        return delay


class CircuitBreaker:
    """Closed → open after N consecutive failures → half-open after a
    cooldown → closed again on a successful probe."""

    CLOSED, OPEN, HALF_OPEN = "closed", "open", "half_open"

    def __init__(self, failure_threshold: int = 5, cooldown_s: float = 5.0,
                 clock: Callable[[], float] = time.monotonic):
        if failure_threshold < 1:
            raise ConfigurationError(
                f"failure_threshold must be >= 1, got "
                f"{failure_threshold!r}: a breaker needs at least one "
                "failure before opening")
        if not cooldown_s > 0:
            raise ConfigurationError(
                f"cooldown_s must be positive, got {cooldown_s!r}")
        self.failure_threshold = failure_threshold
        self.cooldown_s = cooldown_s
        self._clock = clock
        self._failures = 0
        self._opened_at: Optional[float] = None
        self._probing = False

    def snapshot(self) -> Dict[str, Any]:
        """Read-only view (state, consecutive failures) for placement
        decisions; never consumes the half-open probe."""
        return {"state": self.state,
                "consecutive_failures": self._failures,
                "failure_threshold": self.failure_threshold}

    @property
    def state(self) -> str:
        if self._opened_at is None:
            return self.CLOSED
        if self._clock() - self._opened_at >= self.cooldown_s:
            return self.HALF_OPEN
        return self.OPEN

    def allow(self) -> bool:
        """Whether a call may proceed right now.

        In the half-open state exactly one in-flight probe is allowed;
        further calls fail fast until the probe reports back.
        """
        state = self.state
        if state == self.CLOSED:
            return True
        if state == self.HALF_OPEN and not self._probing:
            self._probing = True
            return True
        return False

    def record_success(self) -> None:
        self._failures = 0
        self._opened_at = None
        self._probing = False

    def record_failure(self) -> None:
        self._probing = False
        self._failures += 1
        if self._failures >= self.failure_threshold:
            self._opened_at = self._clock()


class BreakerPool:
    """One :class:`CircuitBreaker` **per backend node**, keyed by URL.

    A caller that talks to several backends (the grid dispatcher, or
    several :class:`ServeClient` instances pointed at different ones)
    shares one pool: a dead node opens *its* breaker and fails fast, while
    healthy nodes keep their own closed breakers — one bad backend can
    no longer blind a client to the rest of the pool, which is what a
    single global breaker did.

    Thread-safe; breakers are created on first use and live for the
    pool's lifetime.
    """

    def __init__(self, failure_threshold: int = 5, cooldown_s: float = 5.0,
                 clock: Callable[[], float] = time.monotonic):
        self.failure_threshold = failure_threshold
        self.cooldown_s = cooldown_s
        self._clock = clock
        self._lock = threading.Lock()
        self._breakers: Dict[str, CircuitBreaker] = {}

    @staticmethod
    def _normalize(base_url: str) -> str:
        return base_url.rstrip("/")

    def for_node(self, base_url: str) -> CircuitBreaker:
        """The (shared, lazily created) breaker guarding one backend."""
        key = self._normalize(base_url)
        with self._lock:
            breaker = self._breakers.get(key)
            if breaker is None:
                breaker = CircuitBreaker(self.failure_threshold,
                                         self.cooldown_s, clock=self._clock)
                self._breakers[key] = breaker
            return breaker

    def snapshot(self) -> Dict[str, Dict[str, Any]]:
        """Per-node breaker state, keyed by normalized URL."""
        with self._lock:
            items = list(self._breakers.items())
        return {url: breaker.snapshot() for url, breaker in items}


@dataclass
class ServeClient:
    """A retrying, deadline-bounded, circuit-broken service client.

    Args:
        base_url: e.g. ``http://127.0.0.1:8023``.
        retry: backoff policy.
        breaker: circuit breaker (share one instance across threads
            talking to the same server).
        breakers: optional :class:`BreakerPool`; when given, this
            client's ``breaker`` is the pool's per-node breaker for
            ``base_url`` (clients of *other* nodes drawing from the same
            pool keep independent breakers).
        timeout_s: per-attempt socket timeout.
        sleep: injectable for tests.
        rng: injectable jitter source for tests.
    """

    base_url: str
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    breaker: CircuitBreaker = field(default_factory=CircuitBreaker)
    breakers: Optional[BreakerPool] = None
    timeout_s: float = 30.0
    sleep: Callable[[float], None] = time.sleep
    rng: random.Random = field(default_factory=random.Random)

    def __post_init__(self) -> None:
        if self.breakers is not None:
            self.breaker = self.breakers.for_node(self.base_url)

    # ------------------------------------------------------------- transport

    def _request(self, method: str, path: str,
                 body: Optional[Dict[str, Any]] = None,
                 timeout_s: Optional[float] = None):
        """One attempt; returns ``(status, parsed_json, headers)``.

        Transport-level failures (refused, reset, timeout) are reported
        as status 0 with a synthesized body.
        """
        url = self.base_url.rstrip("/") + path
        data = None if body is None else json.dumps(body).encode("utf-8")
        request = urllib.request.Request(
            url, data=data, method=method,
            headers={"Content-Type": "application/json"})
        try:
            with urllib.request.urlopen(
                    request,
                    timeout=self.timeout_s if timeout_s is None
                    else timeout_s) as response:
                payload = _parse(response.read())
                return response.status, payload, dict(response.headers)
        except urllib.error.HTTPError as exc:
            payload = _parse(exc.read())
            return exc.code, payload, dict(exc.headers or {})
        except (urllib.error.URLError, socket.timeout, ConnectionError,
                TimeoutError) as exc:
            reason = getattr(exc, "reason", exc)
            return 0, {"error": f"connection failed: {reason}"}, {}

    # ------------------------------------------------------------- endpoints

    def simulate(self, request: Dict[str, Any],
                 budget_s: Optional[float] = None) -> Dict[str, Any]:
        """Run one point through the service; returns the 200 body.

        Args:
            request: the ``/v1/simulate`` body (see
                :mod:`repro.serve.protocol`).
            budget_s: total wall-clock allowance across every attempt and
                backoff sleep (default: ``retry.max_attempts *
                timeout_s``).

        Raises:
            ServeError: permanent rejection (carries the 4xx status), the
                circuit is open, or retries/budget ran out (carries the
                last status seen; 0 means the server was never reached).
        """
        if budget_s is None:
            budget_s = self.retry.max_attempts * self.timeout_s
        give_up_at = time.monotonic() + budget_s
        last_status, last_error = 0, "no attempt made"
        for attempt in range(self.retry.max_attempts):
            if not self.breaker.allow():
                raise ServeError(
                    f"circuit breaker is {self.breaker.state}; "
                    f"last error: {last_error}", status=last_status)
            remaining = give_up_at - time.monotonic()
            if remaining <= 0:
                break
            status, payload, headers = self._request(
                "POST", "/v1/simulate", request,
                timeout_s=min(self.timeout_s, remaining))
            if status == 200:
                self.breaker.record_success()
                return payload
            last_status = status
            last_error = (payload or {}).get("error", f"HTTP {status}")
            if status == 0:
                self.breaker.record_failure()
            else:
                # The server answered: it is alive, however unhappy —
                # that is not the failure mode the breaker guards against.
                self.breaker.record_success()
            if status not in RETRYABLE_STATUSES and status != 0:
                raise ServeError(f"request rejected: {last_error}",
                                 status=status)
            retry_after = _retry_after(headers)
            delay = self.retry.delay(attempt, self.rng, retry_after)
            remaining = give_up_at - time.monotonic()
            if remaining <= 0 or delay > remaining:
                break
            self.sleep(delay)
        raise ServeError(
            f"gave up after retries/budget: {last_error}",
            status=last_status)

    def ready(self) -> bool:
        """Whether the server is accepting work right now."""
        status, _, _ = self._request("GET", "/readyz")
        return status == 200

    def readiness(self,
                  timeout_s: Optional[float] = None
                  ) -> Tuple[bool, Dict[str, Any]]:
        """One ``/readyz`` probe: ``(accepting, body)``.

        The body carries the server's load signals (admission queue
        depth, in-flight count, engine list) for load-aware dispatch; a
        transport failure yields ``(False, {"error": ...})``.
        """
        status, payload, _ = self._request("GET", "/readyz",
                                           timeout_s=timeout_s)
        return status == 200, payload if isinstance(payload, dict) else {}

    def healthy(self) -> bool:
        """Whether the server process is up at all."""
        status, _, _ = self._request("GET", "/healthz")
        return status == 200


def _parse(blob: bytes) -> Dict[str, Any]:
    try:
        parsed = json.loads(blob.decode("utf-8"))
        return parsed if isinstance(parsed, dict) else {"body": parsed}
    except (json.JSONDecodeError, UnicodeDecodeError):
        return {"error": "unparsable response body"}


def _retry_after(headers: Dict[str, str]) -> Optional[float]:
    for name, value in headers.items():
        if name.lower() == "retry-after":
            try:
                return max(0.0, float(value))
            except ValueError:
                return None
    return None
