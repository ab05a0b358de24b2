"""A robust client for the simulation service.

:class:`ServeClient` wraps ``POST /v1/simulate`` with the two defences a
client of a load-shedding service needs:

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

Permanent errors (400 bad request, 404) are never retried: the request
will not get better by asking again.  Health across several servers is
the caller's business: the grid quarantines a node that keeps failing
(:mod:`repro.grid.nodes`).
"""

from __future__ import annotations

import json
import random
import socket
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


@dataclass
class ServeClient:
    """A retrying, deadline-bounded service client.

    Args:
        base_url: e.g. ``http://127.0.0.1:8023``.
        retry: backoff policy.
        timeout_s: per-attempt socket timeout.
        sleep: injectable for tests.
        rng: injectable jitter source for tests.
    """

    base_url: str
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    timeout_s: float = 30.0
    sleep: Callable[[float], None] = time.sleep
    rng: random.Random = field(default_factory=random.Random)

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
            ServeError: permanent rejection (carries the 4xx status), or
                retries/budget ran out (carries the last status seen; 0
                means the server was never reached).
        """
        if budget_s is None:
            budget_s = self.retry.max_attempts * self.timeout_s
        give_up_at = time.monotonic() + budget_s
        last_status, last_error = 0, "no attempt made"
        for attempt in range(self.retry.max_attempts):
            remaining = give_up_at - time.monotonic()
            if remaining <= 0:
                break
            status, payload, headers = self._request(
                "POST", "/v1/simulate", request,
                timeout_s=min(self.timeout_s, remaining))
            if status == 200:
                return payload
            last_status = status
            last_error = (payload or {}).get("error", f"HTTP {status}")
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
