"""Client defences in isolation: backoff with jitter, Retry-After as a
floor, the total budget, and the circuit breaker's state machine."""

import json
import random

import pytest

from repro.errors import ServeError
from repro.serve.client import (
    BreakerPool,
    CircuitBreaker,
    RetryPolicy,
    ServeClient,
)


class ScriptedClient(ServeClient):
    """A client whose transport replays a fixed script of
    ``(status, body, headers)`` tuples instead of touching the network."""

    def begin(self, script):
        self.script = list(script)
        self.calls = 0
        self.slept = []
        self.sleep = self.slept.append
        return self

    def _request(self, method, path, body=None, timeout_s=None):
        self.calls += 1
        if not self.script:
            raise AssertionError("script exhausted")
        return self.script.pop(0)


def client(script, **kwargs):
    kwargs.setdefault("retry", RetryPolicy(max_attempts=4,
                                           base_delay_s=0.01,
                                           max_delay_s=0.05))
    kwargs.setdefault("breaker", CircuitBreaker(failure_threshold=100))
    kwargs.setdefault("rng", random.Random(7))
    return ScriptedClient("http://test", **kwargs).begin(script)


OK = (200, {"cached": True, "stats": {}}, {})
SHED = (429, {"error": "queue full"}, {"Retry-After": "3"})
DOWN = (0, {"error": "connection failed"}, {})


class TestRetries:
    def test_success_first_try(self):
        c = client([OK])
        assert c.simulate({})["cached"] is True
        assert c.calls == 1 and c.slept == []

    def test_retries_through_transient_failures(self):
        c = client([SHED, (503, {"error": "draining"}, {}), DOWN, OK])
        assert c.simulate({}, budget_s=60)["cached"] is True
        assert c.calls == 4
        assert len(c.slept) == 3

    def test_retry_after_is_the_delay_floor(self):
        c = client([SHED, OK])
        c.simulate({}, budget_s=60)
        # Jittered delay is <= 0.05s by policy; Retry-After says 3s.
        assert c.slept == [3.0]

    def test_exhausted_retries_carry_last_status(self):
        c = client([SHED] * 4)
        with pytest.raises(ServeError) as excinfo:
            c.simulate({}, budget_s=60)
        assert excinfo.value.status == 429
        assert c.calls == 4

    @pytest.mark.parametrize("status", [400, 404])
    def test_permanent_errors_never_retry(self, status):
        c = client([(status, {"error": "no"}, {})])
        with pytest.raises(ServeError) as excinfo:
            c.simulate({}, budget_s=60)
        assert excinfo.value.status == status
        assert c.calls == 1 and c.slept == []


class TestBudget:
    def test_zero_budget_fails_without_an_attempt(self):
        c = client([OK])
        with pytest.raises(ServeError, match="gave up"):
            c.simulate({}, budget_s=0)
        assert c.calls == 0

    def test_budget_cuts_backoff_short(self):
        # Retry-After of 3s exceeds the 0.5s budget left after the first
        # attempt: the client must give up instead of oversleeping.
        c = client([SHED, OK])
        with pytest.raises(ServeError) as excinfo:
            c.simulate({}, budget_s=0.5)
        assert excinfo.value.status == 429
        assert c.calls == 1 and c.slept == []


class TestRetryPolicy:
    def test_delay_is_bounded_and_grows(self):
        policy = RetryPolicy(base_delay_s=0.1, max_delay_s=1.0)
        rng = random.Random(0)
        for attempt in range(8):
            cap = min(1.0, 0.1 * 2 ** attempt)
            for _ in range(50):
                assert 0.0 <= policy.delay(attempt, rng) <= cap

    def test_jitter_decorrelates(self):
        policy = RetryPolicy(base_delay_s=1.0, max_delay_s=8.0)
        rng = random.Random(1)
        delays = {policy.delay(3, rng) for _ in range(20)}
        assert len(delays) > 1


class TestCircuitBreaker:
    def test_opens_after_threshold_consecutive_failures(self):
        clock = [0.0]
        breaker = CircuitBreaker(failure_threshold=3, cooldown_s=5.0,
                                 clock=lambda: clock[0])
        for _ in range(2):
            breaker.record_failure()
        assert breaker.state == CircuitBreaker.CLOSED
        breaker.record_failure()
        assert breaker.state == CircuitBreaker.OPEN
        assert breaker.allow() is False

    def test_half_open_allows_exactly_one_probe(self):
        clock = [0.0]
        breaker = CircuitBreaker(failure_threshold=1, cooldown_s=5.0,
                                 clock=lambda: clock[0])
        breaker.record_failure()
        clock[0] = 6.0
        assert breaker.state == CircuitBreaker.HALF_OPEN
        assert breaker.allow() is True   # the probe
        assert breaker.allow() is False  # everyone else waits

    def test_successful_probe_closes(self):
        clock = [0.0]
        breaker = CircuitBreaker(failure_threshold=1, cooldown_s=5.0,
                                 clock=lambda: clock[0])
        breaker.record_failure()
        clock[0] = 6.0
        assert breaker.allow() is True
        breaker.record_success()
        assert breaker.state == CircuitBreaker.CLOSED
        assert breaker.allow() is True

    def test_failed_probe_reopens(self):
        clock = [0.0]
        breaker = CircuitBreaker(failure_threshold=1, cooldown_s=5.0,
                                 clock=lambda: clock[0])
        breaker.record_failure()
        clock[0] = 6.0
        assert breaker.allow() is True
        breaker.record_failure()
        assert breaker.state == CircuitBreaker.OPEN
        assert breaker.allow() is False

    def test_success_resets_the_failure_streak(self):
        breaker = CircuitBreaker(failure_threshold=3)
        breaker.record_failure()
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == CircuitBreaker.CLOSED


class TestBreakerPool:
    def test_one_breaker_per_node_normalized(self):
        pool = BreakerPool()
        assert pool.for_node("http://a:1") is pool.for_node("http://a:1/")
        assert pool.for_node("http://a:1") is not pool.for_node("http://b:2")

    def test_one_dead_node_does_not_blind_the_pool(self):
        pool = BreakerPool(failure_threshold=1, cooldown_s=60.0)
        pool.for_node("http://dead").record_failure()
        assert pool.for_node("http://dead").state == CircuitBreaker.OPEN
        assert pool.for_node("http://alive").state == CircuitBreaker.CLOSED
        assert pool.for_node("http://alive").allow() is True

    def test_client_draws_its_breaker_from_the_pool(self):
        pool = BreakerPool(failure_threshold=2, cooldown_s=60.0)
        c = ScriptedClient("http://test", breakers=pool,
                           retry=RetryPolicy(max_attempts=5,
                                             base_delay_s=0.001,
                                             max_delay_s=0.001),
                           rng=random.Random(7)).begin([DOWN, DOWN])
        with pytest.raises(ServeError, match="circuit breaker"):
            c.simulate({}, budget_s=60)
        assert pool.for_node("http://test").state == CircuitBreaker.OPEN
        assert pool.for_node("http://other").state == CircuitBreaker.CLOSED

    def test_snapshot_is_json_ready_per_node(self):
        pool = BreakerPool(failure_threshold=1, cooldown_s=60.0)
        pool.for_node("http://a/").record_failure()
        pool.for_node("http://b")
        snap = pool.snapshot()
        assert json.loads(json.dumps(snap)) == snap
        assert snap["http://a"]["state"] == CircuitBreaker.OPEN
        assert snap["http://b"]["state"] == CircuitBreaker.CLOSED


class TestClientWithBreaker:
    def test_transport_failures_open_the_circuit(self):
        breaker = CircuitBreaker(failure_threshold=2, cooldown_s=60.0)
        c = client([DOWN, DOWN], breaker=breaker,
                   retry=RetryPolicy(max_attempts=5, base_delay_s=0.001,
                                     max_delay_s=0.001))
        with pytest.raises(ServeError, match="circuit breaker"):
            c.simulate({}, budget_s=60)
        assert c.calls == 2  # third attempt failed fast, no transport

    def test_http_errors_do_not_open_the_circuit(self):
        # A 429 means the server is alive; the breaker guards against a
        # *dead* server, not an unhappy one.
        breaker = CircuitBreaker(failure_threshold=2, cooldown_s=60.0)
        c = client([SHED, SHED, SHED], breaker=breaker,
                   retry=RetryPolicy(max_attempts=3, base_delay_s=0.001,
                                     max_delay_s=0.001))
        with pytest.raises(ServeError) as excinfo:
            c.simulate({}, budget_s=60)
        assert excinfo.value.status == 429
        assert breaker.state == CircuitBreaker.CLOSED
        assert c.calls == 3
