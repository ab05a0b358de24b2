"""Client defences in isolation: backoff with jitter, Retry-After as a
floor, and the total budget."""

import random

import pytest

from repro.errors import ServeError
from repro.serve.client import RetryPolicy, ServeClient


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
