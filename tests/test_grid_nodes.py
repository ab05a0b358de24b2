"""The node registry: placement, quarantine, probation, re-admission."""

import pytest

from repro.errors import GridError
from repro.grid.nodes import NodeRegistry, normalize_node_url


class FakeClock:
    def __init__(self, now=100.0):
        self.now = now

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


class FakeClient:
    """Scriptable stand-in for ServeClient: probes answer from a list."""

    def __init__(self, url):
        self.url = url
        self.ready_script = []   # pop(0) per probe; empty -> ready
        self.ready_body = {"queue_depth": 0, "in_flight": 0}

    def readiness(self, timeout_s=None):
        ok = self.ready_script.pop(0) if self.ready_script else True
        return ok, dict(self.ready_body) if ok else {"error": "down"}


def registry(urls=("http://a", "http://b"), **kwargs):
    kwargs.setdefault("quarantine_after", 2)
    kwargs.setdefault("readmit_after_s", 10.0)
    kwargs.setdefault("client_factory", FakeClient)
    return NodeRegistry(list(urls), **kwargs)


class TestNormalize:
    def test_scheme_added_and_slash_stripped(self):
        assert normalize_node_url("127.0.0.1:8031/") == \
            "http://127.0.0.1:8031"
        assert normalize_node_url("http://h:1/") == "http://h:1"

    def test_empty_rejected(self):
        with pytest.raises(GridError):
            normalize_node_url("   ")


class TestConstruction:
    def test_needs_backends(self):
        with pytest.raises(GridError):
            NodeRegistry([])

    def test_duplicates_rejected_after_normalization(self):
        with pytest.raises(GridError, match="duplicate"):
            registry(urls=["http://a", "a/"])


class TestPlacement:
    def test_least_loaded_wins_ties_by_url(self):
        reg = registry()
        first = reg.acquire()
        assert first.url == "http://a"          # tie -> url order
        second = reg.acquire()
        assert second.url == "http://b"         # a is now loaded
        third = reg.acquire()
        assert third.url == "http://a"          # tied again
        reg.release(second)
        assert reg.acquire().url == "http://b"  # b least loaded

    def test_exclude_skips_nodes(self):
        reg = registry()
        assert reg.acquire(exclude=["http://a"]).url == "http://b"

    def test_everything_excluded_is_none(self):
        reg = registry()
        assert reg.acquire(exclude=["http://a", "http://b"]) is None


class TestQuarantine:
    def test_consecutive_failures_quarantine(self):
        clock = FakeClock()
        reg = registry(clock=clock)
        node = reg.nodes[0]
        reg.note_failure(node)
        assert not node.quarantined
        reg.note_failure(node)
        assert node.quarantined
        assert reg.healthy_count() == 1

    def test_success_resets_the_streak(self):
        reg = registry()
        node = reg.nodes[0]
        reg.note_failure(node)
        reg.note_success(node)
        reg.note_failure(node)
        assert not node.quarantined

    def test_quarantined_node_not_placed_until_cooldown(self):
        clock = FakeClock()
        reg = registry(clock=clock)
        node_a = reg.nodes[0]
        reg.note_failure(node_a)
        reg.note_failure(node_a)
        for _ in range(4):
            assert reg.acquire().url == "http://b"
        clock.advance(11.0)                      # past readmit_after_s
        urls = {reg.acquire().url for _ in range(4)}
        assert "http://a" in urls                # probation traffic

    def test_probation_success_readmits(self):
        clock = FakeClock()
        reg = registry(clock=clock)
        node = reg.nodes[0]
        reg.note_failure(node)
        reg.note_failure(node)
        clock.advance(11.0)
        reg.note_success(node)
        assert not node.quarantined
        assert reg.healthy_count() == 2

    def test_probation_failure_requarantines_with_fresh_cooldown(self):
        clock = FakeClock()
        reg = registry(clock=clock)
        node = reg.nodes[0]
        reg.note_failure(node)
        reg.note_failure(node)
        clock.advance(11.0)
        reg.note_failure(node)                   # probation blown
        assert node.quarantined
        assert node.quarantines == 2
        assert clock() - node.quarantined_at == 0.0


class TestProbing:
    def test_probe_success_stores_load_signals(self):
        reg = registry()
        node = reg.nodes[0]
        assert reg.probe(node)
        assert node.last_probe_ok is True
        assert node.last_ready == {"queue_depth": 0, "in_flight": 0}

    def test_probe_failures_quarantine_and_recovery_readmits(self):
        clock = FakeClock()
        reg = registry(clock=clock)
        node = reg.nodes[0]
        node.client.ready_script = [False, False, True]
        reg.poll_once()
        reg.poll_once()
        assert node.quarantined
        clock.advance(11.0)
        reg.poll_once()                          # probation probe: True
        assert not node.quarantined
        snapshot = reg.metrics.snapshot()
        assert snapshot["grid_readmissions_total"]["values"][
            '["http://a"]'] == 1

    def test_quarantined_node_not_probed_during_cooldown(self):
        clock = FakeClock()
        reg = registry(clock=clock)
        node = reg.nodes[0]
        node.client.ready_script = [False, False, False]
        reg.poll_once()
        reg.poll_once()
        assert node.quarantined
        reg.poll_once()                          # inside cooldown
        assert len(node.client.ready_script) == 1   # third probe unsent


class TestSnapshot:
    def test_snapshot_is_json_ready(self):
        import json

        reg = registry()
        reg.probe(reg.nodes[0])
        snap = reg.snapshot()
        assert json.loads(json.dumps(snap)) == snap
        assert snap[0]["state"] == "healthy"
        assert snap[0]["url"] == "http://a"
