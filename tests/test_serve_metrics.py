"""Serve's ``/metrics``: Prometheus exposition and content negotiation,
the request-latency histogram, strict exposition on two live nodes, and
the bounded deduplicated trace window under concurrent hammering."""

import json
import threading
import urllib.request

import pytest

from prom_exposition import validate_exposition
from repro.core.config import base_architecture
from repro.core.serialization import config_to_dict, profile_to_dict
from repro.farm.cache import ResultCache
from repro.serve.server import (RECENT_TRACES_MAX, ServeSettings,
                                SimServer)
from repro.trace.benchmarks import default_suite

INSTRUCTIONS = 5_000
SUITE = default_suite(INSTRUCTIONS)[:2]


@pytest.fixture
def server(tmp_path):
    instance = SimServer(
        ServeSettings(port=0, queue_depth=8, workers=2,
                      default_deadline_s=30.0, drain_grace_s=5.0),
        cache=ResultCache(tmp_path / "cache"))
    instance.start()
    yield instance
    if instance._httpd is not None:
        instance.drain(grace_s=5.0)


def fetch(server, path, accept=None):
    headers = {"Accept": accept} if accept else {}
    request = urllib.request.Request(
        f"http://127.0.0.1:{server.port}{path}", headers=headers)
    with urllib.request.urlopen(request, timeout=30) as response:
        return (response.status, response.read().decode("utf-8"),
                dict(response.headers))


def simulate(server, obs_trace=None):
    payload = {
        "config": config_to_dict(base_architecture()),
        "workload": {"profiles": [profile_to_dict(p) for p in SUITE]},
        "time_slice": 2_000,
    }
    if obs_trace is not None:
        payload["obs_trace"] = obs_trace
    request = urllib.request.Request(
        f"http://127.0.0.1:{server.port}/v1/simulate",
        data=json.dumps(payload).encode("utf-8"), method="POST",
        headers={"Content-Type": "application/json"})
    with urllib.request.urlopen(request, timeout=30) as response:
        return json.loads(response.read())


class TestPrometheusEndpoint:
    def test_format_param_switches_to_text_exposition(self, server):
        simulate(server)
        status, text, headers = fetch(server,
                                      "/metrics?format=prometheus")
        assert status == 200
        assert "version=0.0.4" in headers["Content-Type"]
        families = validate_exposition(text)
        assert families["serve_requests_total"].type == "counter"
        assert families["serve_request_seconds"].type == "histogram"
        assert families["serve_queue_depth"].type == "gauge"
        assert families["serve_cache_entries"].type == "gauge"

    def test_accept_header_negotiates_text_plain(self, server):
        status, text, headers = fetch(server, "/metrics",
                                      accept="text/plain")
        assert status == 200
        assert "version=0.0.4" in headers["Content-Type"]
        validate_exposition(text)

    def test_default_metrics_stays_legacy_json(self, server):
        simulate(server)
        status, body, headers = fetch(server, "/metrics")
        assert status == 200
        assert headers["Content-Type"].startswith("application/json")
        doc = json.loads(body)
        # The legacy contract every existing scraper relies on.
        for key in ("service", "uptime_s", "queue", "obs",
                    "recent_trace_ids", "responses"):
            assert key in doc

    def test_explicit_json_format_wins_over_accept(self, server):
        status, body, headers = fetch(server, "/metrics?format=json",
                                      accept="text/plain")
        assert headers["Content-Type"].startswith("application/json")
        json.loads(body)

    def test_latency_histogram_counts_every_simulate(self, server):
        simulate(server)
        simulate(server)  # cache hit — still a request
        _, text, _ = fetch(server, "/metrics?format=prometheus")
        families = validate_exposition(text)
        counts = [s.value for s in families["serve_request_seconds"].samples
                  if s.name == "serve_request_seconds_count"]
        assert sum(counts) == 2

    def test_exposition_merges_farm_telemetry(self, server):
        simulate(server)
        _, text, _ = fetch(server, "/metrics?format=prometheus")
        assert "farm_points_total" in validate_exposition(text)


@pytest.fixture
def servers():
    pool = []
    for _ in range(2):
        instance = SimServer(ServeSettings(
            port=0, queue_depth=8, workers=2, isolation="inline",
            default_deadline_s=30.0, drain_grace_s=2.0))
        instance.start()
        pool.append(instance)
    yield pool
    for instance in pool:
        if instance._httpd is not None:
            try:
                instance.drain(grace_s=2.0)
            except Exception:
                pass


def test_every_node_exposes_strictly_valid_prometheus(servers):
    for instance in servers:
        simulate(instance)
        _, text, _ = fetch(instance, "/metrics?format=prometheus")
        families = validate_exposition(text)
        assert families["serve_requests_total"].type == "counter"
        assert families["serve_request_seconds"].type == "histogram"


class TestTraceWindow:
    def test_repeated_trace_id_dedups_to_one_entry(self, server):
        simulate(server, obs_trace="cafe" * 8)
        simulate(server, obs_trace="cafe" * 8)
        recent = server.status_snapshot()["recent_trace_ids"]
        assert recent.count("cafe" * 8) == 1

    def test_concurrent_hammer_stays_bounded_and_unique(self, server):
        """Regression: the window must stay bounded and duplicate-free
        when many threads note overlapping trace IDs at once."""
        trace_ids = [f"{i:04x}" * 8 for i in range(10)]
        errors = []

        def hammer(seed):
            try:
                for i in range(200):
                    server._note_trace(trace_ids[(seed + i) % 10])
            except Exception as exc:  # pragma: no cover - the regression
                errors.append(exc)

        threads = [threading.Thread(target=hammer, args=(seed,))
                   for seed in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert not errors
        recent = server.status_snapshot()["recent_trace_ids"]
        assert len(recent) <= RECENT_TRACES_MAX
        assert len(recent) == len(set(recent))
        assert set(recent) <= set(trace_ids)

    def test_window_evicts_oldest_beyond_the_cap(self, server):
        for i in range(RECENT_TRACES_MAX + 5):
            server._note_trace(f"{i:04x}" * 8)
        recent = server.status_snapshot()["recent_trace_ids"]
        assert len(recent) == RECENT_TRACES_MAX
        assert recent[-1] == f"{RECENT_TRACES_MAX + 4:04x}" * 8
        assert f"{0:04x}" * 8 not in recent
