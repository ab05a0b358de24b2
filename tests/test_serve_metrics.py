"""Serve's ``/metrics``: one Prometheus exposition whatever the request
asks for, the request-latency histogram, the load gauges, and strict
exposition on two live nodes."""

import json
import urllib.request

import pytest

from prom_exposition import validate_exposition
from repro.core.config import base_architecture
from repro.core.serialization import config_to_dict, profile_to_dict
from repro.farm.cache import ResultCache
from repro.serve.server import ServeSettings, SimServer
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
        """A scrape URL that still asks for ``?format=prometheus`` gets
        the one exposition."""
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
        """A scraper's ``Accept: text/plain`` gets the same exposition."""
        status, text, headers = fetch(server, "/metrics",
                                      accept="text/plain")
        assert status == 200
        assert "version=0.0.4" in headers["Content-Type"]
        validate_exposition(text)

    def test_every_request_gets_the_exposition(self, server):
        """There is one format: neither a query string nor an ``Accept``
        header asking for JSON changes the answer."""
        simulate(server)
        for path, accept in (("/metrics", None),
                             ("/metrics?format=json", None),
                             ("/metrics", "application/json")):
            status, text, headers = fetch(server, path, accept=accept)
            assert status == 200
            assert headers["Content-Type"].startswith(
                "text/plain; version=0.0.4"), (path, accept)
            assert "serve_requests_total" in validate_exposition(text)

    def test_draining_gauge_follows_the_drain(self, server):
        def draining():
            _, text, _ = fetch(server, "/metrics")
            [sample] = validate_exposition(text)["serve_draining"].samples
            return sample.value

        assert draining() == 0
        server._draining = True
        assert draining() == 1

    def test_latency_histogram_counts_every_simulate(self, server):
        simulate(server)
        simulate(server)  # cache hit — still a request
        _, text, _ = fetch(server, "/metrics")
        families = validate_exposition(text)
        counts = [s.value for s in families["serve_request_seconds"].samples
                  if s.name == "serve_request_seconds_count"]
        assert sum(counts) == 2

    def test_exposition_merges_farm_telemetry(self, server):
        simulate(server)
        _, text, _ = fetch(server, "/metrics")
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
        _, text, _ = fetch(instance, "/metrics")
        families = validate_exposition(text)
        assert families["serve_requests_total"].type == "counter"
        assert families["serve_request_seconds"].type == "histogram"

