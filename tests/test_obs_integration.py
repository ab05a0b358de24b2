"""Cross-layer observability: serve trace round-trips, the telemetry
throughput fix, and the experiments runner's heartbeat."""

import io
import time

import pytest

from repro.core.config import base_architecture
from repro.core.serialization import config_to_dict, profile_to_dict
from repro.farm.telemetry import RunTelemetry
from repro.serve.client import RetryPolicy, ServeClient
from repro.serve.server import ServeSettings, SimServer
from repro.trace.benchmarks import default_suite

INSTRUCTIONS = 4_000
SUITE = default_suite(INSTRUCTIONS)[:2]


def request_body():
    return {
        "config": config_to_dict(base_architecture()),
        "workload": {"profiles": [profile_to_dict(p) for p in SUITE]},
        "time_slice": 2_000,
    }


def make_server(tmp_path, isolation):
    from repro.farm.cache import ResultCache

    server = SimServer(
        ServeSettings(port=0, queue_depth=4, workers=1,
                      default_deadline_s=30.0, drain_grace_s=5.0,
                      isolation=isolation),
        cache=ResultCache(tmp_path / "cache"))
    server.start()
    return server


def client_for(server):
    return ServeClient(f"http://127.0.0.1:{server.port}",
                       retry=RetryPolicy(max_attempts=1), timeout_s=30.0)


class TestServeTraceRoundTrip:
    def _assert_trace(self, result, expect_span):
        trace = result["trace"]
        assert trace["id"]
        names = [s["name"] for s in trace["spans"]]
        assert "request" in names
        assert "queue_wait" in names
        assert expect_span in names
        # Every span carries the one request's trace id.
        assert {s["trace"] for s in trace["spans"]} == {trace["id"]}

    def test_inline_isolation(self, tmp_path):
        server = make_server(tmp_path, "inline")
        try:
            result = client_for(server).simulate(request_body())
            self._assert_trace(result, "simulate")
        finally:
            server.drain(grace_s=5.0)

    def test_forked_isolation_stitches_worker_spans(self, tmp_path):
        from repro.farm.pool import fork_available

        if not fork_available():
            pytest.skip("platform cannot fork")
        server = make_server(tmp_path, "fork")
        try:
            result = client_for(server).simulate(request_body())
            # The "simulate" span happened in a child process yet appears
            # in the response trace alongside the parent's spans.
            self._assert_trace(result, "simulate")
            self._assert_trace(result, "execute")
        finally:
            server.drain(grace_s=5.0)

    def test_cache_hit_still_returns_a_trace(self, tmp_path):
        server = make_server(tmp_path, "inline")
        try:
            client = client_for(server)
            client.simulate(request_body())
            result = client.simulate(request_body())
            assert result["cached"] is True
            names = [s["name"] for s in result["trace"]["spans"]]
            assert "cache_probe" in names and "request" in names
        finally:
            server.drain(grace_s=5.0)


class TestThroughputExcludesCacheHits:
    """Regression: instr/sec used to count cache-hit instructions, so a
    warm-cache sweep reported absurd simulator throughput."""

    def test_cached_instructions_do_not_inflate_the_rate(self):
        telemetry = RunTelemetry(stream=None)
        telemetry.record_point("sim", 1_000, 0.01, cached=False)
        telemetry.record_point("hit", 1_000_000_000, 0.0, cached=True)
        s = telemetry.summary()
        assert s["simulated_instructions"] == 1_000
        assert s["cached_instructions"] == 1_000_000_000
        assert s["instructions"] == 1_000_001_000
        # The rate is simulated/elapsed: the billion cached instructions
        # must not appear in it.
        assert s["instructions_per_second"] * s["elapsed_s"] == \
            pytest.approx(1_000, rel=0.05)
        assert (s["instructions_per_second"]
                == s["simulated_instructions_per_second"])


class TestHeartbeat:
    def test_format_line_reads_the_shared_telemetry(self):
        from repro.experiments.runner import Heartbeat

        telemetry = RunTelemetry(stream=None)
        telemetry.record_point("fig4-128", 2_000, 0.5, cached=False)
        telemetry.record_point("fig4-256", 2_000, 0.0, cached=True)
        line = Heartbeat(telemetry, 10.0,
                         stream=io.StringIO())._format_line()
        assert line.startswith("[heartbeat]")
        assert "last point fig4-256" in line
        assert "2 points (1 cache hits / 1 misses)" in line
        assert "simulated instr/s" in line

    def test_periodic_emission_and_stop(self):
        from repro.experiments.runner import Heartbeat

        stream = io.StringIO()
        beat = Heartbeat(RunTelemetry(stream=None), 0.02,
                         stream=stream).start()
        deadline = time.monotonic() + 5.0
        while "[heartbeat]" not in stream.getvalue():
            assert time.monotonic() < deadline, "no heartbeat within 5s"
            time.sleep(0.01)
        beat.stop()
        quiesced = stream.getvalue()
        time.sleep(0.1)
        assert stream.getvalue() == quiesced, "heartbeat kept printing"

    def test_interval_must_be_positive(self):
        from repro.experiments.runner import Heartbeat

        with pytest.raises(ValueError):
            Heartbeat(RunTelemetry(stream=None), 0.0)

    def test_cli_rejects_non_positive_heartbeat(self, capsys):
        from repro.experiments.runner import main

        assert main(["--heartbeat", "0", "fig4"]) == 2
        assert "--heartbeat" in capsys.readouterr().err
