"""The service end to end: correct answers, caching, shedding,
deadlines, observability, and graceful drain."""

import json
import threading
import time
import urllib.error
import urllib.request

import pytest

from prom_exposition import validate_exposition
from repro.core.config import base_architecture
from repro.core.serialization import config_to_dict, profile_to_dict
from repro.core.simulator import simulate
from repro.errors import ServeError
from repro.serve.client import RetryPolicy, ServeClient
from repro.serve.server import ServeSettings, SimServer
from repro.trace.benchmarks import default_suite

INSTRUCTIONS = 5_000
TIME_SLICE = 2_000
SUITE = default_suite(INSTRUCTIONS)[:2]


def request_body(instructions=INSTRUCTIONS, deadline_s=None):
    profiles = (SUITE if instructions == INSTRUCTIONS
                else default_suite(instructions)[:2])
    payload = {
        "config": config_to_dict(base_architecture()),
        "workload": {"profiles": [profile_to_dict(p) for p in profiles]},
        "time_slice": TIME_SLICE,
    }
    if deadline_s is not None:
        payload["deadline_s"] = deadline_s
    return payload


def no_retry_client(server):
    return ServeClient(f"http://127.0.0.1:{server.port}",
                       retry=RetryPolicy(max_attempts=1),
                       timeout_s=30.0)


def count(server, family, label):
    """One labeled child of a serve counter, read from the registry."""
    return server.metrics.registry.get(family).value_of(label)


def post_raw(server, payload):
    """One raw POST; returns (status, parsed_body, headers)."""
    request = urllib.request.Request(
        f"http://127.0.0.1:{server.port}/v1/simulate",
        data=json.dumps(payload).encode("utf-8"), method="POST",
        headers={"Content-Type": "application/json"})
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            return (response.status, json.loads(response.read()),
                    dict(response.headers))
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read()), dict(exc.headers or {})


@pytest.fixture
def server(tmp_path):
    """A started server with a private cache; drained at teardown."""
    from repro.farm.cache import ResultCache

    instance = SimServer(
        ServeSettings(port=0, queue_depth=4, workers=2,
                      default_deadline_s=30.0, drain_grace_s=5.0),
        cache=ResultCache(tmp_path / "cache"))
    instance.start()
    yield instance
    if instance._httpd is not None:
        instance.drain(grace_s=5.0)


class TestSimulate:
    def test_200_is_bit_identical_to_direct_simulation(self, server):
        truth = simulate(base_architecture(), list(SUITE),
                         time_slice=TIME_SLICE).to_dict()
        result = no_retry_client(server).simulate(request_body())
        assert result["cached"] is False
        assert result["stats"] == truth

    def test_second_request_is_a_cache_hit_same_answer(self, server):
        client = no_retry_client(server)
        first = client.simulate(request_body())
        second = client.simulate(request_body())
        assert first["cached"] is False and second["cached"] is True
        assert first["stats"] == second["stats"]
        assert first["key"] == second["key"]
        assert count(server, "serve_executor_total", "cache_hits") == 1

    def test_bad_request_is_400_with_message_not_traceback(self, server):
        status, body, _ = post_raw(server, {"config": {"junk": 1},
                                            "workload": {"profiles": []}})
        assert status == 400
        assert "error" in body and "Traceback" not in body["error"]

    def test_client_refuses_to_retry_a_400(self, server):
        with pytest.raises(ServeError) as excinfo:
            no_retry_client(server).simulate({"nonsense": True})
        assert excinfo.value.status == 400

    def test_unknown_path_is_404(self, server):
        status, body, _ = post_raw(server, request_body())
        assert status == 200  # sanity: the good path first
        request = urllib.request.Request(
            f"http://127.0.0.1:{server.port}/v1/nope", data=b"{}",
            method="POST")
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=10)
        assert excinfo.value.code == 404

    def test_missing_content_length_is_400(self, server):
        import http.client

        conn = http.client.HTTPConnection("127.0.0.1", server.port,
                                          timeout=10)
        try:
            conn.putrequest("POST", "/v1/simulate", skip_accept_encoding=True)
            conn.endheaders()  # no Content-Length, no body
            response = conn.getresponse()
            assert response.status == 400
        finally:
            conn.close()


class _StalledServer(SimServer):
    """Executor that parks every job until released: deterministic
    backpressure without real simulations."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.release = threading.Event()

    def _execute(self, job):
        self.release.wait(timeout=30)
        job.finish(200, {"stalled": True})


class TestBackpressure:
    def test_full_queue_sheds_429_with_retry_after(self):
        server = _StalledServer(ServeSettings(
            port=0, queue_depth=1, workers=1, retry_after_s=2.0,
            default_deadline_s=30.0))
        server.start()
        try:
            results = []

            def fire():
                results.append(post_raw(server, request_body()))

            # One request occupies the lone executor...
            threads = [threading.Thread(target=fire)]
            threads[0].start()
            deadline = time.monotonic() + 10
            while server._in_flight < 1 and time.monotonic() < deadline:
                time.sleep(0.01)
            assert server._in_flight == 1, "executor never picked up"
            # ...then a second fills the (depth-1) queue.
            threads.append(threading.Thread(target=fire))
            threads[1].start()
            deadline = time.monotonic() + 10
            while not server.queue.full() and time.monotonic() < deadline:
                time.sleep(0.01)
            assert server.queue.full(), "queue never filled"

            status, body, headers = post_raw(server, request_body())
            assert status == 429
            assert body["status"] == 429
            retry_after = {k.lower(): v for k, v in headers.items()
                           }.get("retry-after")
            assert retry_after is not None and int(retry_after) >= 1
            assert count(server, "serve_responses_total", "shed") == 1

            server.release.set()
            for thread in threads:
                thread.join(timeout=10)
            assert [status for status, _, _ in results] == [200, 200]
        finally:
            server.release.set()
            server.drain(grace_s=2.0)

    def test_draining_server_refuses_admission_503(self):
        server = _StalledServer(ServeSettings(port=0, queue_depth=4,
                                              workers=1))
        server.start()
        server.release.set()
        server._draining = True
        try:
            status, body, _ = post_raw(server, request_body())
            assert status == 503
            assert "drain" in body["error"]
        finally:
            server.drain(grace_s=2.0)


class TestDeadlines:
    def test_hopeless_deadline_is_an_explicit_504(self, server):
        # Far more work than 50ms allows: must expire, not hang or lie.
        status, body, _ = post_raw(
            server, request_body(instructions=500_000, deadline_s=0.05))
        assert status == 504
        assert "deadline" in body["error"]
        assert count(server, "serve_responses_total",
                     "deadline_expired") == 1

    def test_deadline_clamped_to_server_max(self, tmp_path):
        server = SimServer(ServeSettings(port=0, max_deadline_s=0.05,
                                         workers=1))
        server.start()
        try:
            status, body, _ = post_raw(
                server, request_body(instructions=500_000,
                                     deadline_s=3600.0))
            assert status == 504  # the hour was clamped to 50ms
        finally:
            server.drain(grace_s=2.0)


class TestObservability:
    def test_health_ready_metrics(self, server):
        client = no_retry_client(server)
        assert client.healthy() is True
        assert client.ready() is True
        client.simulate(request_body())
        with urllib.request.urlopen(
                f"http://127.0.0.1:{server.port}/metrics",
                timeout=30) as response:
            families = validate_exposition(response.read().decode())
        value = {(s.name, s.labels): s.value
                 for family in families.values() for s in family.samples}
        assert value["serve_draining", ()] == 0
        assert value["serve_responses_total", (("class", "ok"),)] == 1
        assert value["serve_executor_total",
                     (("outcome", "simulated"),)] == 1
        assert value["serve_queue_capacity", ()] == 4
        assert value["serve_requests_total",
                     (("endpoint", "simulate"),)] == 1
        assert value["serve_cache_entries", ()] == 1

    def test_metrics_counts_one_response_per_simulate(self, server):
        client = no_retry_client(server)
        client.simulate(request_body())
        client.simulate(request_body())  # cache hit
        assert count(server, "serve_responses_total", "ok") == 2
        assert server.metrics.registry.get(
            "serve_responses_total").value == 2


class TestReadiness:
    def test_readyz_body_carries_load_signals(self, server):
        ok, body = no_retry_client(server).readiness()
        assert ok is True
        assert body["ready"] is True
        assert body["draining"] is False
        assert body["queue_capacity"] == 4
        assert isinstance(body["queue_depth"], int)
        assert isinstance(body["in_flight"], int)
        assert "reference" in body["engines"]

    def test_draining_readyz_is_503_but_still_reports_load(self, server):
        server._draining = True
        ok, body = no_retry_client(server).readiness()
        assert ok is False
        assert body["draining"] is True
        assert body["queue_capacity"] == 4


class TestTraceOverTheWire:
    def test_client_obs_trace_id_names_the_response_trace(self, server):
        payload = request_body()
        payload["obs_trace"] = "feed" * 8
        result = no_retry_client(server).simulate(payload)
        assert result["trace"]["id"] == "feed" * 8
        assert result["trace"]["spans"]  # server-side spans came back

    def test_response_stats_carry_a_matching_digest(self, server):
        from repro.serve.protocol import stats_digest

        result = no_retry_client(server).simulate(request_body())
        assert result["stats_sha256"] == stats_digest(result["stats"])


class TestDrain:
    def test_idle_drain_is_clean_and_stops_serving(self, server):
        client = no_retry_client(server)
        client.simulate(request_body())
        summary = server.drain(grace_s=2.0)
        assert summary["clean"] is True
        assert summary["cancelled"] == 0
        assert client.healthy() is False  # listener is gone

    def test_drain_waits_for_in_flight_work(self):
        server = _StalledServer(ServeSettings(port=0, queue_depth=4,
                                              workers=1, drain_grace_s=10.0))
        server.start()
        try:
            statuses = []
            thread = threading.Thread(target=lambda: statuses.append(
                post_raw(server, request_body())[0]))
            thread.start()
            deadline = time.monotonic() + 10
            while server._in_flight < 1 and time.monotonic() < deadline:
                time.sleep(0.01)
            threading.Timer(0.3, server.release.set).start()
            summary = server.drain(grace_s=8.0)
            thread.join(timeout=10)
            assert summary["clean"] is True
            assert statuses == [200]  # the in-flight request completed
        finally:
            server.release.set()

    def test_drain_line_rates_simulated_instructions(self, server):
        # One cold and one cached point: the closing line of repro-serve
        # start divides the simulated instructions by the simulation's
        # wall time, not the node's uptime, and names the cached ones
        # apart.
        from repro.serve.cli import drain_summary

        client = no_retry_client(server)
        assert client.simulate(request_body())["cached"] is False
        time.sleep(0.5)  # idle uptime the rate must not divide by
        assert client.simulate(request_body())["cached"] is True
        server.drain(grace_s=2.0)
        events = server.telemetry.events
        assert [e["cached"] for e in events] == [False, True]
        wall = events[0]["wall_s"]
        assert 0 < wall < server.telemetry.elapsed_s - 0.5
        instructions = 2 * INSTRUCTIONS
        assert drain_summary(server.telemetry) == (
            f"2 points, 1 cache hits (50.0%), {instructions:,} "
            f"instructions simulated in {wall:.3f}s "
            f"({instructions / wall / 1e6:.2f} M instr/s), "
            f"{instructions:,} from the cache")

    def test_drain_is_idempotent(self, server):
        assert server.drain(grace_s=1.0)["clean"] is True
        assert server.drain(grace_s=1.0)["clean"] is True
