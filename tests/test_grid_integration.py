"""The grid against real in-process serve backends: a distributed sweep
is bit-identical to serial, survives a killed node and a draining node,
and stitches the caller's trace across the wire."""

import json

import pytest

import repro.obs as obs
from repro.core.config import base_architecture
from repro.farm.points import PointSpec, run_points
from repro.grid.dispatcher import GridDispatcher, GridSettings
from repro.grid.nodes import normalize_node_url
from repro.serve.server import ServeSettings, SimServer
from repro.trace.benchmarks import default_suite


def specs(n=3):
    config = base_architecture()
    return [PointSpec(label=f"p{i}", config=config,
                      profiles=tuple(default_suite(3000 + 200 * i)[:1]),
                      time_slice=2000)
            for i in range(n)]


def serial(point_specs):
    return [s.to_dict() for s in run_points(point_specs)]


def start_server(tmp_path, name):
    instance = SimServer(ServeSettings(
        port=0, queue_depth=8, workers=2,
        default_deadline_s=30.0, drain_grace_s=2.0))
    instance.start()
    return instance


@pytest.fixture
def servers(tmp_path):
    pool = [start_server(tmp_path, f"s{i}") for i in range(3)]
    yield pool
    for instance in pool:
        if instance._httpd is not None:
            try:
                instance.drain(grace_s=2.0)
            except Exception:
                pass


def urls(pool):
    return [f"http://127.0.0.1:{s.port}" for s in pool]


def settings(**overrides):
    overrides.setdefault("probe_interval_s", 60.0)
    overrides.setdefault("probe_timeout_s", 2.0)
    overrides.setdefault("request_timeout_s", 10.0)
    overrides.setdefault("attempt_budget_s", 10.0)
    overrides.setdefault("quarantine_after", 1)
    return GridSettings(**overrides)


class TestHealthyPool:
    def test_sweep_is_bit_identical_to_serial(self, servers):
        wanted = specs(3)
        truth = serial(wanted)
        with GridDispatcher(urls(servers), settings=settings()) as grid:
            got = grid.run_points(wanted)
        assert [s.to_dict() for s in got] == truth
        assert grid._m_points.value_of("remote") == 3
        assert grid._m_points.value_of("local") == 0

    def test_trace_stitches_across_the_wire(self, servers):
        wanted = specs(1)
        trace = obs.Trace()
        with obs.activate_trace(trace):
            with GridDispatcher(urls(servers),
                                settings=settings()) as grid:
                grid.run_points(wanted)
        spans = trace.to_dict()["spans"]
        names = {record.get("name") for record in spans}
        assert "grid_dispatch" in names
        # The backend's own spans came back over the wire and joined the
        # caller's trace (same trace ID, server-side span names present).
        assert any(record.get("name") not in {"grid_dispatch"}
                   for record in spans)


class TestDegradedPool:
    def test_sweep_survives_one_killed_one_draining_backend(self, servers):
        wanted = specs(4)
        truth = serial(wanted)
        # The registry tries idle nodes in URL order, and its background
        # probe first runs after a minute: the node whose URL sorts first
        # is the one killed, so the first attempt goes to it.
        servers = sorted(servers, key=lambda s: normalize_node_url(
            urls([s])[0]))
        pool_urls = urls(servers)
        # SIGKILL stand-in: the listening socket dies abruptly, no drain.
        servers[0]._httpd.shutdown()
        servers[0]._httpd.server_close()
        servers[0]._httpd = None
        # Degraded stand-in: still listening, but sheds every request.
        servers[1]._draining = True
        with GridDispatcher(pool_urls,
                            settings=settings(max_remote_attempts=6)
                            ) as grid:
            got = grid.run_points(wanted)
        assert len(got) == 4 and all(s is not None for s in got)
        assert [s.to_dict() for s in got] == truth
        # Zero lost: every point resolved remotely (the healthy node) or
        # locally (fallback) — and the dead node took real failures.
        resolved = (grid._m_points.value_of("remote")
                    + grid._m_points.value_of("local"))
        assert resolved == 4
        snapshot = {n["url"]: n for n in grid.registry.snapshot()}
        assert snapshot[pool_urls[0]]["failures_total"] >= 1

    def test_dead_pool_degrades_to_local(self, servers):
        wanted = specs(2)
        truth = serial(wanted)
        pool_urls = urls(servers)
        for instance in servers:
            instance._httpd.shutdown()
            instance._httpd.server_close()
            instance._httpd = None
        with GridDispatcher(pool_urls,
                            settings=settings(max_remote_attempts=3)
                            ) as grid:
            got = grid.run_points(wanted)
        assert [s.to_dict() for s in got] == truth
        assert grid._m_points.value_of("local") == 2


def test_nodes_run_manifest_records_the_grid(servers, tmp_path, capsys):
    """A ``--nodes`` run counts on its telemetry's registry, so its
    manifest carries the dispatcher's and the node probes' counters."""
    from repro.experiments.runner import main

    manifest = tmp_path / "run.json"
    assert main(["fig2", "--instructions", "2000", "--level", "2",
                 "--time-slice", "2000", "--nodes", ",".join(urls(servers)),
                 "--no-cache", "--manifest", str(manifest)]) == 0
    capsys.readouterr()
    doc = json.loads(manifest.read_text())
    for family in ("grid_dispatch_total", "grid_points_total",
                   "grid_probes_total", "grid_quarantines_total",
                   "grid_readmissions_total", "farm_points_total"):
        assert family in doc["obs"], family
    summary = doc["summary"]
    assert summary["points"] > 0
    assert sum(doc["obs"]["grid_points_total"]["values"].values()) == \
        summary["points"] - summary["cache_hits"]
    assert sum(doc["obs"]["grid_dispatch_total"]["values"].values()) >= \
        summary["points"]
