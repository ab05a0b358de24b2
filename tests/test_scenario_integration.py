"""scenario_sha256 threads through cache keys, journal, grid, and serve.

The hash is the cross-layer identity the ISSUE introduces; these tests
pin each consumer so a layer can't silently drop it.
"""

import json

import pytest

from repro.core.config import base_architecture
from repro.farm.cache import CACHE_SCHEMA_VERSION, ResultCache, point_payload
from repro.farm.context import current_context, farm_session, scenario_scope
from repro.farm.points import PointSpec, run_points
from repro.trace.benchmarks import default_suite

SHA = "a" * 64
OTHER = "b" * 64


def spec(scenario=None, label="p0"):
    return PointSpec(label=label, config=base_architecture(),
                     profiles=tuple(default_suite(1000)[:1]),
                     time_slice=1000, level=1, warmup_instructions=0,
                     scenario=scenario)


class TestCacheKey:
    def test_scenario_in_payload_and_key(self):
        payload = point_payload(base_architecture(),
                                tuple(default_suite(1000)[:1]),
                                time_slice=1000, level=1,
                                warmup_instructions=0,
                                max_instructions=None, scenario=SHA)
        assert payload["scenario"] == SHA
        assert payload["schema"] == CACHE_SCHEMA_VERSION
        assert spec().key() != spec(SHA).key()
        assert spec(SHA).key() != spec(OTHER).key()
        assert spec(SHA).key() == spec(SHA).key()

    def test_scope_binds_ambient_scenario(self):
        assert current_context() is None  # no ambient session in tests
        with scenario_scope(SHA):
            assert current_context().scenario == SHA
            with scenario_scope(SHA):  # nested same-sha scope is harmless
                assert current_context().scenario == SHA
        assert current_context() is None

    def test_farm_session_carries_scenario(self):
        with farm_session(jobs=1, scenario=SHA):
            assert current_context().scenario == SHA


class TestServeProtocol:
    def _raw(self, scenario=None, mutate=None):
        from repro.grid.dispatcher import wire_body

        body = wire_body(spec(scenario))
        if mutate:
            mutate(body)
        return json.dumps(body).encode("utf-8")

    def test_scenario_accepted_and_threaded(self):
        from repro.serve.protocol import parse_simulate_request

        parsed, _, _ = parse_simulate_request(self._raw(SHA))
        assert parsed.scenario == SHA

    def test_scenario_optional(self):
        from repro.serve.protocol import parse_simulate_request

        parsed, _, _ = parse_simulate_request(self._raw())
        assert parsed.scenario is None

    def test_bad_scenario_rejected(self):
        from repro.errors import ServeError
        from repro.serve.protocol import parse_simulate_request

        for bad in ("deadbeef", "A" * 64, 12, "g" * 64):
            def put(body, bad=bad):
                body["scenario"] = bad

            with pytest.raises(ServeError, match="scenario"):
                parse_simulate_request(self._raw(mutate=put))

    def test_wire_body_round_trip_preserves_key(self):
        from repro.serve.protocol import parse_simulate_request

        for s in (None, SHA):
            parsed, _, _ = parse_simulate_request(self._raw(s))
            assert parsed.key() == spec(s).key()


class TestJournalMeta:
    def test_run_open_records_scenario(self, tmp_path):
        from repro.durable.journal import read_records

        specs = [spec(SHA, label=f"p{i}") for i in range(1)]
        run_points(specs, cache=ResultCache(tmp_path / "cache"),
                   journal=tmp_path / "journal")
        wals = sorted((tmp_path / "journal").glob("*.wal"))
        assert len(wals) == 1
        records, torn = read_records(wals[0])
        assert torn == 0
        opens = [r for r in records if r.get("rec") == "run_open"]
        assert opens, "no run_open record written"
        assert opens[0]["meta"]["scenario_sha256"] == SHA


class TestEndToEnd:
    def test_legacy_and_scenario_share_cache_keys(self, tmp_path,
                                                  monkeypatch, capsys):
        """The acceptance condition: both invocation paths hit one cache.

        A private scenario dir declares fig2 at tiny scale; the legacy
        CLI (same flags) and the scenario runner must produce identical
        reports AND the second run must be all cache hits — proof the
        scenario_sha256 and every other key component agree.
        """
        from repro.experiments.runner import main
        from repro.scenario.driver import _DEFAULT_CACHE

        sdir = tmp_path / "scenarios"
        sdir.mkdir()
        (sdir / "fig2.toml").write_text("""
[scenario]
name = "fig2"
experiment = "fig2"
[workload]
instructions_per_benchmark = 2000
level = 2
time_slice = 2000
warmup_fraction = 0.4
[sweep.axes]
levels = [1, 2]
""")
        monkeypatch.setenv("REPRO_SCENARIO_DIR", str(sdir))
        _DEFAULT_CACHE.clear()
        cache = tmp_path / "cache"
        assert main(["fig2", "--instructions", "2000", "--level", "2",
                     "--time-slice", "2000",
                     "--out", str(tmp_path / "legacy"),
                     "--cache-dir", str(cache)]) == 0
        capsys.readouterr()
        manifest = tmp_path / "manifest.json"
        assert main(["run", str(sdir / "fig2.toml"),
                     "--out", str(tmp_path / "scenario"),
                     "--cache-dir", str(cache),
                     "--manifest", str(manifest)]) == 0
        capsys.readouterr()
        legacy = (tmp_path / "legacy" / "fig2.txt").read_text()
        scenario = (tmp_path / "scenario" / "fig2.txt").read_text()
        assert scenario == legacy
        summary = json.loads(manifest.read_text())["summary"]
        assert summary["points"] > 0
        assert summary["cache_hits"] == summary["points"]
        _DEFAULT_CACHE.clear()
