"""scenario_sha256 threads through cache keys, journal, grid, and serve.

The hash is a run's cross-layer identity; these tests pin each consumer
so a layer can't silently drop it.
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
    def test_legacy_and_scenario_share_cache_keys(self, tmp_path, capsys):
        """Three spellings of one workload are one identity.

        Committed fig2 at tiny scale, asked for as an id with scale flags,
        as the file with the same workload in an overlay, and as the file
        with the flags: identical reports, the later runs all cache hits,
        and the journal records the hash ``validate`` prints.
        """
        from repro.durable.journal import read_records
        from repro.experiments.runner import main

        flags = ["--instructions", "2000", "--level", "2",
                 "--time-slice", "2000"]
        overlay = tmp_path / "tiny.toml"
        overlay.write_text("[workload]\ninstructions_per_benchmark = 2000\n"
                           "level = 2\ntime_slice = 2000\n")
        cache = ["--cache-dir", str(tmp_path / "cache")]
        spellings = {
            "id": ["fig2", *flags, "--journal", str(tmp_path / "journal")],
            "overlay": ["run", "scenarios/fig2.toml",
                        "--overlay", str(overlay)],
            "path": ["scenarios/fig2.toml", *flags],
        }
        reports = {}
        for name, argv in spellings.items():
            out = tmp_path / name
            manifest = tmp_path / f"{name}.json"
            assert main([*argv, *cache, "--out", str(out),
                         "--manifest", str(manifest)]) == 0
            reports[name] = (out / "fig2.txt").read_text()
            summary = json.loads(manifest.read_text())["summary"]
            assert summary["points"] > 0
            hits = 0 if name == "id" else summary["points"]
            assert summary["cache_hits"] == hits, name
        assert reports["overlay"] == reports["id"] == reports["path"]

        capsys.readouterr()
        assert main(["validate", "scenarios/fig2.toml",
                     "--overlay", str(overlay)]) == 0
        [sha] = [line.split(": ", 1)[1]
                 for line in capsys.readouterr().out.splitlines()
                 if line.startswith("scenario_sha256: ")]
        [wal] = (tmp_path / "journal").glob("*.wal")
        records, _ = read_records(wal)
        [opened] = [r for r in records if r.get("rec") == "run_open"]
        assert opened["meta"]["scenario_sha256"] == sha
