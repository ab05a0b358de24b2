"""CLI integration: ``repro-farm`` and the farm-aware experiments runner."""

import json
import os

import pytest

from repro.core.stats import SimStats
from repro.experiments.runner import main as experiments_main
from repro.farm.cache import ResultCache
from repro.farm.cli import main as farm_main
from repro.farm.pool import fork_available

RUN_FLAGS = ["--instructions", "2000", "--level", "2",
             "--time-slice", "2000"]


def filled_cache(tmp_path, n=2):
    cache = ResultCache(tmp_path)
    for i in range(n):
        stats = SimStats()
        stats.instructions = 100 * (i + 1)
        cache.put("k" * 63 + str(i), stats, meta={"label": f"p{i}"})
    return cache


class TestFarmStats:
    def test_stats_human(self, tmp_path, capsys):
        filled_cache(tmp_path)
        assert farm_main(["--cache-dir", str(tmp_path), "stats"]) == 0
        out = capsys.readouterr().out
        assert "entries    : 2" in out
        assert str(tmp_path) in out

    def test_stats_json(self, tmp_path, capsys):
        filled_cache(tmp_path)
        assert farm_main(["--cache-dir", str(tmp_path), "stats",
                          "--json", "--entries"]) == 0
        info = json.loads(capsys.readouterr().out)
        assert info["entries"] == 2
        assert {m["label"] for m in info["entry_meta"]} == {"p0", "p1"}

    def test_stats_empty_cache(self, tmp_path, capsys):
        assert farm_main(["--cache-dir", str(tmp_path / "none"),
                          "stats"]) == 0
        assert "entries    : 0" in capsys.readouterr().out


class TestFarmGcClear:
    def test_gc_requires_a_policy(self, tmp_path, capsys):
        assert farm_main(["--cache-dir", str(tmp_path), "gc"]) == 2
        assert "--max-age-days" in capsys.readouterr().err

    def test_gc_keep(self, tmp_path, capsys):
        filled_cache(tmp_path)
        assert farm_main(["--cache-dir", str(tmp_path), "gc",
                          "--keep", "1"]) == 0
        assert "removed 1 entry" in capsys.readouterr().out

    def test_clear(self, tmp_path, capsys):
        filled_cache(tmp_path)
        assert farm_main(["--cache-dir", str(tmp_path), "clear"]) == 0
        assert "removed 2 entries" in capsys.readouterr().out
        assert ResultCache(tmp_path).stats()["entries"] == 0

    def test_env_var_selects_root(self, tmp_path, capsys, monkeypatch):
        filled_cache(tmp_path)
        monkeypatch.setenv("REPRO_FARM_CACHE", str(tmp_path))
        assert farm_main(["stats"]) == 0
        assert "entries    : 2" in capsys.readouterr().out


class TestRunnerList:
    def test_list_shows_descriptions(self, capsys):
        assert experiments_main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "fig5" in out and "—" in out
        assert "write policy vs. L2 access time" in out


class TestRunnerCaching:
    def test_warm_rerun_hits_every_point(self, tmp_path, capsys):
        cache_dir = tmp_path / "cache"
        args = ["fig4", *RUN_FLAGS, "--cache-dir", str(cache_dir)]
        assert experiments_main(
            args + ["--manifest", str(tmp_path / "cold.json")]) == 0
        cold_out = capsys.readouterr().out
        assert experiments_main(
            args + ["--manifest", str(tmp_path / "warm.json")]) == 0
        capsys.readouterr()
        cold = json.loads((tmp_path / "cold.json").read_text())
        warm = json.loads((tmp_path / "warm.json").read_text())
        assert cold["summary"]["cache_hits"] == 0
        assert warm["summary"]["points"] > 0
        assert warm["summary"]["cache_hits"] == warm["summary"]["points"]
        assert warm["summary"]["cache_hit_rate"] == 1.0
        assert "fig4" in cold_out

    def test_no_cache_disables_storage(self, tmp_path, capsys):
        cache_dir = tmp_path / "cache"
        assert experiments_main(
            ["table1", *RUN_FLAGS, "--cache-dir", str(cache_dir),
             "--no-cache"]) == 0
        capsys.readouterr()
        assert not cache_dir.exists()

    def test_reports_identical_cold_and_warm(self, tmp_path, capsys):
        cache_dir = tmp_path / "cache"
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        base = ["fig4", *RUN_FLAGS, "--cache-dir", str(cache_dir)]
        assert experiments_main(base + ["--out", str(out_a)]) == 0
        assert experiments_main(base + ["--out", str(out_b)]) == 0
        capsys.readouterr()
        assert (out_a / "fig4.txt").read_bytes() \
            == (out_b / "fig4.txt").read_bytes()


@pytest.mark.skipif(not fork_available(), reason="platform cannot fork")
class TestRunnerParallel:
    def test_jobs_2_reports_match_serial(self, tmp_path, capsys):
        out_serial, out_par = tmp_path / "serial", tmp_path / "par"
        ids = ["fig4", "table1"]
        assert experiments_main(
            [*ids, *RUN_FLAGS, "--no-cache", "--out", str(out_serial),
             "--jobs", "1"]) == 0
        assert experiments_main(
            [*ids, *RUN_FLAGS, "--no-cache", "--out", str(out_par),
             "--jobs", "2"]) == 0
        capsys.readouterr()
        for experiment_id in ids:
            assert (out_serial / f"{experiment_id}.txt").read_bytes() \
                == (out_par / f"{experiment_id}.txt").read_bytes()

    def test_parallel_workers_fill_the_shared_cache(self, tmp_path, capsys):
        cache_dir = tmp_path / "cache"
        assert experiments_main(
            ["fig4", "table1", *RUN_FLAGS, "--cache-dir", str(cache_dir),
             "--jobs", "2", "--manifest", str(tmp_path / "m.json")]) == 0
        capsys.readouterr()
        manifest = json.loads((tmp_path / "m.json").read_text())
        assert manifest["summary"]["points"] > 0
        assert ResultCache(cache_dir).stats()["entries"] > 0

    def test_workers_counters_reach_the_manifest_registry(self, tmp_path,
                                                          capsys):
        assert experiments_main(
            ["fig5", "fig6", *RUN_FLAGS, "--no-cache", "--jobs", "2",
             "--manifest", str(tmp_path / "m.json")]) == 0
        capsys.readouterr()
        manifest = json.loads((tmp_path / "m.json").read_text())
        summary, obs = manifest["summary"], manifest["obs"]
        assert summary["points"] > 0
        assert obs["farm_points_total"]["values"] == {
            '["simulated"]': summary["points"]}
        assert sum(obs["farm_instructions_total"]["values"].values()) \
            == summary["instructions"]

    def test_invalid_jobs_rejected(self, capsys):
        assert experiments_main(["fig4", "--jobs", "0"]) == 2
        assert "--jobs" in capsys.readouterr().err


class TestResumeStaleReports:
    def test_zero_byte_report_is_rerun(self, tmp_path, capsys):
        out = tmp_path / "out"
        out.mkdir()
        # A stale partial write from a pre-atomic-write version.
        (out / "table1.txt").write_text("")
        (out / "fig4.txt").write_text("real content, skip me")
        code = experiments_main(
            ["table1", "fig4", *RUN_FLAGS, "--no-cache",
             "--out", str(out), "--resume"])
        assert code == 0
        printed = capsys.readouterr().out
        assert "re-running" in printed
        assert "[fig4 already done, skipping]" in printed
        assert (out / "table1.txt").stat().st_size > 0
        assert (out / "fig4.txt").read_text() == "real content, skip me"
