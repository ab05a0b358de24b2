"""Self-tests of the benchmark (smoke scale; under a minute).

    PYTHONPATH=src python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import gate  # noqa: E402
import hostclock  # noqa: E402
import worker  # noqa: E402
from layers import PER_LAYER_UNITS  # noqa: E402
from run import END_TO_END_UNITS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SMOKE = "perfbench/overlays/smoke.toml"


def run_bench(workload: str, seed: int = 0, trace: int = 0, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds", "0.1",
         "--trace", str(trace), "--overlay", SMOKE],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.fixture(scope="module")
def outputs():
    """``{(workload, trace): (result JSON, stdout)}`` at smoke scale."""
    out = {}
    for name in WORKLOADS:
        for trace in (0, 1):
            proc = run_bench(name, trace=trace)
            assert proc.returncode == 0, proc.stderr[-3000:]
            out[name, trace] = (json.loads(proc.stdout.splitlines()[-1]),
                                proc.stdout)
    return out


def test_benchmark_json_matches_emitted_names():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} \
        == END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} \
        == PER_LAYER_UNITS


@pytest.mark.parametrize("name", list(WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_emits_every_metric_with_unit(outputs, name, trace):
    result, _ = outputs[name, trace]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    units = PER_LAYER_UNITS if trace else END_TO_END_UNITS
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    assert all(isinstance(v["value"], (int, float))
               for v in result["metrics"].values())
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_layers_run_where_the_workload_puts_them(outputs):
    def metric(name, trace_metric):
        return outputs[name, 1][0]["metrics"][trace_metric]["value"]

    assert metric("short_slice", "energy.account_calls") > 0
    assert metric("paper_l8", "energy.account_calls") == 0
    assert metric("fig5_nodes", "serve.requests") == 4
    assert metric("fig5_nodes", "grid.attempts_per_point") >= 1
    assert metric("fig5_sweep", "serve.requests") == 0
    assert metric("fig5_sweep", "farm.points") == 4
    assert metric("paper_l8", "engine.calls") > 0


def _inputs(stdout: str) -> str:
    return re.search(r"inputs ([0-9a-f]+)", stdout).group(1)


def test_seed_changes_input_digests_not_metric_names(outputs):
    proc = run_bench("paper_l8", seed=1)
    assert proc.returncode == 0, proc.stderr[-3000:]
    result = json.loads(proc.stdout.splitlines()[-1])
    base, base_out = outputs["paper_l8", 0]
    assert _inputs(proc.stdout) != _inputs(base_out)
    assert set(result["metrics"]) == set(base["metrics"])


def test_perturbed_counter_through_a_wrapped_layer_fails_the_gate(
        tmp_path, monkeypatch):
    from repro.core.hierarchy import MemorySystem

    clean = worker.sample("paper_l8", 0, tmp_path / "clean",
                          overlays=[SMOKE])
    recorded = {i: {"stats": d}
                for i, d in zip(clean["inputs"], clean["digests"])}
    assert gate.gate([clean], recorded)[1:3] == (0, "passed")

    run_slice = MemorySystem.run_slice

    def perturbed(self, *args, **kwargs):
        result = run_slice(self, *args, **kwargs)
        self.stats.l2d_misses += 1
        return result

    monkeypatch.setattr(MemorySystem, "run_slice", perturbed)
    bad = worker.sample("paper_l8", 0, tmp_path / "bad", overlays=[SMOKE])
    attempted, failed, status, reasons = gate.gate([bad], recorded)
    assert (attempted, failed) == (1, 1)
    assert status.startswith("failed") and "recorded" in reasons[0]
    # Without a record, the run-internal checks still see the odd sample.
    assert gate.gate([clean, bad, clean], {})[1] == 1


def test_unrecorded_inputs_are_skipped_not_passed(tmp_path):
    result = worker.sample("paper_l8", 0, tmp_path, overlays=[SMOKE])
    assert gate.gate([result], {})[2].startswith("skipped")
    crashed = {"ok": False, "error": "boom"}
    assert gate.gate([result, crashed], {})[:2] == (2, 1)
    setup = worker.sample("paper_l8", 0, tmp_path / "setup",
                          overlays=[SMOKE], setup_only=True)
    assert set(setup) >= {"setup_wall_s", "setup_ref_s"}
    assert "digests" not in setup
    setup["setup_only"] = True
    attempted, failed, status, _ = gate.gate([result, setup], {})
    assert (attempted, failed) == (2, 0) and status.startswith("skipped")
    crashed["setup_only"] = True
    assert gate.gate([result, setup, crashed], {})[:2] == (3, 1)


def test_traced_self_times_are_nonnegative_and_within_the_op(tmp_path):
    result = worker.sample("fig5_sweep", 0, tmp_path, overlays=[SMOKE],
                           traced=True)
    layers = result["layers"]
    times = {k: v for k, v in layers.items()
             if PER_LAYER_UNITS[k] == "s" and k != "scenario.resolve_s"}
    assert all(v >= 0 for v in times.values())
    inside = sum(v for k, v in result["self_s"].items() if k != "op")
    assert inside <= result["op_wall_s"] + 1e-9
    assert sum(times.values()) <= result["op_wall_s"] + 1e-9
    assert layers["engine.calls"] > 0 and layers["miss.store_calls"] > 0
    spans = (tmp_path / "spans.jsonl").read_text().splitlines()
    assert json.loads(spans[1])["name"] == "op"


def test_probe_rescales_wall_time_by_host_speed():
    probe = hostclock.Probe()
    # Five 10-ms bursts: the host runs at half the reference speed for
    # the first three, then at the reference speed.
    ref = hostclock.REFERENCE_BURST_S
    probe.starts = [1.0, 2.0, 3.0, 4.0, 5.0]
    probe.walls = [0.01] * 5
    probe.cpus = [2 * ref] * 3 + [ref] * 2
    wall, reference = probe.rescale(0.5, 3.5)
    assert wall == pytest.approx(3.0 - 0.03)
    assert reference == pytest.approx(wall / 2)
    # Each stretch takes the median speed of the bursts nearest its end.
    assert probe.rescale(3.5, 4.5) == pytest.approx((0.99, 0.99 / 1.5))
    assert probe.rescale(4.5, 5.5) == pytest.approx((0.99, 0.99))

    probe = hostclock.Probe()
    probe.start()
    try:
        begin = time.monotonic()
        while time.monotonic() - begin < 0.2:
            hostclock.burst()
        end = time.monotonic()
    finally:
        probe.stop()
    assert len(probe.cpus) >= 3
    wall, reference = probe.rescale(begin, end)
    assert 0 < wall < end - begin and reference > 0


def test_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = run_bench("paper_l8", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
