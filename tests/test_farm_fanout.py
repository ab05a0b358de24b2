"""The runner's point-level fan-out (``repro.farm.context.render_all``).

Every requested experiment is rendered under an answer table that lists
its points, the points run in one ``run_points`` call, and the
experiments render again from the results.
"""

import json
import os
import signal
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from repro.analysis.sweep import run_point
from repro.core.config import base_architecture
from repro.durable.journal import read_records, replay_records
from repro.experiments import REGISTRY, ExperimentScale, run_experiment
from repro.experiments.runner import main as experiments_main
from repro.farm.context import farm_session, render_all
from repro.farm.pool import fork_available
from repro.farm.telemetry import RunTelemetry
from repro.trace.benchmarks import default_suite

REPO = Path(__file__).resolve().parents[1]

RUN_FLAGS = ["--instructions", "2000", "--level", "2",
             "--time-slice", "2000"]

TINY = ExperimentScale(instructions_per_benchmark=8_000, level=2,
                       time_slice=4_000, warmup_fraction=0.25)

#: Experiments that simulate no sweep point: their first render is real.
NO_POINTS = {"coloring", "l1size", "perbench", "table1", "tech"}


def test_journaled_fig5_keeps_one_journal(tmp_path, capsys):
    journal = tmp_path / "journal"
    assert experiments_main(
        ["fig5", *RUN_FLAGS, "--cache-dir", str(tmp_path / "cache"),
         "--journal", str(journal)]) == 0
    capsys.readouterr()
    wals = list(journal.glob("*.wal"))
    assert len(wals) == 1
    assert replay_records(read_records(wals[0])[0]).sealed


def test_dependent_points_get_real_stats_through_a_third_pass():
    config = base_architecture()
    profiles = default_suite(instructions_per_benchmark=3_000)[:2]

    def pair():
        first = run_point(config, profiles, time_slice=2_000, level=2)
        # The second point is only known once the first one has run.
        second = run_point(config, profiles, level=2,
                           time_slice=1_000 + first.instructions // 4)
        return first, second

    seen = []

    def render():
        first, second = pair()
        seen.append(first.instructions)
        return first, second

    telemetry = RunTelemetry(stream=None)
    with farm_session(no_cache=True, telemetry=telemetry):
        [(first, second)] = render_all([render])
    expected = pair()   # no session: plain in-process simulations
    assert seen[0] == 0 and len(seen) == 3
    assert first.to_dict() == expected[0].to_dict()
    assert second.to_dict() == expected[1].to_dict()
    # The first point, the second under a zero answer, the real second.
    assert telemetry.summary()["points"] == 3


def test_every_experiment_renders_at_most_twice():
    calls = Counter()

    def counted(experiment_id):
        def render():
            calls[experiment_id] += 1
            return run_experiment(experiment_id, TINY)
        return render

    with farm_session(no_cache=True, quiet=True):
        results = render_all([counted(e) for e in sorted(REGISTRY)])
    assert [r.experiment_id for r in results] == sorted(REGISTRY)
    assert set(calls.values()) == {1, 2}
    assert {e for e, n in calls.items() if n == 1} == NO_POINTS


@pytest.mark.skipif(not fork_available(), reason="platform cannot fork")
def test_sigterm_in_point_pass_exits_130_then_resumes(tmp_path):
    flags = ["fig5", "fig6", "--instructions", "30000", "--level", "2",
             "--time-slice", "10000"]
    command = [sys.executable, "-m", "repro.experiments", *flags,
               "--jobs", "2", "--cache-dir", str(tmp_path / "cache"),
               "--out", str(tmp_path / "out")]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(REPO / "src"), env.get("PYTHONPATH")]))
    cut = subprocess.Popen(
        command + ["--manifest", str(tmp_path / "cut.json")],
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
        env=env)
    try:
        for line in cut.stderr:
            if "] point 1:" in line:
                break
        cut.send_signal(signal.SIGTERM)
        cut.communicate(timeout=60)
    finally:
        if cut.poll() is None:
            cut.kill()
            cut.communicate()
    assert cut.returncode == 130
    assert not list((tmp_path / "out").glob("*.txt"))
    done = json.loads((tmp_path / "cut.json").read_text())["summary"]

    resumed = subprocess.run(
        command + ["--manifest", str(tmp_path / "resumed.json")],
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, env=env,
        timeout=120)
    assert resumed.returncode == 0
    again = json.loads((tmp_path / "resumed.json").read_text())["summary"]
    assert 0 < done["points"] < again["points"]
    # Every point the cut run finished was cached, and only those.
    assert again["cache_hits"] == done["points"]

    assert experiments_main(
        [*flags, "--jobs", "1", "--no-cache",
         "--out", str(tmp_path / "serial")]) == 0
    for experiment_id in ("fig5", "fig6"):
        assert (tmp_path / "out" / f"{experiment_id}.txt").read_bytes() \
            == (tmp_path / "serial" / f"{experiment_id}.txt").read_bytes()
