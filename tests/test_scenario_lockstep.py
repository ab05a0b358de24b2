"""Every spelling of an experiment runs its committed scenario.

An experiment id names ``scenarios/<id>.toml``, and
:func:`~repro.experiments.run_experiment` is that document with a
``[workload]`` overlay for its scale.  So every registered experiment,
asked for at tiny scale through ``run_experiment`` and through the
document resolved with the same workload as an overlay file, must render
byte-identical reports under one cache namespace.
"""

import dataclasses

import pytest

import repro.experiments.runner  # noqa: F401  (fills REGISTRY)
import repro.scenario
from repro.experiments import REGISTRY, ExperimentScale, run_experiment
from repro.farm.context import farm_session
from repro.farm.telemetry import RunTelemetry
from repro.scenario import resolve_scenario
from repro.scenario.driver import builtin_scenario_path, run_scenario

TINY = ExperimentScale(instructions_per_benchmark=8_000, level=2,
                       time_slice=4_000, warmup_fraction=0.25)

TINY_TOML = "[workload]\n" + "".join(
    f"{key} = {value}\n" for key, value in dataclasses.asdict(TINY).items())

ALL_IDS = sorted(REGISTRY)


def test_every_experiment_has_a_committed_scenario():
    assert len(ALL_IDS) == 21
    for experiment_id in ALL_IDS:
        path = builtin_scenario_path(experiment_id)
        assert path.exists(), f"missing committed scenario {path}"


@pytest.mark.parametrize("experiment_id", ALL_IDS)
def test_scenario_run_matches_legacy(experiment_id, tmp_path):
    """The scale-argument spelling and the overlay file share one
    identity: the second run's points are all cache hits."""
    overlay = tmp_path / "tiny.toml"
    overlay.write_text(TINY_TOML)
    resolved = resolve_scenario(builtin_scenario_path(experiment_id),
                                [overlay])
    assert resolved.name == experiment_id
    assert resolved.experiment == experiment_id
    telemetry = RunTelemetry(stream=None)
    with farm_session(cache_dir=tmp_path / "cache", telemetry=telemetry):
        legacy = run_experiment(experiment_id, TINY)
        first = telemetry.summary()
        scenario = run_scenario(resolved)
    assert scenario.render() == legacy.render()
    summary = telemetry.summary()
    assert summary["points"] == 2 * first["points"]
    assert summary["cache_hits"] - first["cache_hits"] == first["points"]


def test_axes_come_from_the_committed_documents():
    """Spot-check that the committed grids match the paper's figures."""
    fig5 = resolve_scenario(builtin_scenario_path("fig5"))
    assert fig5.axes["policies"] == ("write-back", "write-miss-invalidate",
                                     "write-only", "subblock")
    assert fig5.axes["access_times"] == (2, 4, 6, 8, 10)
    fig6 = resolve_scenario(builtin_scenario_path("fig6"))
    assert [org["label"] for org in fig6.axes["organizations"]] == \
        ["unified 1-way", "unified 2-way", "split 1-way", "split 2-way"]
    fig2 = resolve_scenario(builtin_scenario_path("fig2"))
    assert fig2.axes["levels"] == (1, 2, 4, 8, 16)


def test_overlay_changes_grid_without_code_changes(tmp_path):
    """The point of the refactor: reshape a figure from a TOML overlay."""
    overlay = tmp_path / "narrow.toml"
    overlay.write_text(TINY_TOML + """
[sweep.axes]
levels = [1, 4]
""")
    resolved = resolve_scenario(builtin_scenario_path("fig2"), [overlay])
    result = run_scenario(resolved)
    assert [row[0] for row in result.rows] == [1, 4]


def test_shared_sha_between_paths(monkeypatch):
    """At the default scale ``run_experiment`` runs the committed document
    itself, so its points keep the keys of ``repro-experiments fig2``."""
    seen = []
    monkeypatch.setattr(repro.scenario, "run_scenario", seen.append)
    run_experiment("fig2")
    [resolved] = seen
    assert resolved.scenario_sha256 == \
        resolve_scenario(builtin_scenario_path("fig2")).scenario_sha256
