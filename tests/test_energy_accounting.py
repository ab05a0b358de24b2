"""Integration tests for the energy subsystem across the stack.

Covers the hard constraint (energy-disabled runs are bit-identical to
pre-energy behaviour and cost nothing), the full-run accounting paths in
both engines, checkpoint round-trips, the obs sampler/summarize/diff
surfaces, serve-protocol validation and rendering, content-address keys,
the grid wire body, and the pareto experiment's frontier property.
"""

import dataclasses
import json

import pytest

from repro.core.config import base_architecture
from repro.core.simulator import (
    ENERGY_STATE_VERSION,
    STATE_VERSION,
    Simulation,
)
from repro.core.stats import SimStats
from repro.energy import ENERGY_CLASSES, derive_energy_model
from repro.errors import ServeError
from repro.trace.benchmarks import default_suite

INSTRUCTIONS = 8_000


@pytest.fixture(scope="module")
def suite():
    return default_suite(instructions_per_benchmark=INSTRUCTIONS)


def run(suite, energy=None, engine="reference", **kwargs):
    sim = Simulation(config=base_architecture(), profiles=suite[:2],
                     time_slice=2_000, engine=engine, energy=energy,
                     **kwargs)
    return sim.run()


class TestDisabledIsFree:
    """The hard constraint: no model, no difference."""

    @pytest.mark.parametrize("engine", ("reference", "batched"))
    def test_disabled_energy_fields_stay_zero(self, suite, engine):
        stats = run(suite, energy=None, engine=engine)
        assert stats.energy_total_fj == 0
        assert stats.epi_pj == 0.0
        for cls in ENERGY_CLASSES:
            assert getattr(stats, f"energy_{cls}_fj") == 0

    @pytest.mark.parametrize("engine", ("reference", "batched"))
    def test_enabled_changes_only_energy_fields(self, suite, engine):
        disabled = dataclasses.asdict(run(suite, energy=None, engine=engine))
        enabled = dataclasses.asdict(run(suite, energy="paper",
                                         engine=engine))
        energy_fields = {f"energy_{cls}_fj" for cls in ENERGY_CLASSES}
        for name, value in disabled.items():
            if name in energy_fields:
                assert enabled[name] > 0, name
            else:
                assert enabled[name] == value, name

    def test_memsys_energy_attribute_is_none_when_disabled(self, suite):
        sim = Simulation(config=base_architecture(), profiles=suite[:1])
        assert sim.memsys.energy is None


class TestCheckpointRoundTrip:
    def test_state_version_gated_on_energy(self, suite):
        plain = Simulation(config=base_architecture(), profiles=suite[:1])
        assert plain.state_dict()["version"] == STATE_VERSION
        assert "energy" not in plain.state_dict()["simulation"]
        energetic = Simulation(config=base_architecture(),
                               profiles=suite[:1], energy="paper")
        state = energetic.state_dict()
        assert state["version"] == ENERGY_STATE_VERSION
        assert state["simulation"]["energy"] == "paper"

    def test_resume_continues_accounting(self, suite, tmp_path):
        from repro.robust.checkpoint import resume, save_checkpoint

        whole = run(suite, energy="paper")

        sim = Simulation(config=base_architecture(), profiles=suite[:2],
                         time_slice=2_000, energy="paper")
        sim.run(max_instructions=INSTRUCTIONS)
        path = tmp_path / "energy.ckpt"
        save_checkpoint(sim, path)
        resumed = resume(path)
        assert resumed.energy == "paper"
        finished = resumed.run()
        assert dataclasses.asdict(finished) == dataclasses.asdict(whole)


class TestObsSurfaces:
    def _traced_run(self, suite, tmp_path, name, energy):
        import repro.obs as obs

        log = tmp_path / f"{name}.jsonl"
        obs.enable(log, sample_interval=2_000)
        try:
            run(suite, energy=energy)
        finally:
            obs.disable()
        return log, obs.read_events(log)

    def test_energy_record_and_sample_epi(self, suite, tmp_path):
        log, events = self._traced_run(suite, tmp_path, "on", "paper")
        energy_records = [e for e in events if e["ev"] == "energy"]
        assert len(energy_records) == 1
        record = energy_records[0]
        assert record["technology"] == "paper"
        assert record["epi_pj"] > 0
        assert all(cls in record for cls in ENERGY_CLASSES)
        samples = [e for e in events if e["ev"] == "sample"]
        assert samples and all("epi_pj" in s and "d_energy_pj" in s
                               for s in samples)

    def test_disabled_run_emits_no_energy_fields(self, suite, tmp_path):
        log, events = self._traced_run(suite, tmp_path, "off", None)
        assert not [e for e in events if e["ev"] == "energy"]
        samples = [e for e in events if e["ev"] == "sample"]
        assert samples and all("epi_pj" not in s for s in samples)

    def test_summarize_and_diff_surface_energy(self, suite, tmp_path,
                                               capsys):
        from repro.obs.cli import main, summarize_events

        log_on, events = self._traced_run(suite, tmp_path, "a", "paper")
        log_off, _ = self._traced_run(suite, tmp_path, "b", None)
        summary = summarize_events(events)
        assert summary["epi_pj"] > 0
        assert tuple(summary["energy_pj"]) == ENERGY_CLASSES
        assert summary["energy_technologies"] == ["paper"]

        assert main(["summarize", str(log_on)]) == 0
        out = capsys.readouterr().out
        assert "energy" in out and "pJ/instr" in out

        assert main(["diff", str(log_off), str(log_on)]) == 0
        out = capsys.readouterr().out
        assert "epi_pj" in out and "energy:static" in out

    def test_timeline_plots_epi(self, suite, tmp_path, capsys):
        from repro.obs.cli import main

        log, _ = self._traced_run(suite, tmp_path, "tl", "paper")
        assert main(["timeline", str(log), "--metric", "epi_pj"]) == 0
        assert "epi_pj per interval" in capsys.readouterr().out


class TestServeProtocol:
    @staticmethod
    def _body(**extra):
        from repro.core.serialization import config_to_dict

        body = {"config": config_to_dict(base_architecture()),
                "workload": {"suite": {"instructions_per_benchmark": 4000,
                                       "level": 1}}}
        body.update(extra)
        return json.dumps(body).encode()

    def test_energy_parsed_into_spec(self):
        from repro.serve.protocol import parse_simulate_request

        spec, _, _ = parse_simulate_request(self._body(energy="all-gaas"))
        assert spec.energy == "all-gaas"
        spec, _, _ = parse_simulate_request(self._body())
        assert spec.energy is None

    def test_unknown_technology_is_a_400(self):
        from repro.serve.protocol import parse_simulate_request

        with pytest.raises(ServeError):
            parse_simulate_request(self._body(energy="wishful-cmos"))
        with pytest.raises(ServeError):
            parse_simulate_request(self._body(energy=7))

    def test_render_result_energy_keys_gated(self, suite):
        from repro.farm.points import PointSpec
        from repro.serve.protocol import render_result

        stats = run(suite, energy="paper")
        config = base_architecture()
        plain = PointSpec(label="p", config=config,
                          profiles=tuple(suite[:2]))
        rendered = render_result(plain, SimStats(), "k", False, 0.1)
        assert "energy" not in rendered and "epi_pj" not in rendered

        energetic = PointSpec(label="p", config=config,
                              profiles=tuple(suite[:2]), energy="paper")
        rendered = render_result(energetic, stats, "k", False, 0.1)
        assert rendered["energy"] == "paper"
        assert rendered["epi_pj"] == round(stats.epi_pj, 4)
        assert tuple(rendered["energy_pj"]) == ENERGY_CLASSES


class TestContentAddressing:
    def test_schema_version_bumped(self):
        from repro.farm.cache import CACHE_SCHEMA_VERSION

        assert CACHE_SCHEMA_VERSION == 4

    def test_energy_moves_the_key(self, suite):
        from repro.farm.cache import point_key

        config = base_architecture()
        profiles = suite[:1]
        keys = {point_key(config, profiles, 2_000, energy=energy)
                for energy in (None, "paper", "all-gaas", "bicmos")}
        assert len(keys) == 4

    def test_payload_carries_derived_model(self, suite):
        from repro.farm.points import PointSpec

        spec = PointSpec(label="p", config=base_architecture(),
                         profiles=tuple(suite[:1]), energy="paper")
        desc = spec.payload()["energy"]
        assert desc == derive_energy_model(base_architecture(),
                                           "paper").params()
        plain = PointSpec(label="p", config=base_architecture(),
                          profiles=tuple(suite[:1]))
        assert plain.payload()["energy"] is None

    def test_execute_point_accounts_energy(self, suite):
        from repro.farm.points import PointSpec, execute_point

        spec = PointSpec(label="p", config=base_architecture(),
                         profiles=tuple(suite[:1]), time_slice=2_000,
                         energy="paper")
        result = execute_point(spec.payload())
        stats = SimStats.from_dict(result["stats"])
        assert stats.energy_total_fj > 0

    def test_wire_body_energy_gated(self, suite):
        from repro.farm.points import PointSpec
        from repro.grid.dispatcher import wire_body

        config = base_architecture()
        plain = PointSpec(label="p", config=config,
                          profiles=tuple(suite[:1]))
        assert "energy" not in wire_body(plain)
        energetic = PointSpec(label="p", config=config,
                              profiles=tuple(suite[:1]), energy="bicmos")
        assert wire_body(energetic)["energy"] == "bicmos"


class TestParetoExperiment:
    @pytest.fixture(scope="class")
    def points(self):
        from repro.experiments.common import ExperimentScale
        from repro.experiments.pareto import sweep

        scale = ExperimentScale(instructions_per_benchmark=3_000, level=1,
                                time_slice=1_500, warmup_fraction=0.0)
        return sweep(scale)

    def test_frontier_is_nondominated_and_covering(self, points):
        from repro.experiments.pareto import pareto_frontier

        frontier = pareto_frontier(points)
        assert frontier
        labels = {p.label for p in frontier}
        for p in frontier:
            assert not any(q.cpi <= p.cpi and q.epi_pj <= p.epi_pj
                           and (q.cpi < p.cpi or q.epi_pj < p.epi_pj)
                           for q in points)
        for p in points:
            if p.label not in labels:
                assert any(q.cpi <= p.cpi and q.epi_pj <= p.epi_pj
                           for q in frontier)

    def test_report_renders(self, points):
        from repro.experiments import ExperimentScale, run_experiment

        scale = ExperimentScale(instructions_per_benchmark=3_000, level=1,
                                time_slice=1_500, warmup_fraction=0.0)
        result = run_experiment("pareto", scale)
        report = result.render()
        assert "frontier (ascending CPI):" in report
        assert "EPI (pJ)" in report
        assert result.findings["frontier_size"] >= 1
