"""Tests for the experiments command-line runner."""

import pytest

from repro.experiments.runner import build_parser, main


class TestParser:
    def test_defaults(self):
        args = build_parser().parse_args([])
        assert args.experiments == []
        # The scale, engine and energy come from the scenario unless given.
        assert args.instructions is None
        assert args.level is None
        assert args.time_slice is None
        assert args.warmup_fraction is None
        assert args.engine is None and args.energy is None
        assert args.overlay == []

    def test_overrides(self):
        args = build_parser().parse_args(
            ["fig4", "--instructions", "1000", "--level", "2",
             "--time-slice", "5000"])
        assert args.experiments == ["fig4"]
        assert args.instructions == 1000
        assert args.level == 2
        assert args.time_slice == 5000


class TestMain:
    def test_list(self, capsys):
        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "fig4" in out and "table1" in out

    def test_no_args_lists(self, capsys):
        assert main([]) == 0
        assert "available experiments" in capsys.readouterr().out

    def test_unknown_experiment_errors(self, capsys):
        assert main(["nonsense"]) == 2
        assert "unknown experiments" in capsys.readouterr().err

    def test_runs_one_experiment_and_writes_report(self, tmp_path, capsys):
        code = main(["table1", "--instructions", "2000", "--level", "2",
                     "--time-slice", "2000", "--out", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "table1" in out
        report = tmp_path / "table1.txt"
        assert report.exists()
        assert "espresso" in report.read_text()

    def test_chart_flag_renders(self, capsys):
        code = main(["fig2", "--instructions", "2000", "--level", "2",
                     "--time-slice", "2000", "--chart"])
        assert code == 0
        out = capsys.readouterr().out
        assert "*=" in out  # a line-chart legend appeared

    def test_custom_config(self, tmp_path, capsys):
        from repro.core.config import optimized_architecture
        from repro.core.serialization import config_to_json

        path = tmp_path / "machine.json"
        path.write_text(config_to_json(optimized_architecture()))
        code = main(["--config", str(path), "--instructions", "2000",
                     "--level", "2", "--time-slice", "2000"])
        assert code == 0
        out = capsys.readouterr().out
        assert "custom: optimized" in out
        assert "CPI stack:" in out
