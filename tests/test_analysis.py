"""Unit tests for the analysis layer (CPI recombination, tables, sweeps)."""

import pytest

from repro.analysis.cpi import (
    PenaltyModel,
    data_side_cpi,
    instruction_side_cpi,
    l1_refill_cycles,
    percent_improvement,
    speed_size_curves,
)
from repro.analysis.sweep import run_point, run_sweep, stats_by_label
from repro.analysis.tables import (
    format_cpi_stack,
    format_percent,
    format_series,
    format_table,
)
from repro.core.config import base_architecture
from repro.core.stats import SimStats
from repro.trace.benchmarks import default_suite


def counted_stats() -> SimStats:
    stats = SimStats()
    stats.instructions = 1000
    stats.l1i_misses = 10
    stats.l2i_misses = 2
    stats.l2i_dirty_victims = 1
    stats.l1d_read_misses = 20
    stats.l2d_misses = 4
    stats.l2d_dirty_victims = 2
    return stats


class TestAnalyticCpi:
    def test_refill_cycles(self):
        assert l1_refill_cycles(6, 4) == 6
        assert l1_refill_cycles(6, 8) == 7
        assert l1_refill_cycles(2, 8) == 3

    def test_instruction_side(self):
        stats = counted_stats()
        # 10 refills x 6 + 1 clean x 143 + 1 dirty x 237.
        expected = (10 * 6 + 143 + 237) / 1000
        assert instruction_side_cpi(stats, 6) == pytest.approx(expected)

    def test_data_side(self):
        stats = counted_stats()
        expected = (20 * 6 + 2 * 143 + 2 * 237) / 1000
        assert data_side_cpi(stats, 6) == pytest.approx(expected)

    def test_monotone_in_access_time(self):
        stats = counted_stats()
        values = [instruction_side_cpi(stats, a) for a in range(1, 11)]
        assert values == sorted(values)

    def test_custom_penalties(self):
        stats = counted_stats()
        penalties = PenaltyModel(miss_penalty_clean=100,
                                 miss_penalty_dirty=100)
        expected = (10 * 6 + 2 * 100) / 1000
        assert instruction_side_cpi(stats, 6, penalties=penalties) == \
            pytest.approx(expected)

    def test_speed_size_curves(self):
        pairs = [(8, counted_stats()), (16, counted_stats())]
        curves = speed_size_curves(pairs, access_times=[2, 6],
                                   side="instruction")
        assert set(curves) == {2, 6}
        assert [size for size, _ in curves[2]] == [8, 16]
        with pytest.raises(ValueError):
            speed_size_curves(pairs, [2], side="bogus")

    def test_percent_improvement(self):
        assert percent_improvement(2.0, 1.0) == pytest.approx(50.0)
        assert percent_improvement(0.0, 1.0) == 0.0


class TestTables:
    def test_format_table_aligns(self):
        text = format_table(["a", "bbbb"], [[1, 2.5], [30, 4.25]],
                            precision=2, title="t")
        lines = text.splitlines()
        assert lines[0] == "t"
        assert "bbbb" in lines[1]
        assert lines[-1].endswith("4.25")

    def test_format_series(self):
        text = format_series("x", [1, 2], {"s": [0.1, 0.2]})
        assert "0.1000" in text and "0.2000" in text

    def test_format_cpi_stack_cumulative(self):
        stack = {"base": 1.238, "l1i_miss": 0.1, "l2d_miss": 0.2}
        text = format_cpi_stack(stack)
        assert "total CPI" in text
        assert "1.538" in text

    def test_format_percent(self):
        assert format_percent(12.345) == "12.3%"


class TestSweep:
    def test_run_sweep_labels_and_order(self):
        suite = default_suite(instructions_per_benchmark=2000)[:2]
        configs = [("a", base_architecture()), ("b", base_architecture())]
        points = run_sweep(configs, suite, time_slice=2000)
        assert [p.label for p in points] == ["a", "b"]
        by_label = stats_by_label(points)
        assert by_label["a"].instructions == 4000

    def test_run_point_is_isolated(self):
        suite = default_suite(instructions_per_benchmark=2000)[:2]
        a = run_point(base_architecture(), suite, time_slice=2000)
        b = run_point(base_architecture(), suite, time_slice=2000)
        assert a.cycles == b.cycles
