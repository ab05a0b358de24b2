"""The chaos storms, trimmed to unit-suite size.

Serving, distributing and resuming a sweep must degrade, never lie.  The
CI-sized storms run as ``repro-chaos serve --duration 6``, ``repro-chaos
grid --points 6 --instructions 12000`` and ``repro-chaos durable
--points 3 --instructions 4000``; the storms here are smaller but still
kill, stop and corrupt real processes.
"""

from __future__ import annotations

import time

import pytest

from repro import chaos
from repro.core.simulator import simulate
from repro.farm.pool import _POLL_SECONDS, fork_available

needs_fork = pytest.mark.skipif(not fork_available(),
                                reason="chaos storm needs forked workers")


@needs_fork
def test_bounded_storm_passes():
    # duration < 4s keeps the statistical shed assertion out of play;
    # the deterministic 429 path is covered by test_serve_server.
    report = chaos.serve_storm(duration_s=2.0, points=2, instructions=4_000,
                               seed=11)
    counts = report.counts
    assert report.passed, report.render()
    assert counts["requests"] > 0
    assert counts["ok"] > 0
    # One hopeless request goes to the idle server before the storm, and
    # the first client's first storm request is another.
    assert counts["hopeless_sent"] >= 2, report.render()
    assert counts["deadline_expired"] > 0  # hopeless requests got 504s
    assert counts["drain"].get("clean") is True
    # The scrape mid-storm declared every family the storm checks for.
    assert counts["metrics_families"] >= len(chaos.METRICS_FAMILIES)


def test_report_renders_violations():
    report = chaos.ChaosReport("serve")
    assert report.passed
    report.violations.append("something bad")
    assert not report.passed
    assert "something bad" in report.render()


def test_hopeless_request_cannot_finish_in_time():
    """The server answers a request whose result is ready within two
    polls after its deadline, so a hopeless request must simulate for far
    longer than that window (or it is served, cached, and every later
    hopeless request becomes a 200 cache hit)."""
    spec = chaos.hopeless_spec()
    started = time.perf_counter()
    stats = simulate(spec.config, list(spec.profiles),
                     time_slice=spec.time_slice, max_instructions=2_000_000)
    rate = stats.instructions / (time.perf_counter() - started)
    window_s = chaos.HOPELESS_DEADLINE_S + 2 * _POLL_SECONDS
    assert chaos.HOPELESS_INSTRUCTIONS / rate >= 10 * window_s, (
        f"a hopeless request simulates in "
        f"{chaos.HOPELESS_INSTRUCTIONS / rate:.3f}s at {rate:,.0f} instr/s")


@needs_fork
def test_grid_storm_passes():
    report = chaos.grid_storm(points=2, instructions=3000)
    counts = report.counts
    assert report.passed, report.render()
    assert counts["points"] == 4      # each point dispatched twice
    assert counts["resolved"] == 4 and counts["lost"] == 0
    assert counts["killed"] and counts["stalled"]


def test_crash_and_resume_storm_small():
    report = chaos.durable_storm(points=2, instructions=3000,
                                 offsets=[1, 2, 4], parallel_crash=True,
                                 stalled_worker=False)
    counts = report.counts
    assert report.passed, report.render()
    assert counts["crashes"] == 4          # 3 serial offsets + 1 parallel
    assert counts["resumes"] >= 4
    assert counts["parallel_crash_tested"]


def test_stalled_worker_is_reaped_and_rerun():
    report = chaos.durable_storm(points=2, instructions=3000, offsets=[],
                                 parallel_crash=False, stalled_worker=True)
    assert report.passed, report.render()
    assert report.counts["stalled_worker_tested"]
    assert report.counts["watchdog_reclaims"] >= 1


def test_chaos_cli_json(capsys):
    code = chaos.main(["durable", "--points", "2", "--offsets", "3",
                       "--no-parallel", "--no-stall", "--json"])
    assert code == 0
    out = capsys.readouterr().out
    assert '"passed": true' in out
