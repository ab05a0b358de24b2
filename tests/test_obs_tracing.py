"""Event tracing: sink, spans, sampler, Chrome export, CLI, fast path."""

import json
import os
import signal
import time

import pytest

import repro.obs as obs
from repro.errors import ObsError
from repro.obs import runtime
from repro.obs.chrome import REQUIRED_FIELDS, to_chrome_trace
from repro.obs.sampler import Sampler
from repro.obs.tracing import (
    Trace,
    Tracer,
    activate_trace,
    current_trace,
    new_trace_id,
    read_events,
    read_run_events,
    span,
)


def wait_child(pid: int) -> int:
    """A forked child's exit code; fails the test if it hangs."""
    deadline = time.monotonic() + 10
    while not (status := os.waitpid(pid, os.WNOHANG))[0]:
        if time.monotonic() > deadline:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            pytest.fail("forked child hung on its first emit")
        time.sleep(0.05)
    return os.waitstatus_to_exitcode(status[1])


@pytest.fixture(autouse=True)
def _obs_disabled():
    """Every test starts and ends with tracing off."""
    obs.disable()
    yield
    obs.disable()


class TestTracer:
    def test_emits_jsonl_with_meta_header(self, tmp_path):
        path = tmp_path / "t.jsonl"
        tracer = Tracer(path)
        tracer.emit("l1d_miss", cyc=10, line=3, cls="read")
        tracer.close()
        events = read_events(path)
        assert events[0]["ev"] == "meta"
        assert events[0]["version"] == 1
        assert events[1] == {"ev": "l1d_miss", "cyc": 10, "line": 3,
                             "cls": "read"}

    def test_buffering_flushes_on_close(self, tmp_path):
        path = tmp_path / "t.jsonl"
        tracer = Tracer(path, buffer_records=1000)
        tracer.emit("x")
        # Buffered: meta + x may not be on disk yet; close flushes.
        tracer.close()
        assert len(read_events(path)) == 2

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
    def test_forked_child_rebinds_on_first_emit(self, tmp_path):
        """A forked child's first emit opens its own per-pid file; it
        used to wait forever on the lock it already held."""
        tracer = Tracer(tmp_path / "t.jsonl")
        pid = os.fork()
        if pid == 0:
            code = 1
            try:
                tracer.emit("x")
                tracer.close()
                code = 0
            finally:
                os._exit(code)
        exit_code = wait_child(pid)
        tracer.close()
        assert exit_code == 0
        events = read_events(tmp_path / f"t-{pid}.jsonl")
        assert [e["ev"] for e in events] == ["meta", "x"]
        assert events[0]["pid"] == pid and events[0]["forked"] is True
        assert [e["ev"] for e in read_events(tmp_path / "t.jsonl")] \
            == ["meta"]

    def test_read_events_rejects_malformed_lines(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"ev":"ok"}\nnot json\n')
        with pytest.raises(ObsError):
            read_events(path)

    def test_read_events_rejects_missing_discriminator(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"no_ev":1}\n')
        with pytest.raises(ObsError):
            read_events(path)

    def test_read_events_missing_file_raises(self, tmp_path):
        with pytest.raises(ObsError):
            read_events(tmp_path / "absent.jsonl")


class TestEnableDisable:
    def test_enable_twice_raises(self, tmp_path):
        obs.enable(tmp_path / "a.jsonl")
        with pytest.raises(ObsError):
            obs.enable(tmp_path / "b.jsonl")

    def test_disable_is_idempotent(self):
        obs.disable()
        obs.disable()

    def test_enable_from_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv(obs.TRACE_ENV, str(tmp_path / "env.jsonl"))
        monkeypatch.setenv(obs.SAMPLE_INTERVAL_ENV, "12345")
        assert obs.enable_from_env() is True
        assert runtime.enabled
        assert runtime.sampler.interval_cycles == 12345

    def test_enable_from_env_noop_when_unset(self, monkeypatch):
        monkeypatch.delenv(obs.TRACE_ENV, raising=False)
        assert obs.enable_from_env() is False
        assert not runtime.enabled

    def test_enable_from_env_rejects_bad_interval(self, tmp_path,
                                                  monkeypatch):
        monkeypatch.setenv(obs.TRACE_ENV, str(tmp_path / "env.jsonl"))
        monkeypatch.setenv(obs.SAMPLE_INTERVAL_ENV, "not-a-number")
        with pytest.raises(ObsError):
            obs.enable_from_env()


class TestDisabledFastPath:
    def test_disabled_by_default(self):
        assert runtime.enabled is False
        assert runtime.tracer is None

    def test_simulation_emits_nothing_when_disabled(self, tmp_path):
        """The instrumented hot paths run with tracing off and leave no
        sink behind — the gate really is the single module attribute."""
        from repro import base_architecture, default_suite, simulate

        stats = simulate(base_architecture(), default_suite(3000),
                         level=2, max_instructions=6000)
        assert stats.instructions > 0
        assert runtime.tracer is None
        assert list(tmp_path.iterdir()) == []

    def test_span_without_trace_or_tracer_is_a_noop(self):
        with span("nothing"):
            pass  # must not raise, must not require a tracer


class TestSpansAndTraces:
    def test_span_records_into_active_trace(self):
        trace = Trace()
        with activate_trace(trace):
            assert current_trace() is trace
            with span("work", cat="test", detail=1):
                pass
        assert current_trace() is None
        (record,) = trace.spans
        assert record["name"] == "work"
        assert record["trace"] == trace.trace_id
        assert record["args"] == {"detail": 1}
        assert record["dur"] >= 0

    def test_add_span_explicit_endpoints(self):
        trace = Trace(new_trace_id())
        record = trace.add_span("wait", 100.0, 100.5, cat="q")
        assert record["ts"] == 100_000_000
        assert record["dur"] == 500_000

    def test_spans_mirror_into_enabled_tracer(self, tmp_path):
        path = tmp_path / "t.jsonl"
        obs.enable(path)
        trace = Trace()
        trace.add_span("mirrored", 1.0, 2.0)
        obs.disable()
        spans = [e for e in read_events(path) if e["ev"] == "span"]
        assert spans[0]["name"] == "mirrored"
        assert spans[0]["trace"] == trace.trace_id


class TestSampler:
    def _memsys(self):
        from repro.core.hierarchy import MemorySystem
        from repro import base_architecture

        return MemorySystem(base_architecture())

    def test_emits_after_interval(self, tmp_path):
        path = tmp_path / "s.jsonl"
        obs.enable(path, sample_interval=100)
        memsys = self._memsys()
        sampler = runtime.sampler
        sampler.tick(memsys)           # baseline, no emit
        memsys.now += 500
        memsys.stats.instructions += 400
        sampler.tick(memsys)           # interval elapsed -> sample
        obs.disable()
        samples = [e for e in read_events(path) if e["ev"] == "sample"]
        assert len(samples) == 1
        assert samples[0]["d_instr"] == 400
        assert samples[0]["cpi"] == pytest.approx(500 / 400, abs=1e-4)

    def test_warmup_clear_rebaselines_without_emitting(self, tmp_path):
        path = tmp_path / "s.jsonl"
        obs.enable(path, sample_interval=100)
        memsys = self._memsys()
        sampler = runtime.sampler
        memsys.now = 1000
        memsys.stats.instructions = 800
        sampler.tick(memsys)
        memsys.clear_stats()           # warmup rewind: counters drop
        memsys.now += 200
        memsys.stats.instructions = 10
        sampler.tick(memsys)           # negative delta -> re-baseline
        obs.disable()
        samples = [e for e in read_events(path) if e["ev"] == "sample"]
        assert samples == []

    def test_interval_must_be_positive(self):
        with pytest.raises(ObsError):
            Sampler(0)


class TestChromeExport:
    def test_span_and_sample_records_export(self, tmp_path):
        events = [
            {"ev": "meta", "version": 1},
            {"ev": "span", "name": "simulate", "cat": "sim", "ts": 1000,
             "dur": 50, "pid": 7, "tid": 9, "trace": "abc"},
            {"ev": "sample", "cyc": 20, "cpi": 2.5, "l1i_mr": 0.01},
            {"ev": "l1d_miss", "cyc": 5, "line": 1, "cls": "read"},
        ]
        doc = to_chrome_trace(events)
        assert doc["displayTimeUnit"] == "ms"
        phases = sorted({e["ph"] for e in doc["traceEvents"]})
        assert phases == ["C", "X"]
        for event in doc["traceEvents"]:
            for field in REQUIRED_FIELDS:
                assert field in event, f"{event['name']} lacks {field}"
        x = [e for e in doc["traceEvents"] if e["ph"] == "X"][0]
        assert x["args"]["trace"] == "abc"
        # Counter tracks anchor at the first span's ts plus simulated cycles.
        c = [e for e in doc["traceEvents"] if e["ph"] == "C"][0]
        assert c["ts"] == 1020
        # Cycle-domain events are summarized, not plotted.
        assert doc["otherData"]["sim_event_counts"] == {"l1d_miss": 1,
                                                        "sample": 1}

    def test_export_writes_loadable_json(self, tmp_path):
        path = tmp_path / "t.jsonl"
        obs.enable(path)
        with span("s"):
            pass
        obs.disable()
        out = tmp_path / "chrome.json"
        doc = obs.export_chrome_trace(path, out)
        assert json.loads(out.read_text()) == doc


class TestCli:
    def _write_log(self, tmp_path, name="log.jsonl"):
        path = tmp_path / name
        obs.enable(path, sample_interval=10)
        with span("simulate", cat="sim"):
            pass
        runtime.tracer.emit("l1d_miss", cyc=1, line=2, cls="read")
        runtime.tracer.emit("sample", cyc=100, d_cycles=100, d_instr=50,
                            cpi=2.0, l1i_mr=0.01, l1d_mr=0.05,
                            wb_stall_frac=0.0, l2_misses=3)
        obs.disable()
        return path

    def test_summarize(self, tmp_path, capsys):
        from repro.obs.cli import main

        path = self._write_log(tmp_path)
        assert main(["summarize", str(path)]) == 0
        out = capsys.readouterr().out
        assert "l1d_miss" in out and "span" in out

    def test_summarize_json(self, tmp_path, capsys):
        from repro.obs.cli import main

        path = self._write_log(tmp_path)
        assert main(["summarize", str(path), "--json"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["event_counts"]["l1d_miss"] == 1
        assert summary["cpi_last"] == 2.0

    def test_timeline(self, tmp_path, capsys):
        from repro.obs.cli import main

        path = self._write_log(tmp_path)
        assert main(["timeline", str(path), "--metric", "cpi"]) == 0
        assert "cpi" in capsys.readouterr().out

    def test_timeline_without_samples_fails_cleanly(self, tmp_path, capsys):
        from repro.obs.cli import main

        path = tmp_path / "empty.jsonl"
        obs.enable(path)
        obs.disable()
        assert main(["timeline", str(path)]) == 1
        assert "no sample records" in capsys.readouterr().err

    def test_export(self, tmp_path, capsys):
        from repro.obs.cli import main

        path = self._write_log(tmp_path)
        out = tmp_path / "chrome.json"
        assert main(["export", str(path), "--chrome-trace", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert {e["ph"] for e in doc["traceEvents"]} == {"C", "X"}

    def test_diff(self, tmp_path, capsys):
        from repro.obs.cli import main

        a = self._write_log(tmp_path, "a.jsonl")
        b = self._write_log(tmp_path, "b.jsonl")
        assert main(["diff", str(a), str(b), "--all"]) == 0
        assert "l1d_miss" in capsys.readouterr().out

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
    def test_commands_read_the_forked_workers_logs(self, tmp_path, capsys):
        """A parallel run's simulation events are in its forked workers'
        ``<stem>-<pid>`` logs; all four commands read them with the
        run's log, and leave out a log no worker of the run wrote."""
        from repro.obs.cli import main

        path = tmp_path / "run.jsonl"
        obs.enable(path, sample_interval=10)
        pid = os.fork()
        if pid == 0:
            code = 1
            try:
                runtime.tracer.emit("l1d_miss", cyc=1, line=2, cls="read")
                runtime.tracer.emit("sample", cyc=100, d_cycles=100,
                                    d_instr=50, cpi=2.0, l1i_mr=0.01,
                                    l1d_mr=0.05, wb_stall_frac=0.0,
                                    l2_misses=3)
                runtime.tracer.flush()
                code = 0
            finally:
                os._exit(code)
        assert wait_child(pid) == 0
        obs.disable()
        other = self._write_log(tmp_path, "run-2.jsonl")
        assert main(["summarize", str(path), "--json"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["event_counts"] == {"l1d_miss": 1, "meta": 2,
                                           "sample": 1}
        assert main(["timeline", str(path)]) == 0
        assert "cpi" in capsys.readouterr().out
        chrome = tmp_path / "chrome.json"
        assert main(["export", str(path), "--chrome-trace",
                     str(chrome)]) == 0
        doc = json.loads(chrome.read_text())
        assert {e["ph"] for e in doc["traceEvents"]} == {"C"}
        capsys.readouterr()
        assert main(["diff", str(path), str(other)]) == 0
        assert "meta           2 -> 1 (-1)" in capsys.readouterr().out

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
    def test_span_wall_counts_overlapping_time_once(self, tmp_path, capsys):
        """``span wall`` is the time at least one span covers: a span
        nested in the run's and a forked worker's span overlapping its
        tail add only the time the run's span leaves uncovered."""
        from repro.obs.cli import main

        path = tmp_path / "run.jsonl"
        obs.enable(path)
        pid = os.fork()
        if pid == 0:
            code = 1
            try:
                Trace().add_span("simulate", 101.5, 103.0)
                runtime.tracer.flush()
                code = 0
            finally:
                os._exit(code)
        assert wait_child(pid) == 0
        trace = Trace()
        trace.add_span("run", 100.0, 102.0)
        trace.add_span("render", 100.5, 101.0)
        obs.disable()
        assert main(["summarize", str(path), "--json"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["span_count"] == 3
        assert summary["span_wall_s"] == 3.0
        assert main(["summarize", str(path)]) == 0
        assert "span wall    : 3.000s across 3 spans" in \
            capsys.readouterr().out

    def test_a_single_process_log_reads_alone(self, tmp_path, capsys):
        from repro.obs.cli import main

        path = self._write_log(tmp_path, "run.jsonl")
        self._write_log(tmp_path, "run-2.jsonl")  # another run's log
        assert read_run_events(path) == read_events(path)
        assert main(["summarize", str(path), "--json"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["records"] == len(read_events(path))
        assert summary["event_counts"]["l1d_miss"] == 1

    def _write_snapshot(self, tmp_path, wrap=True):
        from repro.obs.metrics import Registry

        registry = Registry()
        registry.counter("requests_total", "served",
                         labels=("route",)).labels("/v1/simulate").inc(4)
        registry.histogram("latency_seconds", "latency",
                           buckets=(0.1, 1.0)).observe(0.25)
        registry.gauge("queue_depth", "depth").set(3)
        doc = registry.snapshot()
        if wrap:
            doc = {"service": "repro-serve", "obs": doc}
        path = tmp_path / "snapshot.json"
        path.write_text(json.dumps(doc))
        return path

    def test_metrics_table_from_serve_document(self, tmp_path, capsys):
        from repro.obs.cli import main

        path = self._write_snapshot(tmp_path)
        assert main(["metrics", str(path)]) == 0
        out = capsys.readouterr().out
        assert "METRIC" in out and "TYPE" in out
        assert "requests_total" in out and "counter" in out
        assert "latency_seconds" in out and "p95" in out

    def test_metrics_accepts_bare_snapshot(self, tmp_path, capsys):
        from repro.obs.cli import main

        path = self._write_snapshot(tmp_path, wrap=False)
        assert main(["metrics", str(path)]) == 0
        assert "queue_depth" in capsys.readouterr().out

    def test_metrics_prometheus_is_strictly_valid(self, tmp_path, capsys):
        from prom_exposition import validate_exposition
        from repro.obs.cli import main

        path = self._write_snapshot(tmp_path)
        assert main(["metrics", str(path), "--prometheus"]) == 0
        families = validate_exposition(capsys.readouterr().out)
        assert families["requests_total"].type == "counter"
        assert families["latency_seconds"].type == "histogram"

    def test_metrics_rejects_non_snapshot_json(self, tmp_path, capsys):
        from repro.obs.cli import main

        path = tmp_path / "not.json"
        path.write_text(json.dumps({"hello": "world"}))
        assert main(["metrics", str(path)]) == 1
        assert "error:" in capsys.readouterr().err
