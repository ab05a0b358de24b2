"""Telemetry: per-point events, summaries, merging, the JSON manifest."""

import io
import json

from repro.farm.telemetry import (
    MANIFEST_MAGIC,
    MANIFEST_VERSION,
    RunTelemetry,
)


class TestRecording:
    def test_point_events_accumulate(self):
        tel = RunTelemetry(stream=None)
        tel.record_point("a", 1000, 0.5, cached=False)
        tel.record_point("b", 1000, 0.0, cached=True)
        summary = tel.summary()
        assert summary["points"] == 2
        assert summary["cache_hits"] == 1
        assert summary["cache_hit_rate"] == 0.5
        assert summary["instructions"] == 2000
        assert summary["point_wall_s"] == 0.5  # cache hits cost no wall

    def test_progress_lines_reach_the_stream(self):
        stream = io.StringIO()
        tel = RunTelemetry(stream=stream)
        tel.record_point("base@4", 120_000, 0.25, cached=False)
        tel.record_point("base@6", 120_000, 0.0, cached=True)
        out = stream.getvalue()
        assert "[farm] point 1: base@4" in out
        assert "M instr/s" in out
        assert "cache hit" in out

    def test_silent_when_streamless(self, capsys):
        tel = RunTelemetry(stream=None)
        tel.record_point("a", 1, 0.1, cached=False)
        assert capsys.readouterr() == ("", "")

    def test_format_summary_mentions_hit_rate(self):
        tel = RunTelemetry(stream=None)
        tel.record_point("a", 1000, 0.5, cached=False)
        tel.record_point("b", 1000, 0.0, cached=True)
        text = tel.format_summary()
        assert "2 points" in text and "1 cache hits (50.0%)" in text


class TestManifest:
    def test_manifest_round_trips(self, tmp_path):
        tel = RunTelemetry(stream=None)
        tel.record_point("a", 1000, 0.5, cached=False)
        path = tmp_path / "run.json"
        tel.write_manifest(path)
        manifest = json.loads(path.read_text())
        assert manifest["magic"] == MANIFEST_MAGIC
        assert manifest["version"] == MANIFEST_VERSION
        assert manifest["summary"]["points"] == 1
        assert manifest["events"][0]["label"] == "a"

    def test_manifest_write_is_atomic(self, tmp_path):
        tel = RunTelemetry(stream=None)
        path = tmp_path / "run.json"
        tel.write_manifest(path)
        tel.write_manifest(path)
        assert [p.name for p in tmp_path.iterdir()] == ["run.json"]
