"""Run telemetry: per-point progress, throughput, hit-rate, JSON manifest.

A :class:`RunTelemetry` collects one event per completed sweep point —
simulated, or a cache hit that replaced one — and can

* narrate progress to a stream (stderr by default, ``stream=None`` for
  silence),
* summarize throughput (simulated instructions per wall-clock second) and
  cache hit-rate, and
* persist the whole run as a JSON *manifest* (atomic write), which is what
  CI asserts against instead of scraping log lines.

Only the parent records: :func:`repro.farm.points.run_points` records
each point as its result comes back from a pool worker or a grid node.

Counting is backed by a :class:`repro.obs.metrics.Registry` (one per
telemetry instance, so concurrent runs in one test process never
double-count): ``farm_points_total`` and ``farm_instructions_total`` are
labeled by ``source`` (``simulated`` vs ``cached``), and
``farm_point_wall_seconds`` is a histogram over simulated points only.
Throughput is reported against **simulated** instructions — a cache hit
replays instructions without spending wall-clock on them, so folding hits
into an instructions-per-second rate overstated simulator speed (badly so
on warm-cache runs).
"""

from __future__ import annotations

import json
import os
import sys
import time
from typing import Any, Dict, List, Optional, TextIO, Union

from repro.obs.metrics import Registry
from repro.robust.atomic import atomic_write_text

PathLike = Union[str, os.PathLike]

MANIFEST_MAGIC = "repro-farm-manifest"
MANIFEST_VERSION = 1


class RunTelemetry:
    """Accumulates farm events and renders progress / a run manifest."""

    def __init__(self, stream: Optional[TextIO] = sys.stderr,
                 tag: str = "farm",
                 registry: Optional[Registry] = None):
        self.stream = stream
        self.tag = tag
        self.events: List[Dict[str, Any]] = []
        self._started = time.monotonic()
        self.registry = registry if registry is not None else Registry()
        self._m_points = self.registry.counter(
            "farm_points_total", "sweep points completed, by source",
            labels=("source",))
        self._m_instructions = self.registry.counter(
            "farm_instructions_total",
            "instructions accounted to completed points, by source",
            labels=("source",))
        self._m_wall = self.registry.histogram(
            "farm_point_wall_seconds",
            "wall-clock seconds per simulated (non-cached) point")

    # ------------------------------------------------------------- recording

    def record_point(self, label: str, instructions: int, wall_s: float,
                     cached: bool) -> None:
        """One sweep point finished (from simulation or from the cache)."""
        self.events.append({
            "kind": "point",
            "label": label,
            "instructions": int(instructions),
            "wall_s": round(float(wall_s), 6),
            "cached": bool(cached),
        })
        source = "cached" if cached else "simulated"
        self._m_points.labels(source).inc()
        self._m_instructions.labels(source).inc(int(instructions))
        if not cached:
            self._m_wall.observe(float(wall_s))
        if self.stream is not None:
            if cached:
                detail = "cache hit"
            else:
                rate = instructions / wall_s if wall_s > 0 else 0.0
                detail = (f"{wall_s:.1f}s, {instructions:,} instr, "
                          f"{rate / 1e6:.2f} M instr/s")
            print(f"[{self.tag}] point {len(self.events)}: {label} "
                  f"({detail})",
                  file=self.stream, flush=True)

    # ------------------------------------------------------------- summaries

    @property
    def elapsed_s(self) -> float:
        return time.monotonic() - self._started

    def summary(self) -> Dict[str, Any]:
        points = self.events
        n = len(points)
        hits = sum(1 for e in points if e["cached"])
        simulated = sum(e["instructions"] for e in points if not e["cached"])
        cached = sum(e["instructions"] for e in points if e["cached"])
        point_wall = sum(e["wall_s"] for e in points if not e["cached"])
        elapsed = self.elapsed_s
        # Throughput counts only simulated instructions: a cache hit costs
        # no simulation wall-clock, so folding its instructions in would
        # inflate the rate (the warm-cache pathology this fixes).
        rate = simulated / elapsed if elapsed > 0 else 0.0
        return {
            "points": n,
            "cache_hits": hits,
            "cache_hit_rate": hits / n if n else 0.0,
            "instructions": simulated + cached,
            "simulated_instructions": simulated,
            "cached_instructions": cached,
            "point_wall_s": round(point_wall, 6),
            "elapsed_s": round(elapsed, 6),
            "instructions_per_second": rate,
            "simulated_instructions_per_second": rate,
        }

    def format_summary(self) -> str:
        s = self.summary()
        return (f"{s['points']} points, {s['cache_hits']} cache hits "
                f"({100.0 * s['cache_hit_rate']:.1f}%), "
                f"{s['instructions']:,} instructions in "
                f"{s['elapsed_s']:.1f}s "
                f"({s['instructions_per_second'] / 1e6:.2f} M simulated "
                f"instr/s)")

    def print_summary(self) -> None:
        if self.stream is not None:
            print(f"[{self.tag}] {self.format_summary()}",
                  file=self.stream, flush=True)

    # -------------------------------------------------------------- manifest

    def write_manifest(self, path: PathLike) -> None:
        """Persist the run as JSON: summary plus every event, atomically."""
        manifest = {
            "magic": MANIFEST_MAGIC,
            "version": MANIFEST_VERSION,
            "summary": self.summary(),
            "obs": self.registry.snapshot(),
            "events": self.events,
        }
        atomic_write_text(path, json.dumps(manifest, indent=1) + "\n")
