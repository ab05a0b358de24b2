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

The telemetry's :class:`repro.obs.metrics.Registry` is the run's one
registry: the grid dispatcher and the run journal count on it too, and
forked workers' snapshots merge into it.  Points are counted by
:func:`count_point`, which a serve node calls on its own registry:
``farm_points_total`` and ``farm_instructions_total`` are labeled by
``source`` (``simulated`` vs ``cached``), and
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
from typing import Any, Dict, List, Optional, TextIO, Tuple, Union

from repro.obs.metrics import Counter, Histogram, Registry
from repro.robust.atomic import atomic_write_text

PathLike = Union[str, os.PathLike]

MANIFEST_MAGIC = "repro-farm-manifest"
MANIFEST_VERSION = 1


def point_metrics(registry: Registry
                  ) -> Tuple[Counter, Counter, Histogram]:
    """Declare the ``farm_*`` point families on ``registry`` (idempotent)
    and return them: points and instructions by source, and the wall
    time of simulated points."""
    return (
        registry.counter("farm_points_total",
                         "sweep points completed, by source",
                         labels=("source",)),
        registry.counter(
            "farm_instructions_total",
            "instructions accounted to completed points, by source",
            labels=("source",)),
        registry.histogram(
            "farm_point_wall_seconds",
            "wall-clock seconds per simulated (non-cached) point"))


def count_point(registry: Registry, instructions: int, wall_s: float,
                cached: bool) -> None:
    """Count one completed point (simulated, or answered from the cache)."""
    points, instruction_total, wall = point_metrics(registry)
    source = "cached" if cached else "simulated"
    points.labels(source).inc()
    instruction_total.labels(source).inc(int(instructions))
    if not cached:
        wall.observe(float(wall_s))


class RunTelemetry:
    """Accumulates farm events and renders progress / a run manifest."""

    def __init__(self, stream: Optional[TextIO] = sys.stderr):
        self.stream = stream
        self.events: List[Dict[str, Any]] = []
        self._started = time.monotonic()
        self.registry = Registry()
        point_metrics(self.registry)

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
        count_point(self.registry, instructions, wall_s, cached)
        if self.stream is not None:
            if cached:
                detail = "cache hit"
            else:
                rate = instructions / wall_s if wall_s > 0 else 0.0
                detail = (f"{wall_s:.1f}s, {instructions:,} instr, "
                          f"{rate / 1e6:.2f} M instr/s")
            print(f"[farm] point {len(self.events)}: {label} ({detail})",
                  file=self.stream, flush=True)

    # ------------------------------------------------------------- summaries

    def summary(self) -> Dict[str, Any]:
        points = self.events
        n = len(points)
        hits = sum(1 for e in points if e["cached"])
        simulated = sum(e["instructions"] for e in points if not e["cached"])
        cached = sum(e["instructions"] for e in points if e["cached"])
        point_wall = sum(e["wall_s"] for e in points if not e["cached"])
        elapsed = time.monotonic() - self._started
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
