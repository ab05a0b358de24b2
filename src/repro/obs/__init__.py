"""repro.obs — unified tracing, metrics, and profiling.

One subsystem, three concerns, one schema across simulator, farm, and serve:

* **Metrics** (:mod:`repro.obs.metrics`): thread-safe counters/gauges/
  histograms with labeled children in mergeable registries; forked farm
  workers snapshot theirs and the parent folds them back in over the
  existing result channel.
* **Event tracing** (:mod:`repro.obs.tracing`): opt-in instrumentation
  points in the simulator's miss/stall paths emit compact JSONL records,
  gated behind :data:`repro.obs.runtime.enabled` so the disabled path costs
  one attribute lookup; a periodic sampler adds a CPI/miss-rate time series.
* **Spans with trace IDs** (:class:`~repro.obs.tracing.Trace`): a serve
  request's ID flows through admission queue, farm task, worker and
  simulation, and the spans export in Chrome trace-event format
  (:mod:`repro.obs.chrome`).

Usage::

    import repro.obs as obs

    obs.enable("run.jsonl", sample_interval=100_000)
    stats = simulate(config, profiles)
    obs.disable()                       # flush + close
    # then: repro-obs summarize run.jsonl / timeline / export / diff

Environment: setting ``REPRO_OBS_TRACE=<path>`` makes
:func:`enable_from_env` (called by the CLIs and by farm workers) switch
tracing on without code changes; ``REPRO_OBS_SAMPLE_INTERVAL`` overrides the
sampling cadence.
"""

from __future__ import annotations

import os
from typing import Optional

from repro.errors import ObsError
from repro.obs import runtime
from repro.obs.chrome import export_chrome_trace, to_chrome_trace
from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    PROMETHEUS_CONTENT_TYPE,
    Counter,
    Gauge,
    Histogram,
    Registry,
    histogram_quantiles,
    quantile_from_buckets,
    render_prometheus,
)
from repro.obs.sampler import DEFAULT_INTERVAL_CYCLES, Sampler
from repro.obs.tracing import (
    Trace,
    Tracer,
    activate_trace,
    current_trace,
    new_trace_id,
    read_events,
    span,
)

#: Environment variable naming the JSONL sink (enables tracing when set).
TRACE_ENV = "REPRO_OBS_TRACE"
#: Environment variable overriding the sampling interval (cycles; 0 = off).
SAMPLE_INTERVAL_ENV = "REPRO_OBS_SAMPLE_INTERVAL"


def is_enabled() -> bool:
    """Whether event tracing is currently on."""
    return runtime.enabled


def enable(trace_path, sample_interval: Optional[int] =
           DEFAULT_INTERVAL_CYCLES, buffer_records: int = 1024) -> Tracer:
    """Switch event tracing on, writing JSONL records to ``trace_path``.

    Args:
        trace_path: the event-log file (appended; parent dirs created).
        sample_interval: simulated cycles between CPI/miss-rate samples;
            ``None`` or 0 disables the sampler.
        buffer_records: tracer buffer size (records between flushes).

    Idempotent-hostile on purpose: enabling twice without :func:`disable`
    raises, because two tracers on one path would interleave buffers.
    """
    if runtime.enabled:
        raise ObsError("tracing already enabled; call obs.disable() first")
    tracer = Tracer(trace_path, buffer_records=buffer_records)
    runtime.tracer = tracer
    runtime.sampler = (Sampler(sample_interval)
                       if sample_interval else None)
    runtime.enabled = True
    return tracer


def disable() -> None:
    """Switch tracing off, flushing and closing the sink.  Idempotent."""
    runtime.enabled = False
    tracer, runtime.tracer = runtime.tracer, None
    runtime.sampler = None
    if tracer is not None:
        tracer.close()


def enable_from_env() -> bool:
    """Enable tracing if ``$REPRO_OBS_TRACE`` is set; returns whether on.

    Called by the CLIs and by :func:`repro.farm.points.execute_point` so a
    forked worker in a traced run opens its own per-process sink (the
    tracer's fork rebinding handles an inherited one).  A no-op when
    tracing is already enabled.
    """
    if runtime.enabled:
        return True
    path = os.environ.get(TRACE_ENV, "").strip()
    if not path:
        return False
    interval: Optional[int] = DEFAULT_INTERVAL_CYCLES
    raw = os.environ.get(SAMPLE_INTERVAL_ENV, "").strip()
    if raw:
        try:
            interval = int(raw)
        except ValueError as exc:
            raise ObsError(
                f"${SAMPLE_INTERVAL_ENV} must be an integer, got "
                f"{raw!r}") from exc
    enable(path, sample_interval=interval or None)
    return True


__all__ = [
    "Counter",
    "DEFAULT_BUCKETS",
    "DEFAULT_INTERVAL_CYCLES",
    "Gauge",
    "Histogram",
    "Registry",
    "SAMPLE_INTERVAL_ENV",
    "Sampler",
    "TRACE_ENV",
    "Trace",
    "Tracer",
    "activate_trace",
    "current_trace",
    "disable",
    "enable",
    "enable_from_env",
    "export_chrome_trace",
    "is_enabled",
    "new_trace_id",
    "read_events",
    "runtime",
    "span",
    "to_chrome_trace",
]
