"""Chrome trace-event export: ``chrome://tracing`` / Perfetto-loadable JSON.

Span records already carry the Chrome convention (``ts``/``dur`` in
microseconds, ``pid``/``tid``), so each becomes one complete (``"ph": "X"``)
event.  ``sample`` records become counter (``"ph": "C"``) events so the CPI
and miss-rate time series render as tracks under the spans.  Simulated-cycle
events have no wall-clock timestamp and are therefore summarized into the
trace's metadata rather than plotted.

The output is the JSON *object* format (``{"traceEvents": [...]}``), which
both the legacy viewer and Perfetto accept.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional, Sequence

from repro.obs.tracing import read_run_events

#: Synthetic pid/tid for counter tracks derived from simulated time.
_SAMPLE_PID = 0

#: Fields required of every exported trace event (asserted by tests/CI).
REQUIRED_FIELDS = ("name", "ph", "ts", "pid", "tid")


def span_to_event(record: Dict[str, Any]) -> Dict[str, Any]:
    """One ``span`` record -> one complete ("X") trace event."""
    event: Dict[str, Any] = {
        "name": record.get("name", "span"),
        "cat": record.get("cat", "obs"),
        "ph": "X",
        "ts": int(record.get("ts", 0)),
        "dur": int(record.get("dur", 0)),
        "pid": int(record.get("pid", 0)),
        "tid": int(record.get("tid", 0)),
    }
    args = dict(record.get("args") or {})
    if record.get("trace"):
        args["trace"] = record["trace"]
    if args:
        event["args"] = args
    return event


def sample_to_counters(record: Dict[str, Any],
                       ts_us: int) -> List[Dict[str, Any]]:
    """One ``sample`` record -> counter ("C") events at a synthetic ts."""
    counters = []
    for name, key in (("cpi", "cpi"), ("l1i_miss_rate", "l1i_mr"),
                      ("l1d_miss_rate", "l1d_mr")):
        if key in record:
            counters.append({
                "name": name,
                "cat": "sim",
                "ph": "C",
                "ts": ts_us,
                "pid": _SAMPLE_PID,
                "tid": 0,
                "args": {name: record[key]},
            })
    return counters


def to_chrome_trace(events: Sequence[Dict[str, Any]]) -> Dict[str, Any]:
    """Convert loaded JSONL records to the Chrome trace-event document."""
    trace_events: List[Dict[str, Any]] = []
    sim_event_counts: Dict[str, int] = {}
    first_span_ts: Optional[int] = None
    for record in events:
        ev = record.get("ev")
        if ev == "span":
            event = span_to_event(record)
            trace_events.append(event)
            if first_span_ts is None or event["ts"] < first_span_ts:
                first_span_ts = event["ts"]
        elif ev != "meta":
            sim_event_counts[ev] = sim_event_counts.get(ev, 0) + 1
    # Samples ride simulated time; anchor their counter tracks at the first
    # span's wall-clock and advance by simulated cycles (1 cycle -> 1 µs) so
    # the series keeps its shape next to the spans.
    base = first_span_ts if first_span_ts is not None else 0
    for record in events:
        if record.get("ev") == "sample":
            trace_events.extend(
                sample_to_counters(record, base + int(record.get("cyc", 0))))
    return {
        "traceEvents": trace_events,
        "displayTimeUnit": "ms",
        "otherData": {
            "source": "repro-obs",
            "sim_event_counts": sim_event_counts,
        },
    }


def export_chrome_trace(jsonl_path, out_path) -> Dict[str, Any]:
    """Read a run's JSONL event log (with its forked workers' logs) and
    write the Chrome trace."""
    from repro.robust.atomic import atomic_write_text

    document = to_chrome_trace(read_run_events(jsonl_path))
    atomic_write_text(out_path, json.dumps(document, indent=1) + "\n")
    return document
