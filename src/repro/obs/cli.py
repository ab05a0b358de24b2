"""``repro-obs``: inspect, plot, export, and diff observability event logs.

Usage::

    repro-obs summarize run.jsonl [--json]
    repro-obs timeline run.jsonl [--metric cpi|l1i_mr|l1d_mr|wb_stall_frac]
    repro-obs export run.jsonl --chrome-trace trace.json
    repro-obs diff before.jsonl after.jsonl
    repro-obs metrics snapshot.json [--prometheus]

``summarize`` reports event counts, span wall-clock, and the sampled CPI
range of a run; ``timeline`` draws the per-interval series with the shared
ASCII plotter; ``export`` writes a ``chrome://tracing``-loadable file;
``diff`` compares two runs event class by event class — the quick answer to
"why is this sweep point 10x slower than its neighbor".  ``metrics``
renders a saved registry snapshot — a farm manifest or a bare
:meth:`Registry.snapshot` dump — as a readable table or
(``--prometheus``) as text exposition.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path
from typing import Any, Dict, List, Optional

from repro.errors import ObsError, cli_errors
from repro.obs.chrome import export_chrome_trace
from repro.obs.tracing import read_events

#: Metrics ``timeline`` can plot, mapped to sample-record fields
#: (``epi_pj`` appears only in runs that enabled energy accounting).
TIMELINE_METRICS = ("cpi", "l1i_mr", "l1d_mr", "wb_stall_frac", "epi_pj")


def summarize_events(events: List[Dict[str, Any]]) -> Dict[str, Any]:
    """The machine-readable summary ``summarize``/``diff`` are built on."""
    counts: Dict[str, int] = {}
    span_wall_us = 0
    span_names: Dict[str, int] = {}
    samples: List[Dict[str, Any]] = []
    energies: List[Dict[str, Any]] = []
    traces = set()
    for record in events:
        ev = record["ev"]
        counts[ev] = counts.get(ev, 0) + 1
        if ev == "span":
            span_wall_us += int(record.get("dur", 0))
            name = record.get("name", "?")
            span_names[name] = span_names.get(name, 0) + 1
            if record.get("trace"):
                traces.add(record["trace"])
        elif ev == "sample":
            samples.append(record)
        elif ev == "energy":
            energies.append(record)
    summary: Dict[str, Any] = {
        "records": len(events),
        "event_counts": dict(sorted(counts.items())),
        "span_count": counts.get("span", 0),
        "span_names": dict(sorted(span_names.items())),
        "span_wall_s": round(span_wall_us / 1e6, 6),
        "trace_ids": sorted(traces),
        "samples": len(samples),
    }
    if samples:
        cpis = [s["cpi"] for s in samples if "cpi" in s]
        if cpis:
            summary["cpi_first"] = cpis[0]
            summary["cpi_last"] = cpis[-1]
            summary["cpi_min"] = min(cpis)
            summary["cpi_max"] = max(cpis)
        summary["cycles_sampled"] = sum(
            int(s.get("d_cycles", 0)) for s in samples)
        summary["instructions_sampled"] = sum(
            int(s.get("d_instr", 0)) for s in samples)
    if energies:
        from repro.energy import ENERGY_CLASSES

        summary["energy_runs"] = len(energies)
        summary["energy_pj"] = {
            cls: round(sum(float(e.get(cls, 0.0)) for e in energies), 1)
            for cls in ENERGY_CLASSES}
        summary["energy_total_pj"] = round(
            sum(float(e.get("total_pj", 0.0)) for e in energies), 1)
        summary["epi_pj"] = energies[-1].get("epi_pj", 0.0)
        technologies = sorted({e.get("technology", "?") for e in energies})
        summary["energy_technologies"] = technologies
    return summary


def format_summary(path: str, summary: Dict[str, Any]) -> str:
    lines = [f"== {path} =="]
    lines.append(f"records      : {summary['records']:,}")
    for ev, count in summary["event_counts"].items():
        lines.append(f"  {ev:<14} {count:,}")
    if summary["span_count"]:
        lines.append(f"span wall    : {summary['span_wall_s']:.3f}s "
                     f"across {summary['span_count']} spans")
        for name, count in summary["span_names"].items():
            lines.append(f"  span {name:<12} x{count}")
    if summary["trace_ids"]:
        shown = ", ".join(summary["trace_ids"][:4])
        more = len(summary["trace_ids"]) - 4
        lines.append(f"traces       : {shown}"
                     + (f" (+{more} more)" if more > 0 else ""))
    if summary["samples"]:
        lines.append(f"samples      : {summary['samples']} "
                     f"({summary.get('instructions_sampled', 0):,} instr, "
                     f"{summary.get('cycles_sampled', 0):,} cycles)")
        if "cpi_min" in summary:
            lines.append(f"interval CPI : {summary['cpi_min']:.3f} min, "
                         f"{summary['cpi_max']:.3f} max, "
                         f"{summary['cpi_last']:.3f} last")
    if "energy_pj" in summary:
        techs = ", ".join(summary.get("energy_technologies", []))
        lines.append(f"energy       : {summary['energy_total_pj']:,.1f} pJ "
                     f"across {summary['energy_runs']} run(s) [{techs}], "
                     f"{summary['epi_pj']:.2f} pJ/instr last")
        for cls, pj in summary["energy_pj"].items():
            lines.append(f"  {cls:<14} {pj:,.1f} pJ")
    return "\n".join(lines)


def _cmd_summarize(args) -> int:
    summary = summarize_events(read_events(args.log))
    if args.json:
        print(json.dumps(summary, indent=1))
    else:
        print(format_summary(str(args.log), summary))
    return 0


def _cmd_timeline(args) -> int:
    from repro.analysis.ascii_plot import line_chart

    events = read_events(args.log)
    samples = [e for e in events if e["ev"] == "sample"]
    if not samples:
        raise ObsError(
            f"{args.log} holds no sample records; run with sampling "
            "enabled (obs.enable(..., sample_interval=N))")
    metric = args.metric
    xs = [s.get("cyc", i) for i, s in enumerate(samples)]
    ys = [float(s.get(metric, 0.0)) for s in samples]
    print(line_chart(xs, {metric: ys},
                     title=f"{metric} per interval — {args.log}"))
    return 0


def _cmd_export(args) -> int:
    document = export_chrome_trace(args.log, args.chrome_trace)
    print(f"wrote {args.chrome_trace}: "
          f"{len(document['traceEvents'])} trace events "
          f"(load via chrome://tracing or ui.perfetto.dev)")
    return 0


def _format_delta(a, b) -> str:
    delta = b - a
    sign = "+" if delta >= 0 else ""
    if isinstance(a, int) and isinstance(b, int):
        return f"{a:,} -> {b:,} ({sign}{delta:,})"
    return f"{a:.4f} -> {b:.4f} ({sign}{delta:.4f})"


def _cmd_diff(args) -> int:
    before = summarize_events(read_events(args.log))
    after = summarize_events(read_events(args.other))
    print(f"== diff: {args.log} -> {args.other} ==")
    all_events = sorted(set(before["event_counts"])
                        | set(after["event_counts"]))
    for ev in all_events:
        a = before["event_counts"].get(ev, 0)
        b = after["event_counts"].get(ev, 0)
        if a != b or args.all:
            print(f"  {ev:<14} {_format_delta(a, b)}")
    for key in ("span_wall_s", "cpi_last", "cpi_max", "epi_pj",
                "energy_total_pj"):
        if key in before or key in after:
            a, b = before.get(key, 0.0), after.get(key, 0.0)
            if a != b or args.all:
                print(f"  {key:<14} {_format_delta(float(a), float(b))}")
    classes = sorted(set(before.get("energy_pj", {}))
                     | set(after.get("energy_pj", {})))
    for cls in classes:
        a = float(before.get("energy_pj", {}).get(cls, 0.0))
        b = float(after.get("energy_pj", {}).get(cls, 0.0))
        if a != b or args.all:
            print(f"  energy:{cls:<7} {_format_delta(a, b)}")
    return 0


def extract_registry_snapshot(doc: Dict[str, Any]) -> Dict[str, Any]:
    """Find the registry snapshot inside a saved JSON document.

    Farm manifests carry it under an ``"obs"`` key; a bare
    :meth:`Registry.snapshot` dump *is* one.
    """
    if not isinstance(doc, dict):
        raise ObsError("a metrics document must be a JSON object")
    candidate = doc.get("obs", doc)
    if not isinstance(candidate, dict) or not candidate:
        raise ObsError("no registry snapshot found (empty or missing "
                       "'obs' key)")
    for name, entry in candidate.items():
        if not (isinstance(entry, dict) and "type" in entry
                and "values" in entry):
            raise ObsError(
                f"{name!r} is not a metric entry — is this a registry "
                "snapshot (or a document with an 'obs' key)?")
    return candidate


def format_metrics_table(snapshot: Dict[str, Any]) -> str:
    from repro.obs.metrics import histogram_quantiles

    lines = [f"{'METRIC':<36}{'TYPE':<11}{'SERIES':>7}  VALUE"]
    for name in sorted(snapshot):
        entry = snapshot[name]
        values = entry.get("values", {})
        kind = entry.get("type", "?")
        if kind == "histogram":
            count = sum(int(v.get("count", 0)) for v in values.values())
            total = sum(float(v.get("sum", 0.0)) for v in values.values())
            quantiles = histogram_quantiles(entry)
            p95 = quantiles.get("p95")
            detail = (f"count {count}, sum {total:.6g}"
                      + (f", p95 {p95:.6g}" if p95 is not None else ""))
        else:
            total = sum(float(v) for v in values.values())
            detail = f"{total:.10g}"
        lines.append(f"{name:<36}{kind:<11}{len(values):>7}  {detail}")
    return "\n".join(lines)


def _cmd_metrics(args) -> int:
    from repro.obs.metrics import render_prometheus

    try:
        doc = json.loads(Path(args.snapshot).read_text())
    except OSError as exc:
        raise ObsError(f"cannot read {args.snapshot}: {exc}") from exc
    except ValueError as exc:
        raise ObsError(f"{args.snapshot} is not JSON: {exc}") from exc
    snapshot = extract_registry_snapshot(doc)
    if args.prometheus:
        print(render_prometheus(snapshot), end="")
    else:
        print(format_metrics_table(snapshot))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-obs",
        description="Inspect, plot, export, and diff repro.obs event logs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    summarize = sub.add_parser("summarize",
                               help="event counts, span wall, CPI range")
    summarize.add_argument("log", type=Path, help="JSONL event log")
    summarize.add_argument("--json", action="store_true",
                           help="emit machine-readable JSON")

    timeline = sub.add_parser("timeline",
                              help="ASCII plot of the sampled time series")
    timeline.add_argument("log", type=Path, help="JSONL event log")
    timeline.add_argument("--metric", choices=TIMELINE_METRICS,
                          default="cpi",
                          help="series to plot (default %(default)s)")

    export = sub.add_parser("export", help="convert to other formats")
    export.add_argument("log", type=Path, help="JSONL event log")
    export.add_argument("--chrome-trace", type=Path, required=True,
                        help="write a chrome://tracing-loadable JSON here")

    diff = sub.add_parser("diff", help="compare two runs' event profiles")
    diff.add_argument("log", type=Path, help="baseline JSONL event log")
    diff.add_argument("other", type=Path, help="comparison JSONL event log")
    diff.add_argument("--all", action="store_true",
                      help="show unchanged rows too")

    metrics = sub.add_parser(
        "metrics",
        help="render a saved registry snapshot (farm manifest or bare "
             "snapshot)")
    metrics.add_argument("snapshot", type=Path,
                         help="JSON document holding a registry snapshot")
    metrics.add_argument("--prometheus", action="store_true",
                         help="emit Prometheus text exposition instead "
                              "of a table")
    return parser


@cli_errors
def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    return {"summarize": _cmd_summarize, "timeline": _cmd_timeline,
            "export": _cmd_export, "diff": _cmd_diff,
            "metrics": _cmd_metrics}[args.command](args)


if __name__ == "__main__":  # pragma: no cover - exercised via CLI
    import sys

    sys.exit(main())
