"""Per-layer tracing for the benchmark's traced run.

Everything here wraps the program's public classes and functions from the
outside; nothing inside ``src/`` knows it is being measured.  Two kinds of
boundary are recorded:

* **spans** (op, point, slice, prepare, engine, sweep-level farm/grid
  calls): one ``[name, start, end, parent, op]`` record per call, kept in
  memory and written out by :meth:`Recorder.write_spans` at the end;
* **accumulators** (the per-call miss/store handlers, trace synthesis,
  translation, energy fold, cache keys, serialization): a count and a
  time per name, because one span per handler call would cost more than
  the handler.

Both kinds push a frame on one stack, so every instant of the operation is
charged to exactly one innermost boundary: a boundary's *self* time is its
duration minus the time its children cover, and the self times of all
boundaries (the op's own included) add up to the op's wall time.

Only calls made on the thread that opened the op are charged.  The grid
dispatcher's worker threads are measured separately, as intervals around
each ``/v1/simulate`` round trip (:meth:`Recorder.note_request`).
"""

from __future__ import annotations

import json
import sys
import threading
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Boundary name -> per-layer metric names derived from it in
#: :func:`layer_metrics` (self seconds, and call count where one is kept).
HANDLERS = {
    "miss.load": ("miss.load_s", "miss.load_calls"),
    "miss.ifetch": ("miss.ifetch_s", "miss.ifetch_calls"),
    "miss.store": ("miss.store_s", "miss.store_calls"),
    "miss.l2_refill": ("miss.l2_refill_s", None),
    "miss.wb_wait": ("miss.wb_wait_s", None),
    "miss.push_write": ("miss.push_write_s", "miss.push_write_calls"),
    "energy.account": ("energy.account_s", "energy.account_calls"),
}

#: Boundaries whose self time belongs to no layer: the op itself and the
#: point wrapper (simulation construction outside the memory system, the
#: scheduler's run loop).
UNATTRIBUTED = ("op", "farm.point")

#: Every per-layer metric the traced run reports, with its unit, in the
#: order ``BENCHMARK.json`` lists them.
PER_LAYER_UNITS = {
    "trace.next_batch_s": "s",
    "trace.records": "count",
    "mmu.translate_batch_s": "s",
    "mmu.tlb_misses": "count",
    "sched.prepare_self_s": "s",
    "sched.slice_self_s": "s",
    "sched.slices": "count",
    "engine.build_s": "s",
    "engine.self_s": "s",
    "engine.ns_per_instr": "ns/instr",
    "engine.calls": "count",
    "miss.load_s": "s",
    "miss.load_calls": "count",
    "miss.ifetch_s": "s",
    "miss.ifetch_calls": "count",
    "miss.l2_refill_s": "s",
    "miss.wb_wait_s": "s",
    "miss.store_s": "s",
    "miss.store_calls": "count",
    "miss.push_write_s": "s",
    "miss.push_write_calls": "count",
    "energy.account_s": "s",
    "energy.account_calls": "count",
    "farm.self_s": "s",
    "farm.key_s": "s",
    "farm.cache_put_s": "s",
    "farm.serialize_s": "s",
    "farm.points": "count",
    "scenario.resolve_s": "s",
    "serve.queue_wait_s": "s",
    "serve.overhead_s": "s",
    "serve.requests": "count",
    "grid.dispatch_self_s": "s",
    "grid.attempts_per_point": "attempts",
    "share.miss_chain": "fraction",
    "share.batch_prep": "fraction",
    "model.cpi": "cycles/instr",
    "model.cpi.l1i_miss": "cycles/instr",
    "model.cpi.l1d_miss": "cycles/instr",
    "model.cpi.l1_writes": "cycles/instr",
    "model.cpi.wb": "cycles/instr",
    "model.cpi.l2i_miss": "cycles/instr",
    "model.cpi.l2d_miss": "cycles/instr",
    "tracing.overhead_x": "x",
    "tracing.unattributed_s": "s",
}


class Recorder:
    """Span and accumulator store for one traced worker process."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        #: boundary name -> [calls, inclusive seconds, self seconds]
        self.totals: Dict[str, List[float]] = {}
        self.counts: Dict[str, int] = {}
        #: ``(start, end)`` of every ``/v1/simulate`` round trip, any thread.
        self.requests: List[Tuple[float, float]] = []
        #: ``trace`` bodies of the node responses (serve-side spans).
        self.responses: List[Dict[str, Any]] = []
        self._stack: List[list] = []
        self._owner: Optional[int] = None
        self._op: Optional[int] = None
        self._lock = threading.Lock()
        self._undo: List[Tuple[Any, str, Any]] = []

    # ------------------------------------------------------------- recording

    def _total(self, name: str) -> List[float]:
        entry = self.totals.get(name)
        if entry is None:
            entry = self.totals[name] = [0, 0.0, 0.0]
        return entry

    def timed(self, name: str, fn: Callable, span: bool = False,
              on_result: Optional[Callable[["Recorder", Any], None]] = None
              ) -> Callable:
        """``fn`` wrapped to charge its calls to boundary ``name``."""
        stack = self._stack
        spans = self.spans
        total = self._total(name)
        perf = time.perf_counter
        ident = threading.get_ident

        def wrapper(*args, **kwargs):
            if not stack or ident() != self._owner:
                return fn(*args, **kwargs)
            parent = stack[-1]
            start = perf()
            if span:
                frame = [0.0, len(spans)]
                spans.append([name, start, start, parent[1], self._op])
            else:
                frame = [0.0, parent[1]]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                duration = end - start
                parent[0] += duration
                total[0] += 1
                total[1] += duration
                total[2] += duration - frame[0]
                if span:
                    spans[frame[1]][2] = end
            if on_result is not None:
                on_result(self, result)
            return result

        return wrapper

    def count(self, name: str, amount: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    @contextmanager
    def op(self, op_id: int):
        """The root span of one operation; boundaries record only inside."""
        if self._stack:
            raise RuntimeError("an op is already open")
        self._owner = threading.get_ident()
        self._op = op_id
        start = time.perf_counter()
        frame = [0.0, len(self.spans)]
        self.spans.append(["op", start, start, None, op_id])
        self._stack.append(frame)
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[frame[1]][2] = end
            total = self._total("op")
            total[0] += 1
            total[1] += end - start
            total[2] += end - start - frame[0]

    def note_request(self, start: float, end: float,
                     response: Any) -> None:
        """One node round trip (called from grid worker threads)."""
        with self._lock:
            self.requests.append((start, end))
            if isinstance(response, dict) and isinstance(
                    response.get("trace"), dict):
                self.responses.append(response["trace"])

    # -------------------------------------------------------------- install

    def _set(self, owner: Any, attr: str, value: Any) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _method(self, cls: type, attr: str, name: str, **kw) -> None:
        self._set(cls, attr, self.timed(name, cls.__dict__[attr], **kw))

    def _function(self, fn: Callable, name: str, **kw) -> None:
        """Rebind ``fn`` in every loaded module that imported it by name."""
        wrapped = self.timed(name, fn, **kw)
        for module in list(sys.modules.values()):
            namespace = getattr(module, "__dict__", None)
            if not namespace:
                continue
            for attr, value in list(namespace.items()):
                if value is fn:
                    self._set(module, attr, wrapped)

    def install(self) -> None:
        """Wrap every boundary the benchmark measures."""
        import repro.analysis.sweep  # noqa: F401 - binds run_points by name
        import repro.core.engine.policies  # noqa: F401
        import repro.core.serialization as serialization
        from repro.core.engine import timing
        from repro.core.hierarchy import MemorySystem
        from repro.core.stats import SimStats
        from repro.energy.accounting import EnergyAccountant
        from repro.farm import points
        from repro.farm.cache import ResultCache
        from repro.grid.dispatcher import GridDispatcher
        from repro.mmu.page_table import PageTable
        from repro.sched.process import Process
        from repro.sched.scheduler import Scheduler
        from repro.serve.client import ServeClient
        from repro.trace.synthetic import SyntheticBenchmark

        self._method(SyntheticBenchmark, "next_batch", "trace.next_batch",
                     on_result=_count_records)
        self._method(PageTable, "translate_batch", "mmu.translate_batch")
        self._method(Process, "current", "sched.prepare", span=True)
        self._method(Scheduler, "run_one_slice", "sched.slice", span=True)
        self._method(MemorySystem, "run_slice", "engine.run_slice",
                     span=True, on_result=_count_consumed)
        self._method(EnergyAccountant, "account", "energy.account")
        self._function(timing.wb_consistency_wait, "miss.wb_wait")
        self._function(timing.l2_data_refill, "miss.l2_refill")
        self._function(timing.push_write, "miss.push_write")

        # The top-level handlers are bound per instance at construction.
        build = MemorySystem.__dict__["__init__"]
        recorder = self

        def build_and_bind(ms, *args, **kwargs):
            build(ms, *args, **kwargs)
            ms._load_miss = recorder.timed("miss.load", ms._load_miss)
            ms._ifetch_miss = recorder.timed("miss.ifetch", ms._ifetch_miss)
            ms._store = recorder.timed("miss.store", ms._store)

        self._set(MemorySystem, "__init__",
                  self.timed("engine.build", build_and_bind))

        self._function(points.run_points, "farm.run_points", span=True)
        self._function(points.execute_point, "farm.point", span=True)
        self._method(points.PointSpec, "key", "farm.key")
        self._method(ResultCache, "put", "farm.cache_put")
        for fn in (serialization.config_to_dict,
                   serialization.config_from_dict,
                   serialization.profile_to_dict,
                   serialization.profile_from_dict):
            self._function(fn, "farm.serialize")
        self._method(SimStats, "to_dict", "farm.serialize")
        self._set(SimStats, "from_dict", classmethod(self.timed(
            "farm.serialize", SimStats.__dict__["from_dict"].__func__)))

        self._method(GridDispatcher, "run_points", "grid.run_points",
                     span=True)
        simulate = ServeClient.__dict__["simulate"]

        def round_trip(client, *args, **kwargs):
            start = time.perf_counter()
            response = simulate(client, *args, **kwargs)
            recorder.note_request(start, time.perf_counter(), response)
            return response

        self._set(ServeClient, "simulate", round_trip)

    def uninstall(self) -> None:
        """Restore every wrapped attribute (tests install and remove)."""
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # --------------------------------------------------------------- output

    def write_spans(self, path, meta: Dict[str, Any]) -> None:
        """Spans as JSON lines, preceded by one ``meta`` line."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"meta": meta}) + "\n")
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": start,
                                     "end": end, "parent": parent,
                                     "op": op}) + "\n")


def _count_records(recorder: Recorder, batch) -> None:
    if batch is not None:
        recorder.count("trace.records", len(batch))


def _count_consumed(recorder: Recorder, result) -> None:
    recorder.count("engine.instructions", result.consumed)


def covered(intervals: List[Tuple[float, float]]) -> float:
    """Total length of the union of ``(start, end)`` intervals."""
    total = 0.0
    reach = float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def _span_seconds(traces: List[Dict[str, Any]], name: str) -> float:
    return sum(span.get("dur", 0) for trace in traces
               for span in trace.get("spans", ())
               if isinstance(span, dict) and span.get("name") == name) / 1e6


def layer_metrics(recorder: Recorder, stats, resolve_s: float,
                  points: int, grid_counters: Dict[str, int]
                  ) -> Dict[str, float]:
    """Per-layer metrics of one traced op (``tracing.overhead_x`` is
    computed by the caller, which also ran the untraced op).

    ``stats`` is the op's summed :class:`~repro.core.stats.SimStats`.
    """
    def self_s(name: str) -> float:
        return max(0.0, recorder.totals.get(name, (0, 0.0, 0.0))[2])

    def calls(name: str) -> int:
        return int(recorder.totals.get(name, (0, 0.0, 0.0))[0])

    op_wall = recorder.totals["op"][1]
    out: Dict[str, float] = {
        "trace.next_batch_s": self_s("trace.next_batch"),
        "trace.records": recorder.counts.get("trace.records", 0),
        "mmu.translate_batch_s": self_s("mmu.translate_batch"),
        "mmu.tlb_misses": stats.itlb_misses + stats.dtlb_misses,
        "sched.prepare_self_s": self_s("sched.prepare"),
        "sched.slice_self_s": self_s("sched.slice"),
        "sched.slices": calls("sched.slice"),
        "engine.build_s": self_s("engine.build"),
        "engine.self_s": self_s("engine.run_slice"),
        "engine.calls": calls("engine.run_slice"),
        "farm.self_s": self_s("farm.run_points"),
        "farm.key_s": self_s("farm.key"),
        "farm.cache_put_s": self_s("farm.cache_put"),
        "farm.serialize_s": self_s("farm.serialize"),
        "farm.points": points,
        "scenario.resolve_s": resolve_s,
    }
    instructions = recorder.counts.get("engine.instructions", 0)
    out["engine.ns_per_instr"] = (out["engine.self_s"] / instructions * 1e9
                                  if instructions else 0.0)
    for name, (seconds, count) in HANDLERS.items():
        out[seconds] = self_s(name)
        if count is not None:
            out[count] = calls(name)

    traces = recorder.responses
    out["serve.requests"] = len(traces)
    out["serve.queue_wait_s"] = _span_seconds(traces, "queue_wait")
    out["serve.overhead_s"] = max(0.0, _span_seconds(traces, "request")
                                  - _span_seconds(traces, "simulate"))
    grid_wall = recorder.totals.get("grid.run_points", (0, 0.0, 0.0))[1]
    out["grid.dispatch_self_s"] = max(0.0, grid_wall
                                      - covered(recorder.requests))
    resolved = grid_counters.get("points", 0)
    out["grid.attempts_per_point"] = (grid_counters.get("attempts", 0)
                                      / resolved if resolved else 0.0)

    handler_s = sum(self_s(name) for name in HANDLERS
                    if name != "energy.account")
    out["share.miss_chain"] = handler_s / op_wall
    prepare_s = (self_s("sched.prepare") + out["trace.next_batch_s"]
                 + out["mmu.translate_batch_s"])
    out["share.batch_prep"] = prepare_s / op_wall

    out.update(model_metrics(stats))
    out["tracing.unattributed_s"] = sum(self_s(name)
                                        for name in UNATTRIBUTED)
    return out


def model_metrics(stats) -> Dict[str, float]:
    """Simulated CPI and its Fig. 4 components for summed stats."""
    out = {"model.cpi": stats.cpi()}
    for component, value in stats.stall_components().items():
        out[f"model.cpi.{component}"] = value
    return out
