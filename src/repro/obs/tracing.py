"""Structured event tracing: buffered JSONL sink, spans, trace IDs.

Every record is one JSON object per line with an ``ev`` discriminator (the
full schema is DESIGN.md §11).  Two timelines coexist:

* **simulated time** — miss/stall/context-switch events carry ``cyc``, the
  memory system's cycle counter;
* **wall time** — ``span`` records carry ``ts``/``dur`` in microseconds
  (epoch-based), which is exactly the Chrome trace-event convention, so the
  export in :mod:`repro.obs.chrome` is a reshaping, not a conversion.

Trace IDs: :func:`new_trace_id` mints one, :class:`Trace` collects the spans
of one logical request, and a contextvar propagates the active trace across
call depth (and ``threading.Thread``/executor hops that copy context).  A
span is recorded into the active trace *and* the global tracer when one is
enabled, so a serve request's spans are visible both in its HTTP response
and in the server's JSONL event log under the same ID.

The tracer is fork-aware: a forked worker inheriting an open tracer rebinds
to a sibling ``<stem>-<pid>`` file on first emit, so parent and child never
interleave writes into one file.  :func:`read_run_events` reads a run's log
together with those siblings.
"""

from __future__ import annotations

import contextvars
import json
import os
import re
import threading
import time
import uuid
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from repro.errors import ObsError
from repro.obs import runtime

PathLike = Union[str, os.PathLike]

#: Trace format version; lands in every file's leading ``meta`` record.
TRACE_VERSION = 1


def new_trace_id() -> str:
    """A fresh 32-hex-digit trace ID."""
    return uuid.uuid4().hex


class Tracer:
    """Buffered JSONL event sink.

    Records are appended to an in-memory buffer and flushed to disk every
    ``buffer_records`` appends (and on :meth:`close`).  Thread-safe; the
    compact separators keep a fig5-size run's log in the tens of MB.
    """

    def __init__(self, path: PathLike, buffer_records: int = 1024):
        if buffer_records < 1:
            raise ObsError("buffer_records must be >= 1")
        self.path = Path(path)
        self.buffer_records = buffer_records
        self._lock = threading.Lock()
        self._buffer: List[str] = []
        self._pid = os.getpid()
        self._file = None
        self.records_emitted = 0
        self._open()
        self.emit("meta", version=TRACE_VERSION, pid=self._pid,
                  started_unix=round(time.time(), 3))

    def _open(self) -> None:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._file = open(self.path, "a", encoding="utf-8")

    def _rebind_after_fork(self) -> None:
        """First emit in a forked child: divert to a per-pid sibling file.

        The caller holds the lock, so the child's meta record goes
        straight into the buffer (``emit`` would wait on the lock forever).
        """
        pid = os.getpid()
        try:
            self._file.close()   # close inherited fd without flushing
        except OSError:
            pass
        self._pid = pid
        self.path = self.path.with_name(
            f"{self.path.stem}-{pid}{self.path.suffix}")
        self._open()
        # The parent's pending records are not ours.
        self._buffer = [json.dumps(
            {"ev": "meta", "version": TRACE_VERSION, "pid": pid,
             "started_unix": round(time.time(), 3), "forked": True},
            separators=(",", ":"))]
        self.records_emitted = 1

    def emit(self, ev: str, **fields: Any) -> None:
        """Append one record; flushes when the buffer fills."""
        record = {"ev": ev}
        record.update(fields)
        self.emit_record(record)

    def emit_record(self, record: Dict[str, Any]) -> None:
        line = json.dumps(record, separators=(",", ":"))
        with self._lock:
            if os.getpid() != self._pid:
                self._rebind_after_fork()
            self._buffer.append(line)
            self.records_emitted += 1
            if len(self._buffer) >= self.buffer_records:
                self._flush_locked()

    def _flush_locked(self) -> None:
        if self._buffer and self._file is not None:
            self._file.write("\n".join(self._buffer) + "\n")
            self._file.flush()
            self._buffer = []

    def flush(self) -> None:
        with self._lock:
            self._flush_locked()

    def close(self) -> None:
        with self._lock:
            self._flush_locked()
            if self._file is not None:
                self._file.close()
                self._file = None


# --------------------------------------------------------------------- traces


class Trace:
    """The spans of one logical request, keyed by a trace ID.

    Thread-safe: a serve request's spans are appended from the connection
    thread, an executor thread, and (via the result channel) a forked
    worker.
    """

    def __init__(self, trace_id: Optional[str] = None):
        self.trace_id = trace_id or new_trace_id()
        self._lock = threading.Lock()
        self._spans: List[Dict[str, Any]] = []

    @property
    def spans(self) -> List[Dict[str, Any]]:
        with self._lock:
            return list(self._spans)

    def add_record(self, record: Dict[str, Any]) -> None:
        with self._lock:
            self._spans.append(record)

    def add_span(self, name: str, start_wall: float, end_wall: float,
                 cat: str = "obs", **args: Any) -> Dict[str, Any]:
        """Record a span from explicit wall-clock endpoints (seconds).

        Used where the two ends live on different threads (queue wait);
        :func:`span` is the same-thread convenience wrapper.
        """
        record = _span_record(name, cat, self.trace_id, start_wall,
                              max(0.0, end_wall - start_wall), args)
        self.add_record(record)
        if runtime.enabled:
            runtime.tracer.emit_record(record)
        return record

    def to_dict(self) -> Dict[str, Any]:
        """The JSON shape surfaced in serve responses."""
        return {"id": self.trace_id, "spans": self.spans}


_current_trace: contextvars.ContextVar[Optional[Trace]] = \
    contextvars.ContextVar("repro_obs_trace", default=None)


def current_trace() -> Optional[Trace]:
    """The trace active in this context, or ``None``."""
    return _current_trace.get()


@contextmanager
def activate_trace(trace: Optional[Trace]):
    """Make ``trace`` the ambient trace for the duration of the block."""
    token = _current_trace.set(trace)
    try:
        yield trace
    finally:
        _current_trace.reset(token)


def _span_record(name: str, cat: str, trace_id: Optional[str],
                 start_wall: float, dur_s: float,
                 args: Dict[str, Any]) -> Dict[str, Any]:
    record: Dict[str, Any] = {
        "ev": "span",
        "name": name,
        "cat": cat,
        "ts": int(start_wall * 1e6),   # µs, Chrome convention
        "dur": int(dur_s * 1e6),
        "pid": os.getpid(),
        "tid": threading.get_ident(),
    }
    if trace_id is not None:
        record["trace"] = trace_id
    if args:
        record["args"] = args
    return record


@contextmanager
def span(name: str, cat: str = "obs", trace: Optional[Trace] = None,
         **args: Any):
    """Time a block as a span attached to the ambient (or given) trace.

    The span is recorded even when no trace is active, as long as the
    global tracer is enabled — standalone runs still get their wall-clock
    accounted.  When neither is the case the overhead is two clock reads.
    """
    active = trace if trace is not None else current_trace()
    start_wall = time.time()
    start = time.perf_counter()
    try:
        yield
    finally:
        dur_s = time.perf_counter() - start
        if active is not None:
            active.add_span(name, start_wall, start_wall + dur_s, cat=cat,
                            **args)
        elif runtime.enabled:
            runtime.tracer.emit_record(
                _span_record(name, cat, None, start_wall, dur_s, args))


# ---------------------------------------------------------------- file access


def read_events(path: PathLike) -> List[Dict[str, Any]]:
    """Load a JSONL event log; raises :class:`ObsError` on malformed lines."""
    events: List[Dict[str, Any]] = []
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise ObsError(
                        f"{path}:{lineno}: malformed event record: "
                        f"{exc}") from exc
                if not isinstance(record, dict) or "ev" not in record:
                    raise ObsError(
                        f"{path}:{lineno}: event record missing 'ev'")
                events.append(record)
    except OSError as exc:
        raise ObsError(f"cannot read event log {path}: {exc}") from exc
    return events


def _forked_log_start(path: Path) -> Optional[float]:
    """When the forked worker that wrote ``path`` started, or ``None``
    when the file does not open with a forked worker's ``meta`` record."""
    try:
        with open(path, encoding="utf-8") as fh:
            first = json.loads(fh.readline())
    except (OSError, ValueError):
        return None
    if (isinstance(first, dict) and first.get("ev") == "meta"
            and first.get("forked") is True):
        return float(first.get("started_unix", 0.0))
    return None


def read_run_events(path: PathLike) -> List[Dict[str, Any]]:
    """Load a run's event log and the logs its forked workers wrote beside
    it (``<stem>-<pid><suffix>``, in the order the workers started).

    A sibling counts only when its first record is a ``meta`` with
    ``"forked": true``, so an unrelated ``run-2.jsonl`` is not swept in.
    """
    path = Path(path)
    events = read_events(path)
    name = re.compile(re.escape(path.stem) + r"(-\d+)+"
                      + re.escape(path.suffix))
    siblings = []
    for sibling in path.parent.iterdir():
        if name.fullmatch(sibling.name):
            started = _forked_log_start(sibling)
            if started is not None:
                siblings.append((started, sibling))
    for _, sibling in sorted(siblings):
        events.extend(read_events(sibling))
    return events
