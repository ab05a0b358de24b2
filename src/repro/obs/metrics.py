"""Process-wide metrics: counters, gauges, histograms with labeled children.

One :class:`Registry` holds every metric of a process (or of one subsystem —
the serve and farm layers each own one so independent servers in the same
test process never double-count).  Everything is thread-safe, and a registry
is **mergeable**: :meth:`Registry.snapshot` renders the whole registry as a
plain JSON-safe dict, and :meth:`Registry.merge` folds such a snapshot back
into live metrics — that is how forked farm workers ship their metrics to
the parent over the existing result channel (the snapshot rides in the
worker's result dict; see :func:`repro.farm.points.execute_point`).

Merge semantics:

* counters and histograms **add** (events in the child happened),
* gauges take the **max** (a gauge is a level, not a flow; max is the only
  fold that is order-independent across workers).

Label model: a metric is declared with a tuple of label *names*; a labeled
child is addressed by a tuple of label *values* (``counter.labels("cached")``)
and unlabeled metrics use the empty tuple.  Snapshot keys encode the value
tuple as a JSON array string so snapshots stay pure JSON.
"""

from __future__ import annotations

import json
import math
import re
import threading
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.errors import ObsError

#: Default histogram bucket upper bounds (seconds-flavoured; callers timing
#: sweep points and HTTP requests share these).
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0, 30.0, 60.0, 300.0)


def _label_key(values: Tuple[str, ...]) -> str:
    """Encode a label-value tuple as a deterministic JSON-safe string."""
    return json.dumps(list(values))


def _parse_label_key(key: str) -> Tuple[str, ...]:
    return tuple(json.loads(key))


#: The quantile points ``repro-obs metrics`` reports: median, tail, and
#: far tail.
QUANTILE_POINTS: Tuple[float, ...] = (0.5, 0.95, 0.99)


def quantile_from_buckets(bounds: Sequence[float], counts: Sequence[int],
                          q: float) -> Optional[float]:
    """Coarse quantile estimate by linear interpolation within buckets.

    ``counts`` are **per-bucket** (non-cumulative) tallies with one extra
    trailing slot for the +Inf overflow, exactly the vector a
    :class:`_HistogramChild` keeps.  Follows the Prometheus
    ``histogram_quantile`` conventions: the first bucket's lower edge is 0
    when its bound is positive, and a rank landing in the overflow bucket
    answers the largest finite bound — nothing finer is known up there.

    Returns ``None`` for an empty histogram (never NaN).
    """
    if not 0.0 <= q <= 1.0:
        raise ObsError(f"quantile must be in [0, 1], got {q!r}")
    total = sum(counts)
    if total == 0:
        return None
    rank = q * total
    cumulative = 0
    largest_finite = max((b for b in bounds if math.isfinite(b)),
                         default=0.0)
    for i, bound in enumerate(bounds):
        previous = cumulative
        cumulative += counts[i]
        if cumulative >= rank and counts[i]:
            if not math.isfinite(bound):
                return largest_finite
            lower = bounds[i - 1] if i > 0 else min(0.0, bound)
            if not math.isfinite(lower):
                lower = min(0.0, bound)
            fraction = (rank - previous) / counts[i]
            return lower + (bound - lower) * fraction
    return largest_finite


def histogram_quantiles(entry: Dict[str, Any],
                        qs: Sequence[float] = QUANTILE_POINTS
                        ) -> Dict[str, Optional[float]]:
    """Quantiles over **all** children of one histogram snapshot entry
    (children may come from many merged workers or nodes)."""
    bounds = [float(b) for b in entry.get("buckets", ())]
    summed = [0] * (len(bounds) + 1)
    for child in entry.get("values", {}).values():
        for i, c in enumerate(child.get("counts", ())):
            if i < len(summed):
                summed[i] += int(c)
    return {f"p{round(q * 100):d}": quantile_from_buckets(bounds, summed, q)
            for q in qs}


class _Metric:
    """Shared plumbing: name, help, label names, per-child storage."""

    kind = "metric"

    def __init__(self, name: str, help: str = "",
                 labels: Sequence[str] = ()):
        self.name = name
        self.help = help
        self.label_names: Tuple[str, ...] = tuple(labels)
        self._lock = threading.Lock()
        self._children: Dict[Tuple[str, ...], Any] = {}

    def _coerce(self, values: Tuple[Any, ...]) -> Tuple[str, ...]:
        if len(values) != len(self.label_names):
            raise ObsError(
                f"metric {self.name!r} takes {len(self.label_names)} "
                f"label value(s), got {len(values)}")
        return tuple(str(v) for v in values)


class Counter(_Metric):
    """A monotonically increasing count."""

    kind = "counter"

    def labels(self, *values: Any) -> "_CounterChild":
        key = self._coerce(values)
        with self._lock:
            child = self._children.get(key)
            if child is None:
                child = self._children[key] = _CounterChild(self._lock)
            return child

    def inc(self, amount: int = 1) -> None:
        """Increment the unlabeled child."""
        self.labels().inc(amount)

    @property
    def value(self) -> int:
        """Total across every child."""
        with self._lock:
            return sum(c._value for c in self._children.values())

    def value_of(self, *values: Any) -> int:
        key = self._coerce(values)
        with self._lock:
            child = self._children.get(key)
            return child._value if child is not None else 0


class _CounterChild:
    __slots__ = ("_lock", "_value")

    def __init__(self, lock: threading.Lock):
        self._lock = lock
        self._value = 0

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ObsError("counters only go up; use a gauge")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> int:
        return self._value


class Gauge(_Metric):
    """A value that can go up and down (queue depth, in-flight work)."""

    kind = "gauge"

    def labels(self, *values: Any) -> "_GaugeChild":
        key = self._coerce(values)
        with self._lock:
            child = self._children.get(key)
            if child is None:
                child = self._children[key] = _GaugeChild(self._lock)
            return child

    def set(self, value: float) -> None:
        self.labels().set(value)

    def inc(self, amount: float = 1) -> None:
        self.labels().inc(amount)

    def dec(self, amount: float = 1) -> None:
        self.labels().inc(-amount)

    @property
    def value(self) -> float:
        with self._lock:
            return sum(c._value for c in self._children.values())


class _GaugeChild:
    __slots__ = ("_lock", "_value")

    def __init__(self, lock: threading.Lock):
        self._lock = lock
        self._value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1) -> None:
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        return self._value


class Histogram(_Metric):
    """Distribution over fixed bucket boundaries (upper bounds).

    ``observe(v)`` increments the first bucket whose bound is >= v, plus an
    implicit +Inf overflow bucket, and accumulates sum/count — enough for
    rates, means and coarse quantiles without storing samples.
    """

    kind = "histogram"

    def __init__(self, name: str, help: str = "",
                 labels: Sequence[str] = (),
                 buckets: Sequence[float] = DEFAULT_BUCKETS):
        super().__init__(name, help, labels)
        bounds = tuple(float(b) for b in buckets)
        if not bounds or list(bounds) != sorted(bounds):
            raise ObsError(
                f"histogram {name!r} buckets must be non-empty and sorted")
        self.buckets = bounds

    def labels(self, *values: Any) -> "_HistogramChild":
        key = self._coerce(values)
        with self._lock:
            child = self._children.get(key)
            if child is None:
                child = self._children[key] = _HistogramChild(
                    self._lock, self.buckets)
            return child

    def observe(self, value: float) -> None:
        self.labels().observe(value)

    @property
    def count(self) -> int:
        with self._lock:
            return sum(c._count for c in self._children.values())

    @property
    def sum(self) -> float:
        with self._lock:
            return sum(c._sum for c in self._children.values())


class _HistogramChild:
    __slots__ = ("_lock", "_bounds", "_counts", "_sum", "_count")

    def __init__(self, lock: threading.Lock, bounds: Tuple[float, ...]):
        self._lock = lock
        self._bounds = bounds
        self._counts = [0] * (len(bounds) + 1)  # last = +Inf overflow
        self._sum = 0.0
        self._count = 0

    def observe(self, value: float) -> None:
        value = float(value)
        slot = len(self._bounds)
        for i, bound in enumerate(self._bounds):
            if value <= bound:
                slot = i
                break
        with self._lock:
            self._counts[slot] += 1
            self._sum += value
            self._count += 1

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum


class Registry:
    """A named collection of metrics with snapshot/merge.

    Declaring a metric is idempotent: asking again with the same name (and a
    compatible type) returns the existing object, so modules can declare
    their metrics at call sites without coordinating.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: Dict[str, _Metric] = {}

    # ------------------------------------------------------------ declaration

    def _declare(self, cls, name: str, help: str, labels: Sequence[str],
                 **kwargs) -> _Metric:
        with self._lock:
            existing = self._metrics.get(name)
            if existing is not None:
                if not isinstance(existing, cls):
                    raise ObsError(
                        f"metric {name!r} already declared as "
                        f"{existing.kind}, not {cls.kind}")
                if tuple(labels) != existing.label_names:
                    raise ObsError(
                        f"metric {name!r} already declared with labels "
                        f"{existing.label_names}")
                return existing
            metric = cls(name, help, labels, **kwargs)
            self._metrics[name] = metric
            return metric

    def counter(self, name: str, help: str = "",
                labels: Sequence[str] = ()) -> Counter:
        return self._declare(Counter, name, help, labels)

    def gauge(self, name: str, help: str = "",
              labels: Sequence[str] = ()) -> Gauge:
        return self._declare(Gauge, name, help, labels)

    def histogram(self, name: str, help: str = "",
                  labels: Sequence[str] = (),
                  buckets: Sequence[float] = DEFAULT_BUCKETS) -> Histogram:
        return self._declare(Histogram, name, help, labels, buckets=buckets)

    def get(self, name: str) -> Optional[_Metric]:
        with self._lock:
            return self._metrics.get(name)

    def names(self) -> List[str]:
        with self._lock:
            return sorted(self._metrics)

    # --------------------------------------------------------- snapshot/merge

    def snapshot(self) -> Dict[str, Any]:
        """JSON-safe dump of every metric (the merge/export format)."""
        out: Dict[str, Any] = {}
        with self._lock:
            metrics = list(self._metrics.values())
        for metric in metrics:
            entry: Dict[str, Any] = {
                "type": metric.kind,
                "help": metric.help,
                "labels": list(metric.label_names),
            }
            with metric._lock:
                if metric.kind == "histogram":
                    entry["buckets"] = list(metric.buckets)
                    entry["values"] = {
                        _label_key(key): {
                            "counts": list(child._counts),
                            "sum": child._sum,
                            "count": child._count,
                        }
                        for key, child in metric._children.items()
                    }
                else:
                    entry["values"] = {
                        _label_key(key): child._value
                        for key, child in metric._children.items()
                    }
            out[metric.name] = entry
        return out

    def prometheus(self) -> str:
        """This registry in Prometheus text exposition format."""
        return render_prometheus(self.snapshot())

    def merge(self, snapshot: Dict[str, Any]) -> None:
        """Fold a :meth:`snapshot` into this registry's live metrics.

        Counters/histograms add, gauges take the max; unknown metrics are
        created on the fly so a parent needs no advance knowledge of what
        its workers counted.  Raises :class:`~repro.errors.ObsError` on a
        type or bucket mismatch.
        """
        for name, entry in snapshot.items():
            kind = entry.get("type")
            labels = tuple(entry.get("labels", ()))
            help_text = entry.get("help", "")
            if kind == "counter":
                metric = self.counter(name, help_text, labels)
                for key, value in entry.get("values", {}).items():
                    metric.labels(*_parse_label_key(key)).inc(int(value))
            elif kind == "gauge":
                metric = self.gauge(name, help_text, labels)
                for key, value in entry.get("values", {}).items():
                    child = metric.labels(*_parse_label_key(key))
                    with child._lock:
                        child._value = max(child._value, float(value))
            elif kind == "histogram":
                buckets = tuple(entry.get("buckets", DEFAULT_BUCKETS))
                metric = self.histogram(name, help_text, labels,
                                        buckets=buckets)
                if buckets != metric.buckets:
                    raise ObsError(
                        f"histogram {name!r} bucket mismatch on merge")
                for key, value in entry.get("values", {}).items():
                    child = metric.labels(*_parse_label_key(key))
                    counts = [int(c) for c in value["counts"]]
                    if len(counts) != len(child._counts):
                        raise ObsError(
                            f"histogram {name!r} count-vector mismatch")
                    with child._lock:
                        for i, c in enumerate(counts):
                            child._counts[i] += c
                        child._sum += float(value["sum"])
                        child._count += int(value["count"])
            else:
                raise ObsError(
                    f"snapshot metric {name!r} has unknown type {kind!r}")

    def reset(self) -> None:
        """Drop every metric (tests and fresh CLI processes)."""
        with self._lock:
            self._metrics.clear()


def merge_snapshots(*snapshots: Dict[str, Any]) -> Dict[str, Any]:
    """Merge snapshot dicts into one (same fold rules as Registry.merge)."""
    merged = Registry()
    for snap in snapshots:
        if snap:
            merged.merge(snap)
    return merged.snapshot()


# ------------------------------------------------------- Prometheus exposition

#: The Content-Type a Prometheus scraper expects for text exposition.
PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"


def _prom_name(name: str) -> str:
    """Force a metric or label name into the Prometheus grammar."""
    cleaned = re.sub(r"[^a-zA-Z0-9_:]", "_", name)
    if not cleaned or cleaned[0].isdigit():
        cleaned = "_" + cleaned
    return cleaned


def _prom_label_name(name: str) -> str:
    cleaned = re.sub(r"[^a-zA-Z0-9_]", "_", name)
    if not cleaned or cleaned[0].isdigit():
        cleaned = "_" + cleaned
    return cleaned


def _prom_escape_help(text: str) -> str:
    return text.replace("\\", r"\\").replace("\n", r"\n")


def _prom_escape_label(text: str) -> str:
    return (text.replace("\\", r"\\").replace("\n", r"\n")
            .replace('"', r'\"'))


def _prom_number(value: Any) -> str:
    value = float(value)
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if math.isnan(value):
        return "NaN"
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def _prom_bound(bound: float) -> str:
    return "+Inf" if math.isinf(bound) and bound > 0 else _prom_number(bound)


def _prom_labels(names: Sequence[str], values: Sequence[str],
                 extra: Sequence[Tuple[str, str]] = ()) -> str:
    pairs = [(_prom_label_name(n), v) for n, v in zip(names, values)]
    pairs.extend(extra)
    if not pairs:
        return ""
    inner = ",".join(f'{name}="{_prom_escape_label(value)}"'
                     for name, value in pairs)
    return "{" + inner + "}"


def render_prometheus(snapshot: Dict[str, Any]) -> str:
    """Render a registry :meth:`~Registry.snapshot` as Prometheus text
    exposition (version 0.0.4).

    * counters/gauges: one sample per labeled child, ``# HELP``/``# TYPE``
      headers per family;
    * histograms: cumulative ``_bucket`` samples with ``le`` labels, the
      implicit ``+Inf`` bucket emitted **exactly once** even when the
      declared bounds already end in infinity, plus ``_sum``/``_count``;
    * an *empty* unlabeled histogram still renders a complete, valid
      series (every bucket 0, ``_count`` 0 — never NaN), so a scraper sees
      the family exist before the first observation;
    * metric and label names outside the Prometheus grammar are sanitized,
      help text and label values escaped.

    Families render in sorted-name order, children in sorted label order,
    so the exposition is deterministic: two renders of one snapshot are
    byte-identical, even while merges land (``tests/test_obs_metrics.py``
    checks it).
    """
    lines: List[str] = []
    for name in sorted(snapshot):
        entry = snapshot[name]
        kind = entry.get("type")
        if kind not in ("counter", "gauge", "histogram"):
            raise ObsError(
                f"snapshot metric {name!r} has unknown type {kind!r}")
        pname = _prom_name(name)
        label_names = [str(n) for n in entry.get("labels", ())]
        help_text = entry.get("help", "")
        if help_text:
            lines.append(f"# HELP {pname} {_prom_escape_help(help_text)}")
        lines.append(f"# TYPE {pname} {kind}")
        values = entry.get("values", {})
        children = sorted(values.items())
        if kind in ("counter", "gauge"):
            for key, value in children:
                labels = _prom_labels(label_names, _parse_label_key(key))
                lines.append(f"{pname}{labels} {_prom_number(value)}")
            continue
        bounds = [float(b) for b in entry.get("buckets", ())]
        if not children and not label_names:
            # Declared but never observed: render the zero series.
            children = [(_label_key(()), {
                "counts": [0] * (len(bounds) + 1), "sum": 0.0, "count": 0})]
        for key, value in children:
            label_values = _parse_label_key(key)
            counts = [int(c) for c in value.get("counts", ())]
            total = int(value.get("count", 0))
            cumulative = 0
            for i, bound in enumerate(bounds):
                if math.isinf(bound) and bound > 0:
                    continue  # folded into the single +Inf line below
                cumulative += counts[i] if i < len(counts) else 0
                labels = _prom_labels(label_names, label_values,
                                      extra=(("le", _prom_bound(bound)),))
                lines.append(f"{pname}_bucket{labels} {cumulative}")
            labels = _prom_labels(label_names, label_values,
                                  extra=(("le", "+Inf"),))
            lines.append(f"{pname}_bucket{labels} {total}")
            plain = _prom_labels(label_names, label_values)
            lines.append(f"{pname}_sum{plain} "
                         f"{_prom_number(value.get('sum', 0.0))}")
            lines.append(f"{pname}_count{plain} {total}")
    return "\n".join(lines) + "\n" if lines else ""


#: The process-global registry: core/farm instrumentation that has no
#: subsystem registry of its own lands here, and forked workers snapshot it.
GLOBAL = Registry()


def global_registry() -> Registry:
    """The process-global :class:`Registry`."""
    return GLOBAL
