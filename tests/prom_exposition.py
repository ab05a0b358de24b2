"""Strict Prometheus text-exposition parsing and validation (0.0.4).

The renderer lives with the metrics themselves
(:func:`repro.obs.metrics.render_prometheus`); this test helper is the
other half of the contract — a parser strict enough that "the parser
accepted it" is a meaningful assertion about serve's ``/metrics`` and
``repro-obs metrics --prometheus``.
It enforces:

* metric and label **name grammar** (``[a-zA-Z_:][a-zA-Z0-9_:]*`` /
  ``[a-zA-Z_][a-zA-Z0-9_]*``);
* ``# TYPE`` discipline — at most one per family, declared **before**
  any sample of the family, with a known metric type;
* label value **escaping** (``\\\\``, ``\\"``, ``\\n``) with no raw
  newlines or stray quotes;
* sample values that parse as floats (``+Inf``/``-Inf``/``NaN``
  included), with at most one optional integer timestamp;
* **no duplicate series** — the same name + label set may appear once;
* histogram shape (:func:`validate_histograms`): per series, bucket
  counts cumulative and non-decreasing in ascending ``le`` order,
  exactly one ``le="+Inf"`` bucket whose value equals the matching
  ``_count``, and a ``_sum``/``_count`` pair present and NaN-free.

:func:`validate_exposition` runs all of it and raises
:class:`ExpositionError` with a line-numbered message on the first
defect.  It imports nothing from :mod:`repro`; CI loads it next to a
live node with ``PYTHONPATH=src:tests``.
"""

from __future__ import annotations

import math
import re
from typing import Dict, List, Optional, Tuple


class ExpositionError(ValueError):
    """Exposition text failed strict validation."""


_METRIC_NAME = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")

#: Metric types the 0.0.4 text format defines.
KNOWN_TYPES = frozenset(
    {"counter", "gauge", "histogram", "summary", "untyped"})

#: Suffixes a histogram family's samples may carry.
_HISTOGRAM_SUFFIXES = ("_bucket", "_sum", "_count")


class Sample:
    """One exposed sample: name, ordered labels, value."""

    __slots__ = ("name", "labels", "value", "line")

    def __init__(self, name: str, labels: Tuple[Tuple[str, str], ...],
                 value: float, line: int):
        self.name = name
        self.labels = labels
        self.value = value
        self.line = line

    def label(self, name: str) -> Optional[str]:
        for key, value in self.labels:
            if key == name:
                return value
        return None

    def without(self, *names: str) -> Tuple[Tuple[str, str], ...]:
        return tuple((k, v) for k, v in self.labels if k not in names)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        inner = ",".join(f'{k}="{v}"' for k, v in self.labels)
        return f"{self.name}{{{inner}}} {self.value}"


class Family:
    """One metric family: declared type, help text, and its samples."""

    def __init__(self, name: str):
        self.name = name
        self.type: Optional[str] = None
        self.help: Optional[str] = None
        self.samples: List[Sample] = []


def _family_name(sample_name: str,
                 families: Dict[str, Family]) -> str:
    """Histogram (and summary) samples belong to their base family."""
    for suffix in _HISTOGRAM_SUFFIXES:
        base = sample_name[:-len(suffix)]
        if sample_name.endswith(suffix) and base in families \
                and families[base].type in ("histogram", "summary"):
            return base
    return sample_name


def _parse_labels(text: str, lineno: int) -> Tuple[Tuple[str, str], ...]:
    """Parse the ``{...}`` body with full escape handling."""
    pairs: List[Tuple[str, str]] = []
    i = 0
    while i < len(text):
        match = re.match(r'\s*([a-zA-Z_][a-zA-Z0-9_]*)\s*=\s*"', text[i:])
        if not match:
            raise ExpositionError(
                f"line {lineno}: malformed label pair at {text[i:]!r}")
        name = match.group(1)
        i += match.end()
        value_chars: List[str] = []
        while True:
            if i >= len(text):
                raise ExpositionError(
                    f"line {lineno}: unterminated label value for {name!r}")
            ch = text[i]
            if ch == "\\":
                if i + 1 >= len(text):
                    raise ExpositionError(
                        f"line {lineno}: dangling escape in label {name!r}")
                esc = text[i + 1]
                if esc == "n":
                    value_chars.append("\n")
                elif esc in ('"', "\\"):
                    value_chars.append(esc)
                else:
                    raise ExpositionError(
                        f"line {lineno}: invalid escape \\{esc} in label "
                        f"{name!r}")
                i += 2
                continue
            if ch == '"':
                i += 1
                break
            if ch == "\n":
                raise ExpositionError(
                    f"line {lineno}: raw newline in label value {name!r}")
            value_chars.append(ch)
            i += 1
        pairs.append((name, "".join(value_chars)))
        rest = text[i:].lstrip()
        if rest.startswith(","):
            i = len(text) - len(rest) + 1
            continue
        if rest == "":
            break
        raise ExpositionError(
            f"line {lineno}: junk after label value: {rest!r}")
    return tuple(pairs)


def _parse_value(token: str, lineno: int) -> float:
    if token in ("+Inf", "Inf"):
        return math.inf
    if token == "-Inf":
        return -math.inf
    if token == "NaN":
        return math.nan
    try:
        return float(token)
    except ValueError:
        raise ExpositionError(
            f"line {lineno}: unparsable sample value {token!r}") from None


def parse_exposition(text: str) -> Dict[str, Family]:
    """Parse exposition text into families, enforcing the grammar.

    Raises :class:`ExpositionError` on the first malformed line.  Returns
    families keyed by **family** name (histogram ``_bucket``/``_sum``/
    ``_count`` samples are folded into their base family).
    """
    families: Dict[str, Family] = {}
    seen_series: set = set()
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.rstrip("\r")
        if not line.strip():
            continue
        if line.startswith("#"):
            parts = line.split(None, 3)
            if len(parts) >= 2 and parts[1] in ("HELP", "TYPE"):
                if len(parts) < 3:
                    raise ExpositionError(
                        f"line {lineno}: {parts[1]} without a metric name")
                name = parts[2]
                if not _METRIC_NAME.match(name):
                    raise ExpositionError(
                        f"line {lineno}: invalid metric name {name!r}")
                family = families.setdefault(name, Family(name))
                if parts[1] == "HELP":
                    if family.help is not None:
                        raise ExpositionError(
                            f"line {lineno}: duplicate HELP for {name!r}")
                    family.help = parts[3] if len(parts) > 3 else ""
                else:
                    kind = parts[3].strip() if len(parts) > 3 else ""
                    if kind not in KNOWN_TYPES:
                        raise ExpositionError(
                            f"line {lineno}: unknown TYPE {kind!r} "
                            f"for {name!r}")
                    if family.type is not None:
                        raise ExpositionError(
                            f"line {lineno}: duplicate TYPE for {name!r}")
                    if family.samples:
                        raise ExpositionError(
                            f"line {lineno}: TYPE for {name!r} after its "
                            "samples")
                    family.type = kind
            continue  # other comments are legal and ignored
        match = re.match(
            r"^([a-zA-Z_:][a-zA-Z0-9_:]*)(?:\{(.*)\})?\s+(\S+)"
            r"(?:\s+(-?\d+))?\s*$", line)
        if not match:
            raise ExpositionError(f"line {lineno}: malformed sample: {line!r}")
        sample_name, label_body, value_token, _ts = match.groups()
        labels = (_parse_labels(label_body, lineno)
                  if label_body else ())
        label_names = [k for k, _ in labels]
        if len(set(label_names)) != len(label_names):
            raise ExpositionError(
                f"line {lineno}: repeated label name in {line!r}")
        value = _parse_value(value_token, lineno)
        series_key = (sample_name, labels)
        if series_key in seen_series:
            raise ExpositionError(
                f"line {lineno}: duplicate series "
                f"{sample_name}{dict(labels)!r}")
        seen_series.add(series_key)
        base = _family_name(sample_name, families)
        family = families.setdefault(base, Family(base))
        families[base].samples.append(
            Sample(sample_name, labels, value, lineno))
    return families


def validate_histograms(families: Dict[str, Family]) -> None:
    """Shape-check every histogram family (see module docstring)."""
    for family in families.values():
        if family.type != "histogram" or not family.samples:
            # A header-only family (declared, no children yet) is legal.
            continue
        buckets: Dict[Tuple, List[Sample]] = {}
        sums: Dict[Tuple, float] = {}
        counts: Dict[Tuple, float] = {}
        for sample in family.samples:
            if sample.name == family.name + "_bucket":
                buckets.setdefault(sample.without("le"), []).append(sample)
            elif sample.name == family.name + "_sum":
                sums[sample.labels] = sample.value
            elif sample.name == family.name + "_count":
                counts[sample.labels] = sample.value
            else:
                raise ExpositionError(
                    f"histogram {family.name!r} has stray sample "
                    f"{sample.name!r} (line {sample.line})")
        if not buckets:
            raise ExpositionError(
                f"histogram {family.name!r} exposes no _bucket series")
        for key, series in buckets.items():
            bounds: List[Tuple[float, Sample]] = []
            inf_seen = 0
            for sample in series:
                le = sample.label("le")
                if le is None:
                    raise ExpositionError(
                        f"histogram {family.name!r} bucket without le "
                        f"(line {sample.line})")
                bound = _parse_value(le, sample.line)
                if math.isinf(bound) and bound > 0:
                    inf_seen += 1
                bounds.append((bound, sample))
            if inf_seen != 1:
                raise ExpositionError(
                    f"histogram {family.name!r}{dict(key)!r} has "
                    f"{inf_seen} +Inf buckets; exactly one required")
            bounds.sort(key=lambda pair: pair[0])
            previous = -math.inf
            cumulative = -1.0
            for bound, sample in bounds:
                if bound == previous:
                    raise ExpositionError(
                        f"histogram {family.name!r} repeats bound "
                        f"{bound} (line {sample.line})")
                if sample.value < cumulative:
                    raise ExpositionError(
                        f"histogram {family.name!r} buckets not "
                        f"cumulative at le={bound} (line {sample.line})")
                previous, cumulative = bound, sample.value
            if key not in counts:
                raise ExpositionError(
                    f"histogram {family.name!r}{dict(key)!r} lacks _count")
            if key not in sums:
                raise ExpositionError(
                    f"histogram {family.name!r}{dict(key)!r} lacks _sum")
            if math.isnan(sums[key]):
                raise ExpositionError(
                    f"histogram {family.name!r}{dict(key)!r} _sum is NaN")
            inf_value = bounds[-1][1].value
            if inf_value != counts[key]:
                raise ExpositionError(
                    f"histogram {family.name!r}{dict(key)!r} +Inf bucket "
                    f"({inf_value}) != _count ({counts[key]})")


def validate_exposition(text: str) -> Dict[str, Family]:
    """Parse **and** shape-check; the one-call strict validator."""
    families = parse_exposition(text)
    for family in families.values():
        if family.samples and family.type is None:
            raise ExpositionError(
                f"family {family.name!r} has samples but no TYPE")
    validate_histograms(families)
    return families
