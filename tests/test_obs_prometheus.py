"""Prometheus exposition: renderer output, the strict test-side parser,
and the snapshot/merge algebra that merged expositions rely on."""

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prom_exposition import (ExpositionError, parse_exposition,
                             validate_exposition)
from repro.errors import ObsError
from repro.obs.metrics import (PROMETHEUS_CONTENT_TYPE, Registry,
                               render_prometheus)


def fold_snapshots(*snapshots):
    """Fold snapshots, in order, into one fresh registry."""
    registry = Registry()
    for snapshot in snapshots:
        registry.merge(snapshot)
    return registry.snapshot()


def sample_registry() -> Registry:
    registry = Registry()
    requests = registry.counter("reqs_total", "requests served",
                                labels=("code",))
    requests.labels("200").inc(7)
    requests.labels("500").inc(2)
    registry.gauge("depth", "queue depth").set(3)
    latency = registry.histogram("lat_seconds", "request latency",
                                 labels=("endpoint",),
                                 buckets=(0.1, 1.0, 10.0))
    latency.labels("simulate").observe(0.05)
    latency.labels("simulate").observe(0.5)
    latency.labels("simulate").observe(50.0)
    return registry


class TestRenderer:
    def test_round_trips_through_the_strict_validator(self):
        families = validate_exposition(sample_registry().prometheus())
        assert families["reqs_total"].type == "counter"
        assert families["depth"].type == "gauge"
        assert families["lat_seconds"].type == "histogram"

    def test_counter_values_and_labels_survive(self):
        families = parse_exposition(sample_registry().prometheus())
        values = {s.label("code"): s.value
                  for s in families["reqs_total"].samples}
        assert values == {"200": 7, "500": 2}

    def test_histogram_buckets_are_cumulative_with_inf_equal_count(self):
        families = parse_exposition(sample_registry().prometheus())
        buckets = {s.label("le"): s.value
                   for s in families["lat_seconds"].samples
                   if s.name == "lat_seconds_bucket"}
        assert buckets == {"0.1": 1, "1": 2, "10": 2, "+Inf": 3}
        count = [s for s in families["lat_seconds"].samples
                 if s.name == "lat_seconds_count"][0]
        assert count.value == 3

    def test_empty_histogram_renders_a_complete_zero_series(self):
        registry = Registry()
        registry.histogram("idle_seconds", "never observed",
                           buckets=(1.0, 5.0))
        text = registry.prometheus()
        families = validate_exposition(text)
        samples = {s.name: s.value for s in families["idle_seconds"].samples}
        assert samples["idle_seconds_count"] == 0
        assert samples["idle_seconds_sum"] == 0
        assert "NaN" not in text

    def test_explicit_inf_bound_folds_into_a_single_inf_bucket(self):
        registry = Registry()
        histogram = registry.histogram("h_seconds", "explicit +Inf bucket",
                                       buckets=(1.0, math.inf))
        histogram.observe(0.5)
        histogram.observe(99.0)
        text = registry.prometheus()
        assert text.count('le="+Inf"') == 1
        validate_exposition(text)

    def test_label_values_are_escaped_and_recovered(self):
        registry = Registry()
        counter = registry.counter("odd_total", "weird labels",
                                   labels=("what",))
        nasty = 'we"ird\\x\nnewline'
        counter.labels(nasty).inc()
        families = validate_exposition(registry.prometheus())
        assert families["odd_total"].samples[0].label("what") == nasty

    def test_content_type_names_the_text_format(self):
        assert "version=0.0.4" in PROMETHEUS_CONTENT_TYPE

    def test_unknown_snapshot_type_is_rejected(self):
        with pytest.raises(ObsError):
            render_prometheus({"x": {"type": "summary", "values": {}}})


class TestParserRejections:
    def test_duplicate_series(self):
        with pytest.raises(ExpositionError, match="duplicate series"):
            parse_exposition("# TYPE a counter\na 1\na 2\n")

    def test_type_after_samples(self):
        with pytest.raises(ExpositionError, match="after its samples"):
            parse_exposition("a 1\n# TYPE a counter\n")

    def test_unknown_type(self):
        with pytest.raises(ExpositionError, match="unknown TYPE"):
            parse_exposition("# TYPE a sparkline\n")

    def test_bad_escape_in_label(self):
        with pytest.raises(ExpositionError, match="invalid escape"):
            parse_exposition('# TYPE a counter\na{l="\\q"} 1\n')

    def test_unterminated_label_value(self):
        with pytest.raises(ExpositionError, match="unterminated"):
            parse_exposition('# TYPE a counter\na{l="x} 1\n')

    def test_unparsable_value(self):
        with pytest.raises(ExpositionError, match="unparsable"):
            parse_exposition("# TYPE a counter\na banana\n")

    def test_samples_without_type_fail_validation(self):
        with pytest.raises(ExpositionError, match="no TYPE"):
            validate_exposition("a 1\n")

    def test_noncumulative_buckets_fail_validation(self):
        text = ("# TYPE h histogram\n"
                'h_bucket{le="1"} 5\nh_bucket{le="+Inf"} 3\n'
                "h_sum 1\nh_count 3\n")
        with pytest.raises(ExpositionError, match="not cumulative"):
            validate_exposition(text)

    def test_inf_bucket_disagreeing_with_count_fails(self):
        text = ("# TYPE h histogram\n"
                'h_bucket{le="1"} 1\nh_bucket{le="+Inf"} 2\n'
                "h_sum 1\nh_count 5\n")
        with pytest.raises(ExpositionError, match="!= _count"):
            validate_exposition(text)

    def test_missing_inf_bucket_fails(self):
        text = ("# TYPE h histogram\n"
                'h_bucket{le="1"} 1\nh_sum 1\nh_count 1\n')
        with pytest.raises(ExpositionError, match=r"\+Inf"):
            validate_exposition(text)


# ------------------------------------------------------------ merge algebra

def registry_from_events_into(registry: Registry, events) -> None:
    """Apply a list of (kind, label, value) events to a registry."""
    for kind, label, value in events:
        if kind == "counter":
            registry.counter("ev_total", "events",
                             labels=("src",)).labels(label).inc(value)
        elif kind == "gauge":
            registry.gauge("level", "levels",
                           labels=("src",)).labels(label).set(value)
        else:
            registry.histogram("dist_seconds", "distribution",
                               labels=("src",), buckets=(1.0, 10.0)
                               ).labels(label).observe(float(value))


event_strategy = st.lists(
    st.tuples(st.sampled_from(["counter", "gauge", "histogram"]),
              st.sampled_from(["a", "b"]),
              st.integers(min_value=0, max_value=50)),
    max_size=12)


class TestMergeAlgebra:
    @given(event_strategy, event_strategy, event_strategy)
    @settings(max_examples=60, deadline=None)
    def test_merge_is_associative(self, ev_a, ev_b, ev_c):
        def snap(events):
            registry = Registry()
            registry_from_events_into(registry, events)
            return registry.snapshot()

        a, b, c = snap(ev_a), snap(ev_b), snap(ev_c)
        left = fold_snapshots(fold_snapshots(a, b), c)
        right = fold_snapshots(a, fold_snapshots(b, c))
        assert left == right

    @given(event_strategy, event_strategy)
    @settings(max_examples=60, deadline=None)
    def test_merged_exposition_is_valid_and_deterministic(self, ev_a, ev_b):
        ra, rb = Registry(), Registry()
        registry_from_events_into(ra, ev_a)
        registry_from_events_into(rb, ev_b)
        merged = fold_snapshots(ra.snapshot(), rb.snapshot())
        text = render_prometheus(merged)
        if text:
            validate_exposition(text)
        assert text == render_prometheus(merged)

    def test_counters_add_and_gauges_take_max(self):
        ra, rb = Registry(), Registry()
        ra.counter("n_total").inc(3)
        rb.counter("n_total").inc(4)
        ra.gauge("depth").set(9)
        rb.gauge("depth").set(2)
        merged = fold_snapshots(ra.snapshot(), rb.snapshot())
        assert merged["n_total"]["values"][json.dumps([])] == 7
        assert merged["depth"]["values"][json.dumps([])] == 9
