"""Metrics registry: types, labels, thread-safety, snapshot/merge, the
fork round-trip over the farm's result channel, and merges under
concurrency — snapshots from real forked processes, folded while a
reader snapshots and renders."""

import json
import multiprocessing
import threading

import pytest

from prom_exposition import validate_exposition
from repro.errors import ObsError
from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    Registry,
    render_prometheus,
)


def fold_snapshots(*snapshots):
    """Fold snapshots, in order, into one fresh registry."""
    registry = Registry()
    for snapshot in snapshots:
        registry.merge(snapshot)
    return registry.snapshot()


class TestCounters:
    def test_inc_and_total(self):
        reg = Registry()
        c = reg.counter("hits", "test counter")
        c.inc()
        c.inc(4)
        assert c.value == 5

    def test_labeled_children_are_independent(self):
        reg = Registry()
        c = reg.counter("points", labels=("source",))
        c.labels("simulated").inc(3)
        c.labels("cached").inc(2)
        assert c.value_of("simulated") == 3
        assert c.value_of("cached") == 2
        assert c.value == 5

    def test_counters_only_go_up(self):
        reg = Registry()
        with pytest.raises(ObsError):
            reg.counter("c").inc(-1)

    def test_label_arity_enforced(self):
        reg = Registry()
        c = reg.counter("c", labels=("a", "b"))
        with pytest.raises(ObsError):
            c.labels("only-one")

    def test_redeclaration_is_idempotent(self):
        reg = Registry()
        assert reg.counter("c", labels=("x",)) is reg.counter(
            "c", labels=("x",))

    def test_redeclaration_type_mismatch_raises(self):
        reg = Registry()
        reg.counter("c")
        with pytest.raises(ObsError):
            reg.gauge("c")

    def test_redeclaration_label_mismatch_raises(self):
        reg = Registry()
        reg.counter("c", labels=("a",))
        with pytest.raises(ObsError):
            reg.counter("c", labels=("b",))


class TestGaugesAndHistograms:
    def test_gauge_up_and_down(self):
        reg = Registry()
        g = reg.gauge("depth")
        g.set(5)
        g.dec(2)
        g.inc(1)
        assert g.value == 4.0

    def test_histogram_buckets_and_sum(self):
        reg = Registry()
        h = reg.histogram("wall", buckets=(0.1, 1.0))
        h.observe(0.05)   # bucket 0
        h.observe(0.5)    # bucket 1
        h.observe(10.0)   # overflow
        assert h.count == 3
        assert h.sum == pytest.approx(10.55)
        child = h.labels()
        assert child._counts == [1, 1, 1]

    def test_histogram_buckets_must_be_sorted(self):
        reg = Registry()
        with pytest.raises(ObsError):
            reg.histogram("h", buckets=(1.0, 0.1))


class TestThreadSafety:
    def test_concurrent_increments_never_lose_updates(self):
        reg = Registry()
        c = reg.counter("n", labels=("worker",))
        h = reg.histogram("h", buckets=DEFAULT_BUCKETS)
        per_thread, threads = 2000, 8

        def work(i):
            child = c.labels(str(i % 2))
            for _ in range(per_thread):
                child.inc()
                h.observe(0.01)

        pool = [threading.Thread(target=work, args=(i,))
                for i in range(threads)]
        for t in pool:
            t.start()
        for t in pool:
            t.join()
        assert c.value == per_thread * threads
        assert h.count == per_thread * threads


class TestSnapshotMerge:
    def test_snapshot_is_json_shaped(self):
        reg = Registry()
        reg.counter("c", "help text", labels=("k",)).labels("v").inc(2)
        snap = reg.snapshot()
        assert snap["c"]["type"] == "counter"
        assert snap["c"]["help"] == "help text"
        assert snap["c"]["values"] == {'["v"]': 2}

    def test_counters_add_gauges_max_on_merge(self):
        a, b = Registry(), Registry()
        a.counter("c").inc(3)
        a.gauge("g").set(7)
        b.counter("c").inc(4)
        b.gauge("g").set(5)
        b.merge(a.snapshot())
        assert b.counter("c").value == 7
        assert b.gauge("g").value == 7.0   # max, not sum

    def test_histograms_add_on_merge(self):
        a, b = Registry(), Registry()
        a.histogram("h", buckets=(1.0,)).observe(0.5)
        b.histogram("h", buckets=(1.0,)).observe(2.0)
        b.merge(a.snapshot())
        h = b.histogram("h", buckets=(1.0,))
        assert h.count == 2
        assert h.sum == pytest.approx(2.5)

    def test_merge_creates_unknown_metrics(self):
        a, b = Registry(), Registry()
        a.counter("new_one").inc(2)
        b.merge(a.snapshot())
        assert b.counter("new_one").value == 2

    def test_merge_bucket_mismatch_raises(self):
        a, b = Registry(), Registry()
        a.histogram("h", buckets=(1.0,)).observe(0.5)
        b.histogram("h", buckets=(2.0,))
        with pytest.raises(ObsError):
            b.merge(a.snapshot())

    def test_merge_unknown_type_raises(self):
        with pytest.raises(ObsError):
            Registry().merge({"x": {"type": "mystery", "values": {}}})

    def test_merge_folds_several_snapshots(self):
        a, b = Registry(), Registry()
        a.counter("c").inc(1)
        b.counter("c").inc(2)
        assert fold_snapshots(a.snapshot(), b.snapshot())["c"]["values"] \
            == {"[]": 3}

    def test_snapshot_merge_round_trip_is_lossless(self):
        a = Registry()
        a.counter("c", labels=("k",)).labels("x").inc(3)
        a.gauge("g").set(2.5)
        a.histogram("h", buckets=(0.5, 1.0)).observe(0.7)
        b = Registry()
        b.merge(a.snapshot())
        assert b.snapshot() == a.snapshot()


class TestForkedWorkerRoundTrip:
    def test_worker_metrics_ride_the_result_channel(self, tmp_path):
        """A pool worker's per-task registry snapshot lands in the parent
        telemetry's registry — across a real process boundary when the
        platform can fork."""
        from repro import base_architecture, default_suite
        from repro.farm.points import PointSpec, run_points
        from repro.farm.pool import fork_available
        from repro.farm.telemetry import RunTelemetry

        specs = [PointSpec(label=f"p{i}", config=base_architecture(),
                           profiles=tuple(default_suite(2000)[:2]),
                           max_instructions=4000)
                 for i in range(2)]
        telemetry = RunTelemetry(stream=None)
        jobs = 2 if fork_available() else 1
        run_points(specs, jobs=jobs, telemetry=telemetry)
        reg = telemetry.registry
        assert reg.counter("sim_runs_total").value == 2
        assert reg.counter("sim_instructions_total").value > 0
        assert reg.histogram("sim_wall_seconds").count == 2
        # The parent's own farm counters coexist with the shipped ones.
        assert reg.counter("farm_points_total",
                           labels=("source",)).value_of("simulated") == 2


WORKERS = 4
ROUNDS = 25
INCREMENTS = 7


def worker_snapshot(seed: int):
    """One forked worker's registry snapshot — what rides back over the
    farm's result channel."""
    registry = Registry()
    counter = registry.counter("work_total", "work done", labels=("who",))
    counter.labels(f"w{seed % WORKERS}").inc(INCREMENTS)
    histogram = registry.histogram("work_seconds", "work wall",
                                   labels=("who",), buckets=(0.1, 1.0))
    histogram.labels(f"w{seed % WORKERS}").observe(0.05 * (seed % 3))
    registry.gauge("hwm", "high water mark").set(seed)
    return registry.snapshot()


class TestMergeUnderConcurrency:
    def test_forked_worker_snapshots_merge_losslessly(self):
        """Snapshots produced in genuinely separate processes fold into
        the parent without losing a single increment."""
        try:
            context = multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - non-POSIX platforms
            pytest.skip("fork start method unavailable")
        with context.Pool(WORKERS) as pool:
            snapshots = pool.map(worker_snapshot, range(WORKERS * ROUNDS))
        parent = Registry()
        for snapshot in snapshots:
            parent.merge(snapshot)
        merged = parent.snapshot()
        total = sum(merged["work_total"]["values"].values())
        assert total == WORKERS * ROUNDS * INCREMENTS
        counts = sum(child["count"]
                     for child in merged["work_seconds"]["values"].values())
        assert counts == WORKERS * ROUNDS
        assert merged["hwm"]["values"][json.dumps([])] == \
            WORKERS * ROUNDS - 1  # gauges take the max
        validate_exposition(render_prometheus(merged))

    def test_concurrent_merges_with_a_live_reader(self):
        """N merger threads fold worker snapshots into one registry while
        a reader snapshots and renders nonstop: every increment lands,
        and every rendered exposition parses with stable (sorted)
        ordering."""
        parent = Registry()
        snapshots = [worker_snapshot(i) for i in range(WORKERS * ROUNDS)]
        chunks = [snapshots[i::WORKERS] for i in range(WORKERS)]
        stop = threading.Event()
        problems = []

        def reader():
            while not stop.is_set():
                snapshot = parent.snapshot()
                try:
                    text = render_prometheus(snapshot)
                    if text:
                        validate_exposition(text)
                except Exception as exc:
                    problems.append(exc)
                    return
                total = sum(snapshot.get("work_total", {})
                            .get("values", {}).values())
                if total < 0:
                    problems.append(f"negative total {total}")
                # Family headers must stay in sorted (deterministic) order
                # no matter how mid-merge the snapshot was taken.
                families = [line.split()[2] for line in text.splitlines()
                            if line.startswith("# TYPE")]
                if families != sorted(families):
                    problems.append(f"unsorted families: {families}")

        def merger(chunk):
            for snapshot in chunk:
                parent.merge(snapshot)

        reader_thread = threading.Thread(target=reader)
        reader_thread.start()
        merge_threads = [threading.Thread(target=merger, args=(chunk,))
                         for chunk in chunks]
        for thread in merge_threads:
            thread.start()
        for thread in merge_threads:
            thread.join(timeout=60)
        stop.set()
        reader_thread.join(timeout=60)
        assert not problems, problems[:3]
        final = parent.snapshot()
        assert sum(final["work_total"]["values"].values()) == \
            WORKERS * ROUNDS * INCREMENTS
        # Determinism: rendering the settled registry twice is bytewise
        # equal, with label children in stable sorted order.
        assert render_prometheus(final) == \
            render_prometheus(parent.snapshot())

    def test_merge_order_independence(self):
        """Registry.merge gives one answer regardless of arrival order —
        the property that lets snapshots merge as they land."""
        snaps = [worker_snapshot(i) for i in range(6)]
        forward = fold_snapshots(*snaps)
        backward = fold_snapshots(*reversed(snaps))
        assert forward == backward
        assert render_prometheus(forward) == render_prometheus(backward)
