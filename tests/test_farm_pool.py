"""Worker pool: ordering, fallback, crash retry, timeout, task errors,
leases."""

import os
import threading
import time

import pytest

from repro.errors import FarmError
from repro.farm.pool import fork_available, run_tasks

pytestmark = pytest.mark.skipif(not fork_available(),
                                reason="platform cannot fork")


# Task functions live at module top level so they are importable/picklable.

def square(payload):
    return payload * payload


def pid_of(_payload):
    return os.getpid()


def sleep_then_square(payload):
    time.sleep(payload * 0.05)
    return payload * payload


def sleep_forever(_payload):
    time.sleep(60)


def crash_hard(_payload):
    os._exit(3)  # no exception, no report: a genuine worker death


def crash_once_then_succeed(flag_path):
    if not os.path.exists(flag_path):
        with open(flag_path, "w") as handle:
            handle.write("crashed")
        os._exit(1)
    return "recovered"


def raise_value_error(payload):
    raise ValueError(f"bad payload {payload}")


class TestOrdering:
    def test_results_in_payload_order(self):
        assert run_tasks(square, [3, 1, 4, 1, 5], jobs=3) == [9, 1, 16, 1, 25]

    def test_order_independent_of_completion_time(self):
        # Later payloads sleep less, so they complete first.
        payloads = [4, 3, 2, 1, 0]
        assert run_tasks(sleep_then_square, payloads, jobs=5) \
            == [16, 9, 4, 1, 0]

    def test_empty(self):
        assert run_tasks(square, [], jobs=4) == []

    def test_on_result_sees_every_completion(self):
        seen = {}
        run_tasks(square, [2, 3, 4], jobs=2,
                  on_result=lambda i, r: seen.__setitem__(i, r))
        assert seen == {0: 4, 1: 9, 2: 16}


class TestExecutionModes:
    def test_jobs_1_runs_in_process(self):
        assert run_tasks(pid_of, [None], jobs=1) == [os.getpid()]

    def test_parallel_runs_in_workers(self):
        pids = run_tasks(pid_of, [None, None], jobs=2)
        assert all(pid != os.getpid() for pid in pids)


class TestFailures:
    def test_task_exception_raises_farm_error_with_label(self):
        with pytest.raises(FarmError, match="ValueError.*bad payload"):
            run_tasks(raise_value_error, [7], jobs=2, labels=["lbl7"])
        with pytest.raises(FarmError) as excinfo:
            run_tasks(raise_value_error, [7], jobs=2, labels=["lbl7"])
        assert excinfo.value.label == "lbl7"

    def test_task_exception_in_serial_mode(self):
        with pytest.raises(FarmError, match="ValueError"):
            run_tasks(raise_value_error, [7], jobs=1)

    def test_crash_exhausts_retries(self):
        with pytest.raises(FarmError, match="crashed.*attempt 2 of 2"):
            run_tasks(crash_hard, [None], jobs=2, retries=1)

    def test_crash_once_then_recover(self, tmp_path):
        flag = str(tmp_path / "crashed.flag")
        assert run_tasks(crash_once_then_succeed, [flag],
                         jobs=2, retries=1) == ["recovered"]

    def test_timeout_kills_and_reports(self):
        started = time.monotonic()
        with pytest.raises(FarmError, match="timed out"):
            run_tasks(sleep_forever, [None], jobs=2,
                      timeout=0.3, retries=0)
        assert time.monotonic() - started < 30

    def test_failure_terminates_outstanding_workers(self):
        # The long sleeper must not keep the call alive after the crash
        # exhausts its budget.
        started = time.monotonic()
        with pytest.raises(FarmError):
            run_tasks(crash_hard, [None, None], jobs=2, retries=0)
        assert time.monotonic() - started < 30


# ------------------------------------------------ pool watchdog in vitro


def _sleepy(payload):
    time.sleep(payload)
    return payload


def test_pool_slow_worker_keeps_lease():
    """A *slow* worker still heartbeats — the lease watchdog must leave
    it alone (the stuck/slow distinction the design leans on)."""
    beats = []
    results = run_tasks(_sleepy, [1.2], jobs=2, lease_s=0.6,
                        heartbeat_s=0.2,
                        on_heartbeat=lambda i: beats.append(i))
    assert results == [1.2]
    assert beats   # liveness was proven, not assumed


def test_pool_heartbeats_reach_the_parent():
    events = []
    lock = threading.Lock()

    def on_heartbeat(index):
        with lock:
            events.append(index)

    results = run_tasks(_sleepy, [0.7, 0.7], jobs=2, lease_s=2.0,
                        heartbeat_s=0.1, on_heartbeat=on_heartbeat)
    assert results == [0.7, 0.7]
    assert set(events) == {0, 1}


def test_pool_lease_requires_heartbeat_configured():
    from repro.errors import ConfigurationError

    with pytest.raises(ConfigurationError):
        run_tasks(_sleepy, [0.1], jobs=2, lease_s=1.0)
