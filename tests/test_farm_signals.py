"""Interruption is first-class: signals and stop events terminate the
pool promptly and reap every forked child."""

import os
import signal
import subprocess
import sys
import threading
import time

import pytest

from repro.errors import FarmCancelled
from repro.farm.pool import fork_available, run_tasks
from repro.robust.signals import DRAIN_SIGNALS, SignalDrain

pytestmark = pytest.mark.skipif(not fork_available(),
                                reason="platform cannot fork")


def sleep_forever(_payload):
    time.sleep(60)


class TestStopEvent:
    def test_stop_event_cancels_and_reaps(self):
        stop = threading.Event()
        timer = threading.Timer(0.3, stop.set)
        timer.start()
        started = time.monotonic()
        try:
            with pytest.raises(FarmCancelled, match="cancelled by caller"):
                run_tasks(sleep_forever, [None, None], jobs=2,
                          stop_event=stop)
        finally:
            timer.cancel()
        assert time.monotonic() - started < 30

    def test_pre_set_stop_event_cancels_immediately(self):
        stop = threading.Event()
        stop.set()
        with pytest.raises(FarmCancelled):
            run_tasks(sleep_forever, [None], jobs=2, stop_event=stop)

    def test_in_process_pool_stops_between_tasks(self):
        # jobs=1 runs in-process: a stop set by one task (as the
        # runner's signal latch would) cancels before the next starts.
        stop = threading.Event()
        ran = []

        def task(payload):
            ran.append(payload)
            stop.set()

        with pytest.raises(FarmCancelled, match="cancelled by caller"):
            run_tasks(task, [1, 2], jobs=1, stop_event=stop)
        assert ran == [1]


_POOL_SCRIPT = """
import os, sys, time
from repro.farm.pool import run_tasks

def napper(pid_path):
    with open(pid_path, "w") as handle:
        handle.write(str(os.getpid()))
    time.sleep(60)

paths = sys.argv[1:]
print("READY", flush=True)
run_tasks(napper, paths, jobs=len(paths))
print("UNREACHABLE", flush=True)
"""


def _pid_dead(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return True
    except PermissionError:
        return False
    # PID 1..: alive, or a zombie we can still signal.  Reaped children
    # of the *dead* parent are re-parented and collected by init, so a
    # brief grace is allowed by the caller.
    return False


class TestSignalKillsPool:
    @pytest.mark.parametrize("signum", [signal.SIGTERM, signal.SIGINT])
    def test_signal_terminates_parent_and_reaps_children(self, tmp_path,
                                                         signum):
        pid_paths = [tmp_path / "worker-0.pid", tmp_path / "worker-1.pid"]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, ["src", env.get("PYTHONPATH")]))
        proc = subprocess.Popen(
            [sys.executable, "-c", _POOL_SCRIPT] + [str(p) for p in pid_paths],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
            env=env, text=True)
        try:
            assert proc.stdout.readline().strip() == "READY"
            deadline = time.monotonic() + 20
            while time.monotonic() < deadline:
                if all(p.exists() and p.read_text() for p in pid_paths):
                    break
                time.sleep(0.05)
            child_pids = [int(p.read_text()) for p in pid_paths]

            proc.send_signal(signum)
            stdout, _ = proc.communicate(timeout=30)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()

        # The pool reaps its children, then the latched signal is
        # re-delivered with its default disposition: death by signal.
        assert proc.returncode == -signum
        assert "UNREACHABLE" not in stdout
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline:
            if all(_pid_dead(pid) for pid in child_pids):
                break
            time.sleep(0.05)
        alive = [pid for pid in child_pids if not _pid_dead(pid)]
        assert not alive, f"orphaned worker pids: {alive}"


class TestSignalDrain:
    def test_latch_and_consume(self):
        with SignalDrain(reraise=False) as latch:
            assert not latch.triggered
            signal.raise_signal(signal.SIGTERM)
            assert latch.triggered
            assert latch.signum == signal.SIGTERM
            latch.consume()
        # consume() swallowed it: reaching here alive is the assertion.

    def test_handlers_restored_on_exit(self):
        before = [signal.getsignal(s) for s in DRAIN_SIGNALS]
        with SignalDrain(reraise=False) as latch:
            latch.consume()
        after = [signal.getsignal(s) for s in DRAIN_SIGNALS]
        assert before == after

    def test_on_signal_callback_fires(self):
        seen = []
        with SignalDrain(on_signal=seen.append, reraise=False) as latch:
            signal.raise_signal(signal.SIGTERM)
            latch.consume()
        assert seen == [signal.SIGTERM]

    def test_nested_pool_under_latch_still_cancels(self):
        # An outer latch (the server's) plus the pool's own SignalDrain:
        # a signal mid-run must still cancel the pool.
        with SignalDrain(reraise=False) as outer:
            timer = threading.Timer(
                0.3, signal.raise_signal, args=(signal.SIGTERM,))
            timer.start()
            started = time.monotonic()
            try:
                with pytest.raises(FarmCancelled,
                                   match="interrupted by signal"):
                    run_tasks(sleep_forever, [None, None], jobs=2)
            finally:
                timer.cancel()
            assert time.monotonic() - started < 30
            outer.consume()
