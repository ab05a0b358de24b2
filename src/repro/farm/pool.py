"""Worker pool: fan picklable tasks across forked processes.

The paper farmed its sweep out as "a separate simulator binary per
configuration"; this is the same move in-process.  ``run_tasks(fn,
payloads)`` executes ``fn(payload)`` for every payload and returns the
results **in payload order**, regardless of completion order — callers can
rely on determinism.

Execution model:

* one forked process per task, at most ``jobs`` alive at a time (a task is
  a whole simulation, seconds of work — per-task process cost is noise);
* each child reports ``("ok", result)`` or ``("error", message)`` over a
  pipe;
* a child that *dies without reporting* (segfault, OOM-kill, ``os._exit``)
  is retried up to ``retries`` times, then raises
  :class:`~repro.errors.FarmError` — crashes are plausibly transient;
* a child that exceeds ``timeout`` seconds is terminated and retried under
  the same budget;
* a task function that *raises* fails fast with no retry — a deterministic
  exception would just raise again.

Liveness (the durable layer's watchdog channel): when ``heartbeat_s`` is
set, each child runs a daemon thread that sends ``("hb", t)`` over the
same result pipe every beat.  When ``lease_s`` is also set, the parent
declares a worker **stuck** — as opposed to merely *slow* — when its
lease elapses with no heartbeat (a sleeping worker still beats; a
SIGSTOPped or livelocked one cannot), SIGKILLs it, and retries under the
same budget.  ``on_start``/``on_heartbeat`` let a caller (the journal
driver) witness every attempt and every proof of life.

When ``jobs <= 1`` or the platform cannot fork (Windows, some macOS
configurations), the pool degrades to plain in-process execution with
identical semantics except that timeouts and leases are not enforced
(there is no separate process to watch or kill).

Interruption is first-class:

* a caller can hand ``run_tasks`` a ``stop_event`` (any object with
  ``is_set()``); setting it terminates and reaps every outstanding worker
  and raises :class:`~repro.errors.FarmCancelled` — this is how a
  draining server abandons a request it has already answered with 504;
* when running on the main thread, SIGINT/SIGTERM are latched via
  :class:`~repro.robust.signals.SignalDrain` for the duration of the run:
  children are terminated and reaped *first*, then the signal is
  re-delivered with its original disposition — Ctrl-C or a supervisor's
  TERM never orphans live forks.
"""

from __future__ import annotations

import multiprocessing
import multiprocessing.connection
import signal
import threading
import time
from collections import deque
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError, FarmCancelled, FarmError
from repro.robust.signals import SignalDrain

#: How long one scheduling-loop wait on the children's pipes may block.
_POLL_SECONDS = 0.05

#: How long a terminated child gets to die politely before SIGKILL.
_TERM_GRACE_SECONDS = 2.0


def fork_available() -> bool:
    """Whether the platform supports the ``fork`` start method."""
    return "fork" in multiprocessing.get_all_start_methods()


def _child(conn, fn: Callable[[Any], Any], payload: Any,
           heartbeat_s: Optional[float] = None) -> None:
    # The fork inherits the parent's latched SIGINT/SIGTERM handlers
    # (SignalDrain); restore the defaults so ``terminate()`` and Ctrl-C
    # actually kill the child instead of being latched and ignored.
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.signal(signal.SIGINT, signal.SIG_DFL)
    send_lock = threading.Lock()   # beat thread and main thread share conn
    stop_beat = threading.Event()
    if heartbeat_s is not None:
        def _beat() -> None:
            while not stop_beat.wait(heartbeat_s):
                try:
                    with send_lock:
                        conn.send(("hb", time.monotonic()))
                except OSError:
                    return   # parent gone or pipe closed: nothing to prove

        threading.Thread(target=_beat, name="pool-heartbeat",
                         daemon=True).start()
    try:
        result = fn(payload)
    except BaseException as exc:  # report, don't crash: crashes mean retry
        stop_beat.set()
        try:
            with send_lock:
                conn.send(("error", f"{type(exc).__name__}: {exc}"))
        finally:
            conn.close()
        return
    stop_beat.set()
    with send_lock:
        conn.send(("ok", result))
    conn.close()


def _label(labels: Optional[Sequence[str]], index: int) -> str:
    if labels is not None and index < len(labels):
        return labels[index]
    return f"task {index}"


def _run_serial(fn, payloads, labels, on_result, on_start,
                stop_event) -> List[Any]:
    results: List[Any] = []
    for index, payload in enumerate(payloads):
        if stop_event is not None and stop_event.is_set():
            raise FarmCancelled("worker pool cancelled by caller")
        if on_start is not None:
            on_start(index)
        try:
            result = fn(payload)
        except FarmError:
            raise
        except Exception as exc:
            raise FarmError(
                f"task {_label(labels, index)!r} failed: "
                f"{type(exc).__name__}: {exc}",
                label=_label(labels, index)) from exc
        results.append(result)
        if on_result is not None:
            on_result(index, result)
    return results


def _validate_pool_params(jobs, timeout, retries, heartbeat_s, lease_s):
    if timeout is not None and not timeout > 0:
        raise ConfigurationError(
            f"timeout must be positive (or None), got {timeout!r}: a "
            "non-positive timeout kills every task before it starts")
    if retries < 0:
        raise ConfigurationError(
            f"retries must be >= 0, got {retries!r}")
    if heartbeat_s is not None and not heartbeat_s > 0:
        raise ConfigurationError(
            f"heartbeat_s must be positive (or None), got {heartbeat_s!r}")
    if lease_s is not None:
        if not lease_s > 0:
            raise ConfigurationError(
                f"lease_s must be positive (or None), got {lease_s!r}: a "
                "zero/negative lease declares every worker stuck instantly")
        if heartbeat_s is None:
            raise ConfigurationError(
                "lease_s without heartbeat_s would reap every worker at "
                "the lease deadline: enable heartbeats or drop the lease")
        if heartbeat_s > lease_s / 2:
            raise ConfigurationError(
                f"heartbeat_s ({heartbeat_s:g}) must be at most half of "
                f"lease_s ({lease_s:g}); a lease needs several beats of "
                "slack or healthy workers get reaped")


def run_tasks(fn: Callable[[Any], Any],
              payloads: Sequence[Any],
              jobs: int = 1,
              timeout: Optional[float] = None,
              retries: int = 1,
              labels: Optional[Sequence[str]] = None,
              on_result: Optional[Callable[[int, Any], None]] = None,
              stop_event: Optional[Any] = None,
              heartbeat_s: Optional[float] = None,
              lease_s: Optional[float] = None,
              on_heartbeat: Optional[Callable[[int], None]] = None,
              on_start: Optional[Callable[[int], None]] = None,
              on_retry: Optional[Callable[[int, str], None]] = None
              ) -> List[Any]:
    """Run ``fn`` over every payload; results in payload order.

    Args:
        fn: top-level callable (picklable not required under fork, but keep
            it importable for readability); receives one payload.
        payloads: task inputs; each must produce a picklable result.
        jobs: maximum concurrently running workers.
        timeout: per-task wall-clock limit in seconds (parallel mode only).
        retries: how many *re-runs* a crashed or timed-out task gets.
        labels: optional human-readable task names for errors/telemetry.
        on_result: called as ``on_result(index, result)`` as each task
            completes (completion order, not payload order).
        stop_event: optional cancellation token (``is_set()`` is polled
            every scheduling pass, and before each task in-process); when
            set, workers are terminated and
            :class:`~repro.errors.FarmCancelled` is raised.
        heartbeat_s: when set, each forked child proves liveness this
            often over the result pipe.
        lease_s: when set (requires ``heartbeat_s``), a worker whose
            lease elapses with **no** heartbeat is declared stuck,
            SIGKILLed, and retried under the same ``retries`` budget —
            distinct from ``timeout``, which bounds total runtime of
            even a healthy worker.
        on_heartbeat: called as ``on_heartbeat(index)`` on every beat
            (the durable layer renews journal leases here).
        on_start: called as ``on_start(index)`` immediately before every
            execution attempt of a task, including retries (the durable
            layer journals ``point_claimed`` here; raising aborts the
            run).
        on_retry: called as ``on_retry(index, what)`` when an attempt is
            abandoned — crashed, timed out, or lease-expired (``what``
            says which) — whether or not budget remains (the durable
            layer journals ``point_reclaimed`` here).

    Raises:
        ConfigurationError: a parameter is out of range (checked up
            front — misconfiguration must not surface hours into a run).
        FarmCancelled: ``stop_event`` was set mid-run.
        FarmError: a task raised, or crashed/timed out past its retry
            budget.  Outstanding workers are terminated before raising.
    """
    _validate_pool_params(jobs, timeout, retries, heartbeat_s, lease_s)
    if not payloads:
        return []
    if jobs <= 1 or not fork_available():
        return _run_serial(fn, payloads, labels, on_result, on_start,
                           stop_event)
    with SignalDrain() as drain:
        return _run_forked(fn, payloads, jobs, timeout, retries, labels,
                           on_result, stop_event, drain, heartbeat_s,
                           lease_s, on_heartbeat, on_start, on_retry)


def _run_forked(fn, payloads, jobs, timeout, retries, labels, on_result,
                stop_event, drain: SignalDrain, heartbeat_s, lease_s,
                on_heartbeat, on_start, on_retry) -> List[Any]:
    ctx = multiprocessing.get_context("fork")
    results: List[Any] = [None] * len(payloads)
    pending = deque(range(len(payloads)))
    attempts: Dict[int, int] = {i: 0 for i in range(len(payloads))}
    # index -> (process, receiving pipe end, absolute deadline or None)
    active: Dict[int, Tuple[Any, Any, Optional[float]]] = {}
    # index -> monotonic time of the last proof of life (start counts).
    last_beat: Dict[int, float] = {}

    def _reap(index: int) -> None:
        proc, conn, _ = active.pop(index)
        last_beat.pop(index, None)
        try:
            conn.close()
        except OSError:
            pass
        if proc.is_alive():
            # terminate() is SIGTERM, which a SIGSTOPped (stuck) child
            # never receives; escalate to SIGKILL rather than hang here.
            proc.terminate()
            proc.join(_TERM_GRACE_SECONDS)
            if proc.is_alive():
                proc.kill()
        proc.join()

    def _retry_or_fail(index: int, what: str) -> None:
        if on_retry is not None:
            on_retry(index, what)
        attempts[index] += 1
        if attempts[index] > retries:
            raise FarmError(
                f"task {_label(labels, index)!r} {what} "
                f"(attempt {attempts[index]} of {retries + 1})",
                label=_label(labels, index))
        pending.appendleft(index)

    try:
        while pending or active:
            if drain.triggered:
                # Reap everything (the ``finally`` below), then let the
                # signal take its normal course on the way out.
                raise FarmCancelled(
                    "worker pool interrupted by signal; children reaped")
            if stop_event is not None and stop_event.is_set():
                raise FarmCancelled("worker pool cancelled by caller")
            while pending and len(active) < jobs:
                index = pending.popleft()
                if on_start is not None:
                    on_start(index)
                recv, send = ctx.Pipe(duplex=False)
                proc = ctx.Process(target=_child,
                                   args=(send, fn, payloads[index],
                                         heartbeat_s),
                                   daemon=True)
                proc.start()
                send.close()  # child holds the only writer now
                deadline = (time.monotonic() + timeout
                            if timeout is not None else None)
                active[index] = (proc, recv, deadline)
                last_beat[index] = time.monotonic()

            ready = multiprocessing.connection.wait(
                [conn for _, conn, _ in active.values()],
                timeout=_POLL_SECONDS)
            now = time.monotonic()
            for index in list(active):
                proc, conn, deadline = active[index]
                if conn in ready:
                    try:
                        status, value = conn.recv()
                    except (EOFError, OSError):
                        _reap(index)
                        _retry_or_fail(index, "crashed mid-report")
                        continue
                    if status == "hb":
                        last_beat[index] = now
                        if on_heartbeat is not None:
                            on_heartbeat(index)
                        continue
                    _reap(index)
                    if status != "ok":
                        raise FarmError(
                            f"task {_label(labels, index)!r} failed: {value}",
                            label=_label(labels, index))
                    results[index] = value
                    if on_result is not None:
                        on_result(index, value)
                elif deadline is not None and now > deadline:
                    _reap(index)
                    _retry_or_fail(index, f"timed out after {timeout:g}s")
                elif (lease_s is not None
                      and now - last_beat.get(index, now) > lease_s):
                    # Expired lease with no beat: *stuck*, not slow — a
                    # slow worker would still be heartbeating.
                    _reap(index)
                    _retry_or_fail(
                        index,
                        f"went silent: lease expired after {lease_s:g}s "
                        f"with no heartbeat (worker presumed stuck)")
                elif not proc.is_alive() and not conn.poll():
                    code = proc.exitcode
                    _reap(index)
                    _retry_or_fail(index,
                                   f"crashed (exit code {code}) "
                                   f"without reporting a result")
    finally:
        for index in list(active):
            _reap(index)
    return results
