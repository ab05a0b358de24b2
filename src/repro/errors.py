"""Exception types raised by the repro library, and the shared CLI
error policy (:func:`cli_errors`) that turns them into one-line
diagnostics instead of tracebacks."""

from __future__ import annotations

import functools
import os
import sys


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class ConfigurationError(ReproError):
    """A simulator or cache configuration is internally inconsistent."""


class TraceError(ReproError):
    """A trace file or trace stream is malformed."""


class SchedulingError(ReproError):
    """The multiprogramming scheduler was driven into an invalid state."""


class StateCorruptionError(ReproError):
    """Simulator state violates a structural invariant (bit flips, dropped
    entries, or a divergence from the functional reference model).

    Raised by the runtime invariant auditor (:mod:`repro.robust.audit`) and
    by the ``check_invariants`` methods of the core state holders.  Carries
    an optional ``details`` dict naming the structure and location."""

    def __init__(self, message: str, details: dict = None):
        super().__init__(message)
        self.details = details or {}


class CheckpointError(ReproError):
    """A checkpoint file is missing, corrupt, or inconsistent with the run
    being resumed (bad magic, version, checksum, or shape mismatch)."""


class FarmError(ReproError):
    """The sweep-execution farm could not complete a task: a worker crashed
    more times than the retry budget allows, exceeded its timeout, or the
    task function itself raised.  Carries the task's label."""

    def __init__(self, message: str, label: str = ""):
        super().__init__(message)
        self.label = label


class FarmCancelled(FarmError):
    """A farm run was cancelled mid-flight (a caller set the pool's stop
    event, e.g. a draining server abandoning a request whose deadline has
    already been answered).  Outstanding workers were terminated and reaped
    before this was raised."""


class GridError(ReproError):
    """The distributed dispatcher could not complete a sweep: every
    backend was lost *and* local fallback was disabled, or a point
    exhausted its cross-node retry budget.  Carries the point's label."""

    def __init__(self, message: str, label: str = ""):
        super().__init__(message)
        self.label = label


class JournalError(ReproError):
    """A run journal is unusable: corrupt mid-file record, wrong magic or
    version, a sequence gap, or a journal that describes a different sweep
    than the one being resumed.  A *torn final record* (the crash landed
    mid-append) is **not** an error — replay drops it, because the write
    protocol guarantees the transition it described never took effect."""


class ObsError(ReproError):
    """The observability layer was misused (metric type/label mismatch,
    malformed snapshot merge, or an unreadable event log)."""


class ServeError(ReproError):
    """The simulation service could not satisfy a request: the server
    rejected it, the client's retries gave up, or its total deadline
    budget ran out.  Carries the last HTTP status seen
    (0 when the failure never reached the server)."""

    def __init__(self, message: str, status: int = 0):
        super().__init__(message)
        self.status = status


#: Error classes a command-line tool reports as a one-line message with a
#: non-zero exit code; anything else is a genuine bug and may traceback.
EXPECTED_CLI_ERRORS = (ReproError,)


def cli_errors(fn):
    """Decorate a CLI ``main(argv) -> int`` with the shared error policy.

    Expected failures (:data:`EXPECTED_CLI_ERRORS`) print one
    ``error: ...`` line on stderr and exit 1; ``Ctrl-C`` exits 130 with a
    one-line note.  Unexpected exceptions propagate — a traceback for a
    genuine bug is a feature.
    """

    @functools.wraps(fn)
    def wrapper(argv=None) -> int:
        try:
            return fn(argv)
        except EXPECTED_CLI_ERRORS as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        except KeyboardInterrupt:
            print("interrupted", file=sys.stderr)
            return 130
        except BrokenPipeError:
            # Piped into `head` (or any reader that quit): die quietly
            # like a well-behaved filter, 128 + SIGPIPE.  Redirect stdout
            # to devnull so the interpreter's exit-time flush of the
            # closed pipe doesn't raise a second time.
            try:
                devnull = os.open(os.devnull, os.O_WRONLY)
                try:
                    os.dup2(devnull, sys.stdout.fileno())
                finally:
                    os.close(devnull)
            except (OSError, ValueError):
                pass
            return 141

    return wrapper
