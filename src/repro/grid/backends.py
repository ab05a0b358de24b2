"""Local backend pool: real ``repro-serve`` processes for grid testing.

The grid's unit tests fake their clients; its chaos storm
(:func:`repro.chaos.grid_storm`) and benchmarks need the real thing —
separate *processes* that can be SIGKILLed, SIGSTOPped, and have their
cache directories vandalized without taking the orchestrator down with
them.  :class:`BackendPool` launches N ``python -m repro.serve start
--port 0`` children, waits for each to report its bound port through
``--port-file``, and exposes the fault injection surface the storm
drives:

* :meth:`BackendPool.kill` — SIGKILL, the hard crash;
* :meth:`BackendPool.stall` — SIGSTOP (resumable via :meth:`resume`),
  the straggler/partition stand-in: the TCP socket stays open but
  nothing answers, so an attempt in flight ends only at the dispatcher's
  request timeout and the point moves to another node;
* each backend gets a private cache directory (``backend.cache_dir``)
  so a saboteur can corrupt one node's cache without touching the rest.

Everything is cleaned up — children terminated, SIGCONT sent first so a
stopped child can die, temp dirs removed — by :meth:`BackendPool.close`
or the context manager.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import List, Optional

from repro.errors import GridError


def _src_root() -> str:
    """The directory ``import repro`` resolved from, for child
    PYTHONPATH — works from a checkout without installation."""
    import repro

    return str(Path(repro.__file__).resolve().parent.parent)


class Backend:
    """One launched serve process."""

    def __init__(self, process: subprocess.Popen, port: int,
                 cache_dir: Path, log_path: Path):
        self.process = process
        self.port = port
        self.cache_dir = cache_dir
        self.log_path = log_path
        self.stalled = False

    @property
    def url(self) -> str:
        return f"http://127.0.0.1:{self.port}"

    @property
    def pid(self) -> int:
        return self.process.pid

    def alive(self) -> bool:
        return self.process.poll() is None


class BackendPool:
    """Launch and torture a pool of real serve subprocesses.

    Args:
        count: backends to launch.
        root: directory for caches/logs/port files (a temp dir is
            created and owned if omitted).
        queue_depth / workers / isolation / deadline_s: forwarded to
            each ``repro-serve start``.
        startup_timeout_s: per-backend wait for the port file.
    """

    def __init__(self, count: int, root: Optional[Path] = None,
                 queue_depth: int = 8, workers: int = 2,
                 isolation: str = "auto", deadline_s: float = 60.0,
                 no_cache: bool = False,
                 startup_timeout_s: float = 30.0):
        if count < 1:
            raise GridError("a backend pool needs at least one backend")
        self._tmp = None
        if root is None:
            self._tmp = tempfile.TemporaryDirectory(prefix="repro-grid-")
            root = Path(self._tmp.name)
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.backends: List[Backend] = []
        try:
            for i in range(count):
                self.backends.append(self._launch(
                    i, queue_depth=queue_depth, workers=workers,
                    isolation=isolation, deadline_s=deadline_s,
                    no_cache=no_cache,
                    startup_timeout_s=startup_timeout_s))
        except Exception:
            self.close()
            raise

    # --------------------------------------------------------------- launch

    def _launch(self, index: int, queue_depth: int, workers: int,
                isolation: str, deadline_s: float, no_cache: bool,
                startup_timeout_s: float) -> Backend:
        cache_dir = self.root / f"cache-{index}"
        port_file = self.root / f"port-{index}"
        log_path = self.root / f"backend-{index}.log"
        port_file.unlink(missing_ok=True)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (_src_root(), env.get("PYTHONPATH")) if p)
        command = [sys.executable, "-m", "repro.serve", "start",
                   "--port", "0", "--port-file", str(port_file),
                   "--queue-depth", str(queue_depth),
                   "--workers", str(workers),
                   "--isolation", isolation,
                   "--max-deadline", str(max(deadline_s, 120.0))]
        if no_cache:
            command.append("--no-cache")
        else:
            command.extend(["--cache-dir", str(cache_dir)])
        log = open(log_path, "w", encoding="utf-8")
        try:
            process = subprocess.Popen(
                command, stdout=log, stderr=log, env=env,
                start_new_session=True)
        finally:
            log.close()
        deadline = time.monotonic() + startup_timeout_s
        while time.monotonic() < deadline:
            if process.poll() is not None:
                raise GridError(
                    f"backend {index} exited with {process.returncode} "
                    f"during startup (log: {log_path})")
            try:
                text = port_file.read_text(encoding="utf-8").strip()
            except OSError:
                text = ""
            if text:
                return Backend(process, int(text), cache_dir, log_path)
            time.sleep(0.05)
        process.kill()
        raise GridError(
            f"backend {index} did not report a port within "
            f"{startup_timeout_s:g}s (log: {log_path})")

    # ---------------------------------------------------------------- faults

    def kill(self, index: int) -> None:
        """SIGKILL one backend — the node-crash fault."""
        backend = self.backends[index]
        if backend.alive():
            backend.process.kill()
            backend.process.wait(timeout=10.0)

    def stall(self, index: int) -> None:
        """SIGSTOP one backend — socket open, nobody home."""
        backend = self.backends[index]
        if backend.alive():
            os.kill(backend.pid, signal.SIGSTOP)
            backend.stalled = True

    def resume(self, index: int) -> None:
        """SIGCONT a stalled backend."""
        backend = self.backends[index]
        if backend.alive():
            os.kill(backend.pid, signal.SIGCONT)
        backend.stalled = False

    # --------------------------------------------------------------- plumbing

    @property
    def urls(self) -> List[str]:
        return [backend.url for backend in self.backends]

    def close(self) -> None:
        """SIGCONT + terminate + reap every child; remove owned temp
        state."""
        for backend in self.backends:
            if backend.process.poll() is None:
                try:
                    os.kill(backend.pid, signal.SIGCONT)
                except OSError:
                    pass
                backend.process.terminate()
        for backend in self.backends:
            try:
                backend.process.wait(timeout=10.0)
            except subprocess.TimeoutExpired:
                backend.process.kill()
                backend.process.wait(timeout=10.0)
        if self._tmp is not None:
            self._tmp.cleanup()
            self._tmp = None

    def __enter__(self) -> "BackendPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
