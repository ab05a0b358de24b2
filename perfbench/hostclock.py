"""Host-speed probe: wall time rescaled to a reference host speed.

The benchmark's hosts are shared.  On the 2-vCPU host the figures in
README.md come from, the same pure-Python loop runs up to 1.6x slower
from one second to the next while the process keeps its CPU (thread CPU
time stays at 98-99% of wall time): other tenants slow the core itself,
in stretches of a fraction of a second to tens of seconds, and each core
on its own.  Throughput in plain wall seconds therefore spread by 10-46%
of the median over sets of ten runs of the same code.

The probe measures that speed while the program runs.  A timer signal
every ``PERIOD_S`` runs a short, fixed burst of interpreter work and
records its thread CPU time.  Each stretch of wall time between two
bursts is then rescaled by ``REFERENCE_BURST_S / burst``, where the
burst is the median of the five nearest bursts.  The result is the time
the same work would have taken on a reference host, on which one burst
takes ``REFERENCE_BURST_S`` of CPU time.  The bursts' own wall time is
taken out of both figures; they cost about 1.5% of the run.

The rescaling holds as far as the program slows down in proportion to
the burst.  Over the runs behind README.md, each workload's median
rescaled throughput differed by at most 1.3% between runs whose bursts
took under 260 us and runs whose bursts took over 310 us; in wall time
the gap was 21-37%.  Contention that the burst does not feel still
shows: in one later stretch ``short_slice`` read up to 7% lower.
"""

from __future__ import annotations

import os
import signal
import statistics
import time
from pathlib import Path
from typing import Iterable, List, Optional, Tuple

#: Seconds between bursts.
PERIOD_S = 0.02
#: Iterations of the burst loop: about 0.2-0.35 ms on the host above.
BURST_ITERATIONS = 1500
#: CPU seconds one burst takes on the reference host.
REFERENCE_BURST_S = 300e-6
#: Bursts (either side included) whose median gives the speed at a point.
SMOOTHING = 5


def burst(iterations: int = BURST_ITERATIONS) -> int:
    """The fixed calibration work: small-dict and integer operations."""
    table = {}
    acc = 0
    for i in range(iterations):
        key = i & 255
        acc += table.get(key, 0) ^ i
        table[key] = acc & 0xFFFF
    return acc


class Probe:
    """Samples host speed on ``SIGALRM`` between :meth:`start` and
    :meth:`stop`; :meth:`rescale` converts a window of wall time."""

    def __init__(self, log: Optional[int] = None) -> None:
        #: ``time.monotonic()`` at the start of each burst.
        self.starts: List[float] = []
        #: Wall seconds each burst took.
        self.walls: List[float] = []
        #: Thread CPU seconds each burst took.
        self.cpus: List[float] = []
        #: File descriptor that each burst is also appended to, as a line
        #: ``start wall cpu``, for a process that exits without reporting.
        self._log = log
        self._previous = None
        self._running = False

    def _tick(self, signum, frame) -> None:
        wall = time.monotonic()
        cpu = time.thread_time()
        burst()
        self.cpus.append(time.thread_time() - cpu)
        self.starts.append(wall)
        self.walls.append(time.monotonic() - wall)
        if self._log is not None:
            os.write(self._log, f"{wall!r} {self.walls[-1]!r} "
                                f"{self.cpus[-1]!r}\n".encode())

    @classmethod
    def from_logs(cls, paths: Iterable[Path]) -> "Probe":
        """The bursts logged by the probes of other processes, merged in
        time order.  They ran beside the window to be rescaled, not in
        it, so their wall time is not taken out of it."""
        records = sorted(tuple(map(float, line.split()))
                         for path in paths
                         for line in Path(path).read_text().splitlines()
                         if len(line.split()) == 3)
        probe = cls()
        probe.starts = [start for start, _, _ in records]
        probe.walls = [0.0] * len(records)
        probe.cpus = [cpu for _, _, cpu in records]
        return probe

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        self._running = True

    def stop(self) -> None:
        if self._running:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)
            self._running = False

    def _burst_seconds(self) -> List[float]:
        """Each burst's CPU time, smoothed over its neighbours."""
        half = SMOOTHING // 2
        cpus = self.cpus
        return [statistics.median(cpus[max(0, k - half):k + half + 1])
                for k in range(len(cpus))]

    def rescale(self, begin: float, end: float) -> Tuple[float, float]:
        """``(wall, reference)`` seconds of the monotonic-clock window
        ``[begin, end]``: the wall time the bursts left to the program,
        and the same rescaled to the reference host.  A stretch takes the
        speed of the burst that ends it; time before the first burst
        (process start) and after the last one takes the nearest."""
        if not self.starts:
            raise RuntimeError("the host-speed probe took no sample")
        speed = self._burst_seconds()
        wall = reference = 0.0
        edge = begin
        last = 0
        for k, (start, took) in enumerate(zip(self.starts, self.walls)):
            if start >= end:
                break
            last = k
            if start > edge:
                wall += start - edge
                reference += (start - edge) * REFERENCE_BURST_S / speed[k]
            edge = max(edge, start + took)
        if end > edge:
            wall += end - edge
            reference += (end - edge) * REFERENCE_BURST_S / speed[last]
        return wall, reference

    def median_burst(self, begin: float, end: float) -> float:
        """Median CPU seconds of the bursts that started in the window."""
        inside = [cpu for start, cpu in zip(self.starts, self.cpus)
                  if begin <= start < end]
        return statistics.median(inside) if inside else float("nan")
