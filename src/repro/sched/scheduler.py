"""Round-robin multiprogramming scheduler (paper, Section 3).

The paper's workload model: a configurable number of processes run
concurrently (the multiprogramming level); a context switch is scheduled when
a process executes a voluntary system call or when its time slice (500,000
cycles by default) elapses; the next process is picked round-robin; when a
benchmark terminates, the next benchmark in order is started; the run ends
when every benchmark has terminated.

Caches and TLBs are PID-tagged, so nothing is flushed on a switch — the cache
interference between processes arises purely from capacity and conflict.

Robustness hooks (see :mod:`repro.robust`): an optional *auditor* observes
every executed slice and periodically asserts state invariants, and
:meth:`Scheduler.run` accepts an ``on_slice`` callback used by the
checkpointing driver to snapshot the run at slice boundaries.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, List, Optional, Sequence

from repro.core.hierarchy import (
    REASON_END,
    REASON_SLICE,
    REASON_SYSCALL,
    MemorySystem,
)
from repro.core.stats import SimStats  # noqa: F401 (used for attribution)
from repro.errors import SchedulingError
from repro.obs import runtime as _obs
from repro.params import DEFAULT_TIME_SLICE
from repro.sched.process import Process


class Scheduler:
    """Drives a :class:`MemorySystem` with a multiprogrammed workload.

    Args:
        memsys: the memory system under test.
        processes: benchmarks, in admission order.
        time_slice: cycles per slice before a forced context switch.
        level: multiprogramming level — how many processes are runnable at
            once.  Defaults to all of them.
        auditor: optional runtime invariant auditor
            (:class:`repro.robust.audit.InvariantAuditor`).
    """

    def __init__(self, memsys: MemorySystem, processes: Sequence[Process],
                 time_slice: int = DEFAULT_TIME_SLICE,
                 level: Optional[int] = None,
                 track_per_process: bool = False,
                 auditor=None):
        if time_slice <= 0:
            raise SchedulingError("time slice must be positive")
        if not processes:
            raise SchedulingError("at least one process is required")
        if level is not None and level <= 0:
            raise SchedulingError("multiprogramming level must be positive")
        self.memsys = memsys
        for process in processes:
            # Each process prepares its batches for this machine.
            process.il_shift = memsys._il_shift
        self.time_slice = time_slice
        self.level = level or len(processes)
        self._all_processes: List[Process] = list(processes)
        self._pending: Deque[Process] = deque(processes)
        self._ready: Deque[Process] = deque()
        self.context_switches = 0
        self.instructions_run = 0
        self.slices_run = 0
        self.auditor = auditor
        #: Statistics cleared once the warmup budget passes (run() drives it;
        #: persisted across checkpoint/resume so resumed runs never re-clear).
        self._warmed = False
        self._skipped_synced = 0
        #: Per-process activity attribution (slice-granular snapshots of the
        #: shared statistics); enabled by ``track_per_process``.
        self.track_per_process = track_per_process
        self.process_stats: dict = {p.name: SimStats() for p in processes}
        self._admit()

    def _admit(self) -> None:
        while self._pending and len(self._ready) < self.level:
            self._ready.append(self._pending.popleft())

    @property
    def done(self) -> bool:
        """True once every process has terminated."""
        return not self._ready and not self._pending

    def _sync_skipped(self) -> None:
        """Fold newly dropped trace records into the shared statistics."""
        total = sum(p.records_skipped for p in self._all_processes)
        delta = total - self._skipped_synced
        if delta:
            self.memsys.stats.trace_records_skipped += delta
            self._skipped_synced = total

    def run_one_slice(self) -> str:
        """Run the process at the head of the ready queue for one slice.

        Returns the reason the slice ended (``syscall``, ``slice``, or
        ``terminated``).
        """
        if self.done:
            raise SchedulingError("no runnable processes")
        memsys = self.memsys
        auditor = self.auditor
        process = self._ready[0]
        deadline = memsys.now + self.time_slice
        snapshot = memsys.stats.copy() if self.track_per_process else None
        reason = REASON_END
        while True:
            batch, pos = process.current()
            if batch is None:
                reason = "terminated"
                break
            result = memsys.run_slice(batch, pos, deadline)
            process.advance(result.consumed)
            self.instructions_run += result.consumed
            if auditor is not None:
                auditor.observe(batch, pos, result.consumed)
            if result.reason != REASON_END:
                reason = result.reason
                break
            # Batch exhausted mid-slice: continue with the next batch,
            # released before it is prepared.
            batch = None
        self._sync_skipped()
        if snapshot is not None:
            self.process_stats[process.name].add(
                memsys.stats.diff(snapshot))
        self._ready.popleft()
        if reason == "terminated":
            self._admit()
        else:
            self._ready.append(process)
        # A context switch means another process takes the CPU next; a
        # lone process rotating back to itself does not count.
        if self._ready and self._ready[0] is not process:
            self.context_switches += 1
            self.memsys.stats.context_switches += 1
            if _obs.enabled:
                _obs.tracer.emit("ctx_switch", cyc=memsys.now,
                                 out=process.name,
                                 into=self._ready[0].name, cause=reason)
        self.slices_run += 1
        if auditor is not None:
            auditor.end_slice()
        if _obs.enabled and _obs.sampler is not None:
            _obs.sampler.tick(memsys)
        return reason

    def run(self, max_instructions: Optional[int] = None,
            warmup_instructions: int = 0,
            on_slice: Optional[Callable[["Scheduler"], None]] = None
            ) -> SimStats:
        """Run until every benchmark terminates (or a budget is hit).

        Args:
            max_instructions: optional global instruction budget.
            warmup_instructions: statistics are cleared (caches kept warm)
                after this many instructions, to exclude cold-start effects
                from short reproduction runs.
            on_slice: called after every slice (checkpoint driver hook).

        Returns:
            the memory system's statistics object.
        """
        if warmup_instructions <= 0:
            self._warmed = True
        while not self.done:
            self.run_one_slice()
            if (not self._warmed
                    and self.instructions_run >= warmup_instructions):
                self.memsys.clear_stats()
                if self.track_per_process:
                    self.process_stats = {name: SimStats()
                                          for name in self.process_stats}
                self._warmed = True
            if on_slice is not None:
                on_slice(self)
            if (max_instructions is not None
                    and self.instructions_run >= max_instructions):
                break
        return self.memsys.stats

    @property
    def ready_processes(self) -> List[Process]:
        """The runnable processes, head of queue first."""
        return list(self._ready)

    # ------------------------------------------------------------- robustness

    def state_dict(self) -> dict:
        """Snapshot of queues (by pid), counters, and per-process stats."""
        return {
            "ready": [p.pid for p in self._ready],
            "pending": [p.pid for p in self._pending],
            "context_switches": self.context_switches,
            "instructions_run": self.instructions_run,
            "slices_run": self.slices_run,
            "warmed": self._warmed,
            "skipped_synced": self._skipped_synced,
            "process_stats": {name: stats.to_dict()
                              for name, stats in self.process_stats.items()},
            "processes": [p.state_dict() for p in self._all_processes],
        }

    def load_state(self, state: dict) -> None:
        """Restore a :meth:`state_dict` snapshot.

        The shared page table must be restored before this is called (the
        process snapshots replay their in-flight batches through it).
        """
        from repro.errors import CheckpointError

        try:
            by_pid = {p.pid: p for p in self._all_processes}
            for process_state in state["processes"]:
                pid = int(process_state["pid"])
                if pid not in by_pid:
                    raise CheckpointError(
                        f"snapshot references unknown pid {pid}")
                by_pid[pid].load_state(process_state)
            for name, queue in (("ready", None), ("pending", None)):
                for pid in state[name]:
                    if int(pid) not in by_pid:
                        raise CheckpointError(
                            f"snapshot {name} queue references unknown "
                            f"pid {pid}")
            self._ready = deque(by_pid[int(pid)] for pid in state["ready"])
            self._pending = deque(by_pid[int(pid)]
                                  for pid in state["pending"])
            self.context_switches = int(state["context_switches"])
            self.instructions_run = int(state["instructions_run"])
            self.slices_run = int(state["slices_run"])
            self._warmed = bool(state["warmed"])
            self._skipped_synced = int(state["skipped_synced"])
            process_stats = state["process_stats"]
            unknown = set(process_stats) - set(self.process_stats)
            if unknown:
                raise CheckpointError(
                    f"snapshot stats for unknown process(es): "
                    f"{', '.join(sorted(unknown))}")
            self.process_stats = {name: SimStats.from_dict(stats)
                                  for name, stats in process_stats.items()}
        except (KeyError, TypeError, ValueError) as exc:
            raise CheckpointError(
                f"malformed scheduler snapshot: {exc}") from exc
