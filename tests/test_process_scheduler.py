"""Unit tests for processes and the round-robin scheduler."""

import gc

import numpy as np
import pytest

from repro.core.config import WritePolicy, base_architecture
from repro.core.hierarchy import MemorySystem
from repro.errors import SchedulingError
from repro.mmu.page_table import PageTable
from repro.sched.process import PreparedBatch, Process
from repro.sched.scheduler import Scheduler
from repro.trace.benchmarks import default_suite
from repro.trace.stream import BatchSource
from repro.trace.synthetic import SyntheticBenchmark

from conftest import make_batch, tiny_config


def make_process(pid: int, batches, table=None) -> Process:
    return Process(pid=pid, name=f"p{pid}", source=BatchSource(batches),
                   page_table=table or PageTable())


class TestPreparedBatch:
    def test_translation_preserves_offsets(self):
        table = PageTable()
        batch = make_batch(pcs=[5, 4096 + 7], kinds=[1, 2], addrs=[9, 11])
        prepared = PreparedBatch.from_batch(batch, pid=3, page_table=table)
        assert prepared.pc[0] % 4096 == 5
        assert prepared.pc[1] % 4096 == 7
        assert prepared.addr[0] % 4096 == 9
        assert len(prepared) == 2

    def test_columns_are_numpy(self):
        # Five per-instruction columns, 19 bytes a record, until the
        # first run compacts the batch to its events (every record but
        # the last, which continues pc 9's line): int32 positions, L1-I
        # lines and addresses, uint8 kinds and bool partial flags, 14
        # bytes an event, and int32 system-call positions.
        process = make_process(1, [make_batch(
            pcs=[1, 2, 3, 9, 10], kinds=[0, 1, 2, 0, 0],
            addrs=[0, 5, 6, 0, 0], syscall=[False, True, False, False,
                                            False])])
        batch, _ = process.current()
        columns = (batch.pc, batch.kind, batch.addr, batch.partial,
                   batch.syscall)
        assert all(isinstance(column, np.ndarray)
                   and column.flags.c_contiguous and len(column) == 5
                   for column in columns)
        assert [column.dtype for column in columns] == [
            np.int64, np.uint8, np.int64, np.bool_, np.bool_]
        assert sum(column.nbytes for column in columns) == 19 * 5
        memsys = MemorySystem(tiny_config())
        assert memsys.run_slice(batch, 0, 1 << 40).consumed == 2
        assert len(batch) == 5
        assert (batch.pc, batch.kind, batch.addr, batch.partial,
                batch.syscall) == (None,) * 5
        events = batch.events
        columns = (events.positions, events.lines, events.kinds,
                   events.addrs, events.partials)
        assert all(isinstance(column, np.ndarray)
                   and column.flags.c_contiguous and len(column) == 4
                   for column in columns)
        assert [column.dtype for column in columns] == [
            np.int32, np.int32, np.uint8, np.int32, np.bool_]
        assert sum(column.nbytes for column in columns) == 14 * 4
        assert events.positions.tolist() == [0, 1, 2, 3]
        assert events.syscalls.dtype == np.int32
        assert events.syscalls.tolist() == [1]

    def test_batched_call_converts_no_full_batch(self):
        # A batch of an odd length that nothing else in the process has.
        source = SyntheticBenchmark(default_suite()[0], batch_size=5003)
        batch, pos = make_process(1, [source.next_batch()]).current()
        n = len(batch)
        assert n == 5003
        memsys = MemorySystem(base_architecture(), engine="batched")
        memsys.run_slice(batch, pos, memsys.now + 4000)
        events = batch.events
        assert events.il_shift == memsys._il_shift
        assert all(isinstance(array, np.ndarray) for array in (
            events.positions, events.lines, events.kinds, events.addrs,
            events.partials, events.syscalls))
        gc.collect()
        assert not [obj for obj in gc.get_objects()
                    if isinstance(obj, list) and len(obj) == n]


class TestProcess:
    def test_current_and_advance(self):
        process = make_process(1, [make_batch(pcs=[1, 2, 3])])
        batch, pos = process.current()
        assert pos == 0 and len(batch) == 3
        process.advance(2)
        batch2, pos2 = process.current()
        assert batch2 is batch and pos2 == 2
        process.advance(1)
        assert process.current() == (None, 0)
        assert process.finished
        assert process.instructions_executed == 3

    def test_pulls_next_batch(self):
        process = make_process(1, [make_batch(pcs=[1]), make_batch(pcs=[2])])
        batch, _ = process.current()
        process.advance(1)
        batch2, pos = process.current()
        assert pos == 0 and batch2 is not batch

    def test_long_run_of_fully_dropped_batches(self):
        # Skip mode drops every record of each corrupt batch; current()
        # must pull past thousands of empty batches without recursing.
        corrupt = [make_batch(pcs=[1, 2, 3, 4], kinds=[7] * 4)
                   for _ in range(5_000)]
        process = Process(pid=1, name="p1",
                          source=BatchSource(corrupt + [make_batch(pcs=[5])]),
                          page_table=PageTable(), trace_errors="skip")
        batch, pos = process.current()
        assert (len(batch), pos) == (1, 0)
        assert process.records_skipped == 20_000
        process.advance(1)
        assert process.current() == (None, 0)

    def test_negative_advance_rejected(self):
        process = make_process(1, [make_batch(pcs=[1])])
        with pytest.raises(SchedulingError):
            process.advance(-1)

    def test_bad_pid_rejected(self):
        with pytest.raises(SchedulingError):
            make_process(9999, [])


class TestScheduler:
    def make_scheduler(self, n_procs=2, instr_per_proc=50, level=None,
                       time_slice=20, syscalls=None):
        table = PageTable()
        memsys = MemorySystem(tiny_config(WritePolicy.WRITE_BACK))
        processes = []
        for pid in range(1, n_procs + 1):
            flags = [False] * instr_per_proc
            if syscalls:
                for index in syscalls:
                    flags[index] = True
            batch = make_batch(pcs=list(range(instr_per_proc)),
                               syscall=flags)
            processes.append(Process(pid=pid, name=f"p{pid}",
                                     source=BatchSource([batch]),
                                     page_table=table))
        return Scheduler(memsys, processes, time_slice=time_slice,
                         level=level), processes

    def test_runs_everything_to_completion(self):
        scheduler, processes = self.make_scheduler()
        stats = scheduler.run()
        assert scheduler.done
        assert stats.instructions == 100
        assert all(p.finished for p in processes)

    def test_round_robin_rotates(self):
        scheduler, processes = self.make_scheduler(time_slice=5)
        first = scheduler.ready_processes[0]
        scheduler.run_one_slice()
        assert scheduler.ready_processes[0] is not first
        assert scheduler.context_switches == 1

    def test_lone_process_never_context_switches(self):
        scheduler, _ = self.make_scheduler(n_procs=1, time_slice=5)
        scheduler.run()
        assert scheduler.context_switches == 0

    def test_syscall_forces_switch(self):
        scheduler, processes = self.make_scheduler(
            time_slice=10**9, syscalls=[4])
        reason = scheduler.run_one_slice()
        assert reason == "syscall"
        # Stopped after the syscall instruction, well short of the slice.
        assert processes[0].instructions_executed == 5

    def test_admission_respects_level(self):
        scheduler, processes = self.make_scheduler(n_procs=4, level=2)
        assert len(scheduler.ready_processes) == 2
        scheduler.run()
        assert all(p.finished for p in processes)

    def test_max_instructions_budget(self):
        scheduler, _ = self.make_scheduler(instr_per_proc=1000,
                                           time_slice=50)
        scheduler.run(max_instructions=100)
        assert 100 <= scheduler.instructions_run < 200

    def test_warmup_clears_stats_once(self):
        scheduler, _ = self.make_scheduler(instr_per_proc=200,
                                           time_slice=50)
        stats = scheduler.run(warmup_instructions=100)
        assert stats.instructions < 400
        assert stats.instructions >= 200  # post-warmup portion only

    def test_empty_process_list_rejected(self):
        memsys = MemorySystem(tiny_config(WritePolicy.WRITE_BACK))
        with pytest.raises(SchedulingError):
            Scheduler(memsys, [], time_slice=10)

    def test_bad_time_slice_rejected(self):
        scheduler, _ = self.make_scheduler()
        memsys = MemorySystem(tiny_config(WritePolicy.WRITE_BACK))
        with pytest.raises(SchedulingError):
            Scheduler(memsys, scheduler.ready_processes, time_slice=0)

    def test_run_one_slice_when_done_raises(self):
        scheduler, _ = self.make_scheduler()
        scheduler.run()
        with pytest.raises(SchedulingError):
            scheduler.run_one_slice()


class TestPerProcessTracking:
    def make_tracking_scheduler(self, instr_per_proc=60, time_slice=25):
        table = PageTable()
        memsys = MemorySystem(tiny_config(WritePolicy.WRITE_BACK))
        processes = []
        for pid in (1, 2):
            batch = make_batch(pcs=list(range(pid * 1000,
                                              pid * 1000 + instr_per_proc)))
            processes.append(Process(pid=pid, name=f"p{pid}",
                                     source=BatchSource([batch]),
                                     page_table=table))
        return Scheduler(memsys, processes, time_slice=time_slice,
                         track_per_process=True)

    def test_attribution_covers_everything(self):
        scheduler = self.make_tracking_scheduler()
        total = scheduler.run()
        attributed = sum(s.instructions
                         for s in scheduler.process_stats.values())
        assert attributed == total.instructions == 120

    def test_per_process_stall_attribution(self):
        scheduler = self.make_tracking_scheduler()
        scheduler.run()
        for stats in scheduler.process_stats.values():
            assert stats.instructions == 60
            assert stats.l1i_misses > 0
            assert stats.memory_stall_cycles >= 0

    def test_warmup_resets_per_process_stats(self):
        scheduler = self.make_tracking_scheduler(instr_per_proc=100,
                                                 time_slice=25)
        total = scheduler.run(warmup_instructions=100)
        attributed = sum(s.instructions
                         for s in scheduler.process_stats.values())
        assert attributed == total.instructions < 200

    def test_tracking_off_by_default(self):
        scheduler, _ = TestScheduler().make_scheduler()
        scheduler.run()
        assert all(s.instructions == 0
                   for s in scheduler.process_stats.values())
