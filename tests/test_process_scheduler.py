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
    """A process that prepares its batches for 4-word L1-I lines, as a
    :class:`Scheduler` over such a machine would have it do."""
    process = Process(pid=pid, name=f"p{pid}", source=BatchSource(batches),
                      page_table=table or PageTable())
    process.il_shift = 2
    return process


class TestPreparedBatch:
    def test_translation_preserves_offsets(self):
        # One-word L1-I lines: each line is its physical pc.
        table = PageTable()
        batch = make_batch(pcs=[5, 4096 + 7], kinds=[1, 2], addrs=[9, 11])
        prepared = PreparedBatch.from_batch(batch, pid=3, page_table=table,
                                            il_shift=0)
        assert prepared.lines[0] % 4096 == 5
        assert prepared.lines[1] % 4096 == 7
        assert prepared.addrs[0] % 4096 == 9
        assert len(prepared) == 2

    def test_columns_are_numpy(self):
        # The pulled batch holds only its events (every record but the
        # last, which continues pc 9's line): int32 positions, L1-I lines
        # and addresses, and uint8 codes (kind | partial << 2), 13 bytes
        # an event, and int32 system-call positions.
        process = make_process(1, [make_batch(
            pcs=[1, 2, 3, 9, 10], kinds=[0, 1, 2, 0, 0],
            addrs=[0, 5, 6, 0, 0], partial=[False, False, True, False,
                                            False],
            syscall=[False, True, False, False, False])])
        batch, _ = process.current()
        assert len(batch) == 5
        columns = (batch.positions, batch.lines, batch.codes, batch.addrs)
        assert all(isinstance(column, np.ndarray)
                   and column.flags.c_contiguous and len(column) == 4
                   for column in columns)
        assert [column.dtype for column in columns] == [
            np.int32, np.int32, np.uint8, np.int32]
        assert sum(column.nbytes for column in columns) == 13 * 4
        assert batch.positions.tolist() == [0, 1, 2, 3]
        assert batch.codes.tolist() == [0, 1, 6, 0]
        assert batch.syscalls.dtype == np.int32
        assert batch.syscalls.tolist() == [1]
        # Nothing else it holds is an array.
        arrays = [name for name in PreparedBatch.__slots__
                  if isinstance(getattr(batch, name), np.ndarray)]
        assert sorted(arrays) == sorted(
            ("positions", "lines", "codes", "addrs", "syscalls"))
        memsys = MemorySystem(tiny_config())
        assert memsys.run_slice(batch, 0, 1 << 40).consumed == 2

    def test_batched_call_converts_no_full_batch(self):
        # A batch of an odd length that nothing else in the process has.
        source = SyntheticBenchmark(default_suite()[0], batch_size=5003)
        batch, pos = make_process(1, [source.next_batch()]).current()
        n = len(batch)
        assert n == 5003
        memsys = MemorySystem(base_architecture(), engine="batched")
        assert batch.il_shift == memsys._il_shift
        memsys.run_slice(batch, pos, memsys.now + 4000)
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
        process.il_shift = 2
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

    def test_processes_prepare_batches_for_the_machine(self):
        # A process prepares its batches for its machine's L1-I line
        # size, which the scheduler hands it; without one it pulls none.
        source = BatchSource([make_batch(pcs=list(range(40)))])
        process = Process(pid=1, name="p1", source=source,
                          page_table=PageTable())
        with pytest.raises(SchedulingError, match="no machine"):
            process.current()
        memsys = MemorySystem(tiny_config(l1_line=8))
        Scheduler(memsys, [process]).run()
        assert process.il_shift == memsys._il_shift == 3
        assert memsys.stats.instructions == 40
        assert memsys.stats.l1i_misses == 5

    def test_exhausted_batch_released_before_the_next_is_prepared(self):
        def prepared_batches() -> int:
            gc.collect()
            return sum(isinstance(obj, PreparedBatch)
                       for obj in gc.get_objects())

        class Source(BatchSource):
            def next_batch(self):
                live.append(prepared_batches())
                return super().next_batch()

        live = []
        batches = [make_batch(pcs=list(range(i, i + 30)))
                   for i in range(0, 120, 30)]
        process = Process(pid=1, name="p1", source=Source(batches),
                          page_table=PageTable())
        scheduler = Scheduler(MemorySystem(tiny_config()), [process],
                              time_slice=10**6)
        before = prepared_batches()
        scheduler.run()
        assert live == [before] * 5

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
