"""Unit/integration tests for din-file replay and system-call files."""

import numpy as np
import pytest

from repro.core.config import WritePolicy
from repro.core.hierarchy import MemorySystem
from repro.errors import TraceError
from repro.mmu.page_table import PageTable
from repro.sched.process import Process
from repro.sched.scheduler import Scheduler
from repro.trace.record import KIND_LOAD, KIND_NONE, KIND_STORE
from repro.trace.replay import DinTraceSource, load_syscall_file
from repro.trace.tracefile import export_din
from repro.trace.benchmarks import default_suite
from repro.trace.synthetic import SyntheticBenchmark

from conftest import make_batch, tiny_config


class TestSyscallFile:
    def test_parses_hex_byte_addresses(self):
        pcs = load_syscall_file(["# comment", "", "10", "ff4"])
        assert pcs == frozenset({4, 1021})

    def test_file_path(self, tmp_path):
        path = tmp_path / "calls.sys"
        path.write_text("4\n8\n")
        assert load_syscall_file(path) == frozenset({1, 2})

    def test_rejects_garbage(self):
        with pytest.raises(TraceError):
            load_syscall_file(["zz"])


class TestDinTraceSource:
    def write_din(self, tmp_path, batch):
        path = tmp_path / "trace.din"
        export_din(path, batch)
        return path

    def test_roundtrip_matches_original(self, tmp_path):
        original = make_batch(
            pcs=[1, 2, 3, 4],
            kinds=[KIND_LOAD, KIND_NONE, KIND_STORE, KIND_NONE],
            addrs=[10, 0, 20, 0],
        )
        source = DinTraceSource(self.write_din(tmp_path, original))
        out = source.next_batch()
        assert source.next_batch() is None
        assert source.done
        assert np.array_equal(out.pc, original.pc)
        assert np.array_equal(out.kind, original.kind)
        assert np.array_equal(out.addr, original.addr)

    def test_batching_boundaries(self, tmp_path):
        original = make_batch(pcs=list(range(10)))
        source = DinTraceSource(self.write_din(tmp_path, original),
                                batch_size=3)
        sizes = []
        while True:
            batch = source.next_batch()
            if batch is None:
                break
            sizes.append(len(batch))
        assert sum(sizes) == 10
        assert max(sizes) <= 3

    def test_syscall_marking(self, tmp_path):
        original = make_batch(pcs=[1, 2, 3])
        source = DinTraceSource(self.write_din(tmp_path, original),
                                syscall_pcs=frozenset({2}))
        out = source.next_batch()
        assert list(out.syscall) == [False, True, False]

    def test_reset_replays(self, tmp_path):
        original = make_batch(pcs=[5, 6])
        source = DinTraceSource(self.write_din(tmp_path, original))
        first = source.next_batch()
        source.reset()
        again = source.next_batch()
        assert np.array_equal(first.pc, again.pc)

    @pytest.mark.parametrize("max_len", [0, -1])
    def test_non_positive_max_len_rejected_without_state_change(
            self, tmp_path, max_len):
        # Not None: a consumer would read that as the end of the trace.
        original = make_batch(pcs=[1, 2, 3])
        source = DinTraceSource(self.write_din(tmp_path, original))
        assert list(source.next_batch(max_len=1).pc) == [1]
        with pytest.raises(TraceError, match="max_len must be positive"):
            source.next_batch(max_len=max_len)
        assert not source.done
        assert list(source.next_batch().pc) == [2, 3]

    def test_malformed_records(self, tmp_path):
        path = tmp_path / "bad.din"
        path.write_text("2 4\nbogus line\n")
        source = DinTraceSource(path)
        with pytest.raises(TraceError):
            source.next_batch()

    def test_data_before_ifetch(self, tmp_path):
        path = tmp_path / "bad.din"
        path.write_text("0 4\n")
        with pytest.raises(TraceError):
            DinTraceSource(path).next_batch()

    def test_synthetic_trace_survives_din_replay(self, tmp_path):
        """Export a synthetic benchmark to din and replay it: reference
        stream identical (modulo dropped partial/syscall metadata)."""
        profile = default_suite(instructions_per_benchmark=3000)[0]
        bench = SyntheticBenchmark(profile)
        batch = bench.next_batch(3000)
        path = self.write_din(tmp_path, batch)
        source = DinTraceSource(path, batch_size=1000)
        replayed = []
        while True:
            part = source.next_batch()
            if part is None:
                break
            replayed.append(part)
        from repro.trace.record import TraceBatch

        joined = TraceBatch.concat(replayed)
        assert np.array_equal(joined.pc, batch.pc)
        assert np.array_equal(joined.addr, batch.addr)


class TestEndToEndReplay:
    def test_scheduler_runs_replayed_trace_with_syscall_switches(
            self, tmp_path):
        batch = make_batch(pcs=list(range(40)))
        path = tmp_path / "t.din"
        export_din(path, batch)
        # PC 10 is a voluntary system call (byte address 0x28).
        source = DinTraceSource(path, syscall_pcs=frozenset({10}))
        memsys = MemorySystem(tiny_config(WritePolicy.WRITE_BACK))
        process = Process(pid=1, name="replayed", source=source,
                          page_table=PageTable())
        scheduler = Scheduler(memsys, [process], time_slice=10**9)
        reason = scheduler.run_one_slice()
        assert reason == "syscall"
        assert process.instructions_executed == 11  # through PC 10
        stats = scheduler.run()
        assert stats.instructions == 40
        assert stats.syscalls == 1