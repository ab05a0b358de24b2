"""Fault injection: every corruption class is detected or counted.

The robustness contract under test: no injected corruption may silently
bend the statistics.  Trace-level faults raise
:class:`~repro.errors.TraceError` (or are dropped-and-counted in skip
mode); state-level faults raise
:class:`~repro.errors.StateCorruptionError` from the invariant auditor;
checkpoint faults raise :class:`~repro.errors.CheckpointError`.
"""

import numpy as np
import pytest

from conftest import load, run_ops, store, tiny_config
from repro.core.config import WritePolicy, base_architecture
from repro.core.hierarchy import MemorySystem
from repro.core.simulator import Simulation
from repro.errors import CheckpointError, StateCorruptionError, TraceError
from repro.mmu.page_table import PageTable
from repro.robust.audit import AuditConfig, InvariantAuditor
from repro.robust.checkpoint import resume, save_checkpoint
from repro.robust.faults import FaultInjector
from repro.sched.process import PreparedBatch
from repro.trace.benchmarks import default_suite
from repro.trace.synthetic import SyntheticBenchmark

SUITE = default_suite(instructions_per_benchmark=15_000)[:2]


def fresh_batch():
    """A real synthetic batch (valid until corrupted)."""
    return SyntheticBenchmark(SUITE[0], batch_size=4096).next_batch()


def warm_memsys(policy=WritePolicy.WRITE_BACK) -> MemorySystem:
    """A tiny system with live L1/L2/WB state to corrupt."""
    memsys = MemorySystem(tiny_config(policy))
    ops = []
    for i in range(0, 256, 4):
        ops.append(load(i, pc=i))
        ops.append(store(i + 1, pc=i))
    run_ops(memsys, ops)
    return memsys


def prepare(batch, trace_errors="raise"):
    return PreparedBatch.from_batch(batch, pid=1, page_table=PageTable(),
                                    il_shift=2, trace_errors=trace_errors)


class TestTraceFaultsDetected:
    def test_corrupt_kind(self):
        batch = fresh_batch()
        FaultInjector().corrupt_kind(batch, index=17)
        with pytest.raises(TraceError, match="kind"):
            prepare(batch)

    def test_corrupt_addr(self):
        batch = fresh_batch()
        FaultInjector().corrupt_addr(batch, index=17)
        with pytest.raises(TraceError, match="negative"):
            prepare(batch)

    def test_corrupt_partial_flag(self):
        batch = fresh_batch()
        FaultInjector().corrupt_partial_flag(batch, index=17)
        with pytest.raises(TraceError, match="partial"):
            prepare(batch)

    def test_truncated_batch(self):
        batch = fresh_batch()
        FaultInjector().truncate_batch(batch, drop=3)
        with pytest.raises(TraceError, match="length"):
            prepare(batch)


class TestTraceFaultsGracefullyDegraded:
    def test_skip_mode_drops_and_counts(self):
        batch = fresh_batch()
        n = len(batch)
        injector = FaultInjector()
        injector.corrupt_kind(batch, index=5)
        injector.corrupt_addr(batch, index=100)
        injector.corrupt_partial_flag(batch, index=200)
        prepared = prepare(batch, trace_errors="skip")
        assert prepared.dropped == 3
        assert len(prepared) == n - 3

    def test_skip_mode_truncation(self):
        batch = fresh_batch()
        n = len(batch)
        FaultInjector().truncate_batch(batch, drop=7)
        prepared = prepare(batch, trace_errors="skip")
        assert prepared.dropped == 7
        assert len(prepared) == n - 7

    def test_skipped_records_reach_sim_stats(self):
        # End-to-end: a corrupting source under trace_errors="skip" runs to
        # completion and surfaces the drop count in the statistics.
        sim = Simulation(config=base_architecture(), profiles=SUITE,
                         time_slice=5_000, trace_errors="skip")
        injector = FaultInjector(seed=3)
        for process in sim.scheduler.ready_processes:
            original = process.source.next_batch

            def corrupting(orig=original):
                batch = orig()
                if batch is not None and len(batch):
                    injector.corrupt_kind(batch)
                return batch

            process.source.next_batch = corrupting
        stats = sim.run()
        assert stats.trace_records_skipped == len(injector.log)
        assert stats.trace_records_skipped > 0

    def test_raise_mode_never_silently_drops(self):
        sim = Simulation(config=base_architecture(), profiles=SUITE,
                         time_slice=5_000)
        process = sim.scheduler.ready_processes[0]
        original = process.source.next_batch

        def corrupting():
            batch = original()
            if batch is not None and len(batch):
                FaultInjector().corrupt_addr(batch)
            return batch

        process.source.next_batch = corrupting
        with pytest.raises(TraceError):
            sim.run()


class TestStateFaultsDetected:
    def test_l1d_tag_low_bit_flip(self):
        memsys = warm_memsys()
        assert FaultInjector().flip_l1d_tag_bit(memsys, bit=0) is not None
        with pytest.raises(StateCorruptionError, match="L1-D|l1d"):
            memsys.check_invariants()

    def test_l1i_tag_low_bit_flip(self):
        memsys = warm_memsys()
        assert FaultInjector().flip_l1i_tag_bit(memsys, bit=0) is not None
        with pytest.raises(StateCorruptionError):
            memsys.check_invariants()

    def test_l1d_valid_corruption(self):
        memsys = warm_memsys()
        FaultInjector().corrupt_l1d_valid(memsys)
        with pytest.raises(StateCorruptionError):
            memsys.check_invariants()

    def test_dropped_write_buffer_entry(self):
        memsys = warm_memsys()
        # Leave pending writes in the buffer, then lose one.
        run_ops(memsys, [store(4096 + i * 64) for i in range(3)])
        assert FaultInjector().drop_wb_entry(memsys) is not None
        with pytest.raises(StateCorruptionError, match="conservation|pushes"):
            memsys.check_invariants()

    def test_inserted_write_buffer_garbage(self):
        memsys = warm_memsys()
        FaultInjector().insert_wb_garbage(memsys)
        with pytest.raises(StateCorruptionError):
            memsys.check_invariants()

    def test_l2_tag_flip(self):
        memsys = warm_memsys()
        assert FaultInjector().flip_l2_tag(memsys, bit=0) is not None
        with pytest.raises(StateCorruptionError):
            memsys.check_invariants()

    def test_tlb_duplicate_entry(self):
        memsys = MemorySystem(tiny_config(tlb_enabled=True))
        run_ops(memsys, [load(i * 4096) for i in range(4)])
        assert FaultInjector().corrupt_tlb(memsys) is not None
        with pytest.raises(StateCorruptionError, match="dtlb"):
            memsys.check_invariants()

    def test_auditor_catches_mid_run_corruption(self):
        # The auditor, not a manual check, must trip during a normal run.
        sim = Simulation(config=base_architecture(), profiles=SUITE,
                         time_slice=2_000,
                         audit=AuditConfig(interval_slices=1))
        sim.run(max_instructions=5_000)
        FaultInjector().flip_l1d_tag_bit(sim.memsys, bit=0)
        with pytest.raises(StateCorruptionError):
            sim.run()

    def test_high_tag_bit_flip_needs_lockstep(self):
        # A flip above the index field keeps the structure self-consistent:
        # only the lockstep cross-check against the functional model sees it.
        sim = Simulation(config=base_architecture(), profiles=SUITE,
                         time_slice=2_000,
                         audit=AuditConfig(interval_slices=1, lockstep=True,
                                           sample=512))
        sim.run(max_instructions=20_000)
        auditor = sim.scheduler.auditor
        # Corrupt a line the lockstep sample window is sure to inspect.
        target = None
        for addr in auditor._recent:
            if sim.memsys.l1d_line_state(addr)["present"]:
                target = sim.memsys.l1d_line_state(addr)["index"]
                break
        assert target is not None
        # bit 30 of the line address is far above the 10-bit index field.
        hit = FaultInjector().flip_l1d_tag_bit(sim.memsys, bit=30,
                                               index=target)
        assert hit is not None
        sim.memsys.check_invariants()  # structurally still consistent
        with pytest.raises(StateCorruptionError, match="lockstep"):
            auditor.audit()


class TestCheckpointFaultsDetected:
    def test_corrupt_checkpoint_file(self, tmp_path):
        sim = Simulation(config=base_architecture(), profiles=SUITE,
                         time_slice=5_000)
        sim.run(max_instructions=10_000)
        path = tmp_path / "run.ckpt"
        save_checkpoint(sim, path)
        FaultInjector().corrupt_checkpoint(path)
        with pytest.raises(CheckpointError):
            resume(path)

    def test_injector_log_records_everything(self):
        memsys = warm_memsys()
        injector = FaultInjector(seed=7)
        injector.flip_l1d_tag_bit(memsys)
        injector.corrupt_l1d_valid(memsys)
        injector.insert_wb_garbage(memsys)
        assert [r["kind"] for r in injector.log] == [
            "flip_l1d_tag_bit", "corrupt_l1d_valid", "insert_wb_garbage"]
