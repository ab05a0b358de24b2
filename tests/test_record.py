"""Unit tests for trace records and batch algebra."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import TraceError
from repro.trace.record import (
    KIND_LOAD,
    KIND_NONE,
    KIND_STORE,
    TraceBatch,
    WorkloadSummary,
    iter_instructions,
)

from conftest import make_batch


class TestTraceBatch:
    def test_lengths_must_agree(self):
        with pytest.raises(TraceError):
            TraceBatch(
                pc=np.zeros(3, dtype=np.int64),
                kind=np.zeros(2, dtype=np.uint8),
                addr=np.zeros(3, dtype=np.int64),
                partial=np.zeros(3, dtype=bool),
                syscall=np.zeros(3, dtype=bool),
            )

    def test_counts(self):
        batch = make_batch(
            pcs=[0, 1, 2, 3],
            kinds=[KIND_NONE, KIND_LOAD, KIND_STORE, KIND_LOAD],
        )
        assert batch.load_count == 2
        assert batch.store_count == 1
        assert len(batch) == 4
        assert batch.references() == 7  # 4 fetches + 3 data accesses

    def test_slicing_preserves_columns(self):
        batch = make_batch(pcs=[10, 11, 12],
                           kinds=[KIND_LOAD, KIND_NONE, KIND_STORE],
                           addrs=[100, 0, 200])
        part = batch[1:]
        assert len(part) == 2
        assert list(part.pc) == [11, 12]
        assert list(part.addr) == [0, 200]

    def test_non_slice_indexing_rejected(self):
        batch = make_batch(pcs=[1])
        with pytest.raises(TypeError):
            batch[0]

    def test_validate_rejects_negative_addresses(self):
        batch = make_batch(pcs=[1], kinds=[KIND_LOAD], addrs=[-5])
        with pytest.raises(TraceError):
            batch.validate()

    def test_validate_rejects_partial_on_non_store(self):
        batch = make_batch(pcs=[1], kinds=[KIND_LOAD], addrs=[5],
                           partial=[True])
        with pytest.raises(TraceError):
            batch.validate()

    def test_validate_accepts_wellformed(self):
        batch = make_batch(pcs=[1, 2], kinds=[KIND_STORE, KIND_NONE],
                           addrs=[5, 0], partial=[True, False])
        batch.validate()

    def test_validate_accepts_an_empty_batch(self):
        TraceBatch.empty().validate()

    @given(st.lists(st.tuples(st.integers(-2, 3), st.integers(0, 4),
                              st.integers(-2, 3), st.booleans()),
                    max_size=8))
    @settings(max_examples=200, deadline=None)
    def test_validate_raises_what_the_row_masks_say(self, rows):
        # The checks run in one order, so a batch with several faults
        # raises the message of the first: the same verdict as masks
        # over whole columns.
        batch = make_batch(pcs=[r[0] for r in rows],
                           kinds=[r[1] for r in rows],
                           addrs=[r[2] for r in rows],
                           partial=[r[3] for r in rows])
        if (batch.pc < 0).any() or (batch.addr < 0).any():
            expected = "negative address in trace batch"
        elif (batch.kind > KIND_STORE).any():
            expected = "unknown access kind in trace batch"
        elif (batch.partial & (batch.kind != KIND_STORE)).any():
            expected = "partial flag set on a non-store instruction"
        else:
            batch.validate()
            return
        with pytest.raises(TraceError, match=f"^{expected}$"):
            batch.validate()

    def test_concat(self):
        a = make_batch(pcs=[1, 2])
        b = make_batch(pcs=[3])
        joined = TraceBatch.concat([a, b])
        assert list(joined.pc) == [1, 2, 3]

    def test_concat_empty(self):
        assert len(TraceBatch.concat([])) == 0
        assert len(TraceBatch.empty()) == 0

    def test_iter_instructions(self):
        batch = make_batch(pcs=[7], kinds=[KIND_STORE], addrs=[9],
                           partial=[True], syscall=[True])
        rows = list(iter_instructions(batch))
        assert rows == [(7, KIND_STORE, 9, True, True)]


class TestWorkloadSummary:
    def test_accumulates_batches(self):
        summary = WorkloadSummary(name="x")
        summary.add(make_batch(pcs=[0, 1],
                               kinds=[KIND_LOAD, KIND_STORE],
                               addrs=[1, 2], partial=[False, True]))
        summary.add(make_batch(pcs=[2], kinds=[KIND_NONE],
                               syscall=[True]))
        assert summary.instructions == 3
        assert summary.loads == 1
        assert summary.stores == 1
        assert summary.partial_stores == 1
        assert summary.syscalls == 1
        assert summary.load_fraction == pytest.approx(1 / 3)
        assert summary.references == 5

    def test_empty_summary_fractions_are_zero(self):
        summary = WorkloadSummary(name="empty")
        assert summary.load_fraction == 0.0
        assert summary.store_fraction == 0.0
