"""Unit tests for trace sources and stream helpers."""

import pytest

from repro.errors import TraceError
from repro.trace.stream import BatchSource, TraceSource, drain, summarize
from repro.trace.synthetic import SyntheticBenchmark
from repro.trace.benchmarks import default_suite

from conftest import make_batch


class TestBatchSource:
    def test_replays_batches_in_order(self):
        source = BatchSource([make_batch(pcs=[1, 2]), make_batch(pcs=[3])])
        out = drain(source)
        assert [list(b.pc) for b in out] == [[1, 2], [3]]
        assert source.done

    def test_respects_max_len_across_boundaries(self):
        source = BatchSource([make_batch(pcs=[1, 2, 3])])
        first = source.next_batch(max_len=2)
        second = source.next_batch(max_len=2)
        assert list(first.pc) == [1, 2]
        assert list(second.pc) == [3]
        assert source.next_batch() is None

    def test_zero_max_len_rejected(self):
        source = BatchSource([make_batch(pcs=[1])])
        with pytest.raises(TraceError):
            source.next_batch(max_len=0)

    @pytest.mark.parametrize("max_len", [0, -3])
    def test_non_positive_max_len_rejected_without_state_change(
            self, max_len):
        source = BatchSource([make_batch(pcs=[1, 2, 3])])
        source.next_batch(max_len=1)
        with pytest.raises(TraceError, match="max_len must be positive"):
            source.next_batch(max_len=max_len)
        assert list(source.next_batch().pc) == [2, 3]
        # An exhausted source rejects it the same way.
        with pytest.raises(TraceError, match="max_len must be positive"):
            source.next_batch(max_len=max_len)

    def test_reset(self):
        source = BatchSource([make_batch(pcs=[1])])
        drain(source)
        source.reset()
        assert not source.done
        assert list(source.next_batch().pc) == [1]

    def test_empty_batches_skipped(self):
        source = BatchSource([make_batch(pcs=[])])
        assert source.done

    def test_protocol_conformance(self):
        assert isinstance(BatchSource([]), TraceSource)
        suite = default_suite(instructions_per_benchmark=10)
        assert isinstance(SyntheticBenchmark(suite[0]), TraceSource)


class TestSummarize:
    def test_counts_everything(self):
        suite = default_suite(instructions_per_benchmark=20_000)
        summary = summarize(SyntheticBenchmark(suite[0]), name="espresso")
        assert summary.instructions == 20_000
        assert summary.loads > 0
        assert summary.stores > 0
        assert summary.name == "espresso"
