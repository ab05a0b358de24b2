"""Unit tests for the synthetic trace generator."""

import dataclasses
import hashlib
import json
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError, TraceError
from repro.trace.benchmarks import default_suite
from repro.trace.record import KIND_LOAD, KIND_STORE
from repro.trace.stream import drain
from repro.trace.synthetic import (
    CODE_BASE,
    COLD_BASE,
    HOT_BASE,
    STREAM_BASE,
    WARM_BASE,
    BenchmarkProfile,
    CodeProfile,
    DataProfile,
    SyntheticBenchmark,
    _sawtooth,
)


def small_profile(**data_overrides) -> BenchmarkProfile:
    data = DataProfile(**data_overrides) if data_overrides else DataProfile()
    return BenchmarkProfile(
        name="test", category="I", instructions=30_000, syscalls=5,
        code=CodeProfile(), data=data, seed=42,
    )


class TestGeneration:
    def test_emits_exactly_the_instruction_budget(self):
        bench = SyntheticBenchmark(small_profile(), batch_size=7_000)
        total = 0
        while True:
            batch = bench.next_batch()
            if batch is None:
                break
            total += len(batch)
        assert total == 30_000
        assert bench.done

    def test_batches_validate(self):
        bench = SyntheticBenchmark(small_profile())
        batch = bench.next_batch()
        batch.validate()

    def test_max_len_respected(self):
        bench = SyntheticBenchmark(small_profile())
        batch = bench.next_batch(max_len=100)
        assert len(batch) == 100

    @pytest.mark.parametrize("max_len", [0, -5])
    def test_non_positive_max_len_rejected_without_state_change(
            self, max_len):
        bench = SyntheticBenchmark(small_profile())
        bench.next_batch(max_len=1000)
        before = bench.state_dict()
        with pytest.raises(TraceError, match="max_len must be positive"):
            bench.next_batch(max_len=max_len)
        assert bench.state_dict() == before
        fresh = SyntheticBenchmark(small_profile())
        fresh.next_batch(max_len=1000)
        assert np.array_equal(bench.next_batch(max_len=500).pc,
                              fresh.next_batch(max_len=500).pc)

    def test_deterministic_per_seed(self):
        a = SyntheticBenchmark(small_profile())
        b = SyntheticBenchmark(small_profile())
        batch_a = a.next_batch()
        batch_b = b.next_batch()
        assert np.array_equal(batch_a.pc, batch_b.pc)
        assert np.array_equal(batch_a.addr, batch_b.addr)
        assert np.array_equal(batch_a.kind, batch_b.kind)

    def test_reset_reproduces_the_trace(self):
        bench = SyntheticBenchmark(small_profile())
        first = bench.next_batch()
        bench.reset()
        again = bench.next_batch()
        assert np.array_equal(first.pc, again.pc)
        assert np.array_equal(first.addr, again.addr)

    def test_different_seeds_differ(self):
        profile_b = BenchmarkProfile(
            name="other", category="I", instructions=30_000, syscalls=5,
            code=CodeProfile(), data=DataProfile(), seed=43,
        )
        a = SyntheticBenchmark(small_profile()).next_batch()
        b = SyntheticBenchmark(profile_b).next_batch()
        assert not np.array_equal(a.addr, b.addr)


class TestStatisticalTargets:
    def test_load_store_fractions_near_profile(self):
        profile = small_profile()
        bench = SyntheticBenchmark(profile)
        batch = bench.next_batch(max_len=30_000)
        loads = batch.load_count / len(batch)
        stores = batch.store_count / len(batch)
        assert loads == pytest.approx(profile.data.load_fraction, abs=0.01)
        assert stores == pytest.approx(profile.data.store_fraction, abs=0.01)

    def test_partial_stores_only_on_stores(self):
        batch = SyntheticBenchmark(small_profile()).next_batch(max_len=20_000)
        batch.validate()  # would raise if a partial flag sat on a non-store
        assert batch.partial.sum() > 0

    def test_syscall_count_matches_profile(self):
        bench = SyntheticBenchmark(small_profile())
        count = 0
        while True:
            batch = bench.next_batch()
            if batch is None:
                break
            count += batch.syscall_count
        assert count == 5

    def test_pcs_stay_in_code_region(self):
        profile = small_profile()
        batch = SyntheticBenchmark(profile).next_batch(max_len=20_000)
        assert batch.pc.min() >= CODE_BASE
        assert batch.pc.max() < CODE_BASE + profile.code.code_words

    def test_data_addresses_stay_in_their_regions(self):
        profile = small_profile()
        batch = SyntheticBenchmark(profile).next_batch(max_len=20_000)
        data_mask = batch.kind != 0
        addrs = batch.addr[data_mask]
        d = profile.data
        regions = (
            (HOT_BASE, d.hot_words),
            (WARM_BASE, d.warm_words),
            (STREAM_BASE, d.stream_words),
            (COLD_BASE, d.cold_words),
        )
        in_any = np.zeros(len(addrs), dtype=bool)
        for base, size in regions:
            in_any |= (addrs >= base) & (addrs < base + size)
        # Store-run clustering may step a run a few words past a region end.
        assert in_any.mean() > 0.995

    def test_store_runs_are_sequential(self):
        profile = small_profile(store_run_q=0.9)
        batch = SyntheticBenchmark(profile).next_batch(max_len=20_000)
        store_addrs = batch.addr[batch.kind == KIND_STORE]
        deltas = np.diff(store_addrs)
        # With q=0.9, most consecutive stores continue a +1 run.
        assert (deltas == 1).mean() > 0.7

    def test_hot_fraction_dominates(self):
        profile = small_profile()
        batch = SyntheticBenchmark(profile).next_batch(max_len=30_000)
        data_mask = batch.kind != 0
        addrs = batch.addr[data_mask]
        hot = ((addrs >= HOT_BASE)
               & (addrs < HOT_BASE + profile.data.hot_words)).mean()
        assert hot > 0.9


class TestSawtooth:
    @given(segments=st.lists(st.tuples(st.integers(0, 10_000),
                                       st.integers(1, 40),
                                       st.integers(1, 6)),
                             min_size=1, max_size=12),
           cut=st.integers(0, 200))
    @settings(max_examples=100, deadline=None)
    def test_matches_tiled_segments(self, segments, cut):
        # Each segment repeats its body [start, start + body) trips
        # times; the pcs are the first `want` words of them back to back.
        tiled = np.concatenate([np.tile(np.arange(start, start + body),
                                        trips)
                                for start, body, trips in segments])
        want = max(1, len(tiled) - cut)
        starts, bodies, trips = (np.array(column, dtype=np.int64)
                                 for column in zip(*segments))
        out = _sawtooth(starts, bodies, trips, want)
        assert out.dtype == np.int64
        assert np.array_equal(out, tiled[:want])


class TestValidation:
    def test_rejects_empty_loop_pool(self):
        with pytest.raises(ConfigurationError):
            CodeProfile(loops_per_phase=0).validate()

    def test_rejects_bad_category(self):
        with pytest.raises(ConfigurationError):
            BenchmarkProfile(name="x", category="Q", instructions=10,
                             syscalls=0, code=CodeProfile(),
                             data=DataProfile()).validate()

    def test_rejects_zero_instructions(self):
        with pytest.raises(ConfigurationError):
            BenchmarkProfile(name="x", category="I", instructions=0,
                             syscalls=0, code=CodeProfile(),
                             data=DataProfile()).validate()

    def test_rejects_window_bigger_than_region(self):
        with pytest.raises(ConfigurationError):
            small_profile(warm_words=1024, warm_window_words=2048).validate()

    def test_rejects_probability_overflow(self):
        with pytest.raises(ConfigurationError):
            small_profile(p_warm=0.6, p_stream=0.5).validate()

    def test_rejects_bad_batch_size(self):
        with pytest.raises(ConfigurationError):
            SyntheticBenchmark(small_profile(), batch_size=0)

    def test_scaled_profile(self):
        profile = small_profile()
        half = profile.scaled(0.5)
        assert half.instructions == 15_000
        assert half.syscalls in (2, 3)
        assert half.name == profile.name


# ---------------------------------------------------------------- trace pin

#: Per-benchmark instructions of the pinned traces: two full default
#: batches and a partial tail, so the warm window's drift, the stream
#: cursor and the code phase all carry across batch boundaries.
PIN_INSTRUCTIONS = 150_000
PIN_SEEDS = (0, 5)

#: SHA-256 (first 16 hex digits) over every column, values and dtype, of
#: every batch of each Table 1 profile scaled to ``PIN_INSTRUCTIONS`` and
#: re-seeded.  A change to how the generator consumes its random stream
#: changes them.  Only an intended change to the synthetic workload may
#: re-record them:
#:
#:     PYTHONPATH=src python3 tests/test_synthetic.py --record
PINNED_TRACES = {
    "espresso/0": "c4104593a1ba107e",
    "gcc/0": "a8b5ad654ed5e433",
    "li/0": "0a0c54368fd73d60",
    "eqntott/0": "eff65e7164048b43",
    "doduc/0": "4850bb4a675efd05",
    "hspice/0": "a800619b0108ecc4",
    "nasa7/0": "709d2b3b57a4315d",
    "matrix300/0": "67e20b106d9b609a",
    "tomcatv/0": "296aa4a450da4a80",
    "fpppp/0": "b5055b2d612cbfc3",
    "espresso/5": "e980c3590e33fcd3",
    "gcc/5": "11981d1dec3ede30",
    "li/5": "4739420bf447c49d",
    "eqntott/5": "5f7ce63823365d03",
    "doduc/5": "703c6ab2dda87f61",
    "hspice/5": "734a1d4a77641a71",
    "nasa7/5": "38ea183033b31dbc",
    "matrix300/5": "7c7966f5e5d321b2",
    "tomcatv/5": "632baddeeec1ae07",
    "fpppp/5": "ddd950925e223d39",
}

#: The same digest of ``next_batch(1000)`` after a full trace and a
#: ``reset()``, and of the rest of a trace after a JSON round trip of a
#: ``state_dict()`` taken mid-trace, per Table 1 profile at seed 0.
PINNED_RESET = {
    "espresso": "c550d605affa1255",
    "gcc": "4e2f154684eb2e9d",
    "li": "39b19e8c692f18fb",
    "eqntott": "02f85ef0733d68cd",
    "doduc": "0c81b9eccfff6b1d",
    "hspice": "b2f613c498c47f8f",
    "nasa7": "90ddb588f3382966",
    "matrix300": "df6be8de138bf160",
    "tomcatv": "f97f4711854c2864",
    "fpppp": "cc8836238d902232",
}
PINNED_RESUMED = {
    "espresso": "45fd379f5920de96",
    "gcc": "1a3148e53d8fd49e",
    "li": "0a7c258d9fa8511f",
    "eqntott": "5f1d95732050d4c6",
    "doduc": "20b7e396c98b497f",
    "hspice": "ade8339eaa7beef2",
    "nasa7": "1042474aa247ce68",
    "matrix300": "f688f17429ef23af",
    "tomcatv": "89c58978735cac69",
    "fpppp": "14597f05684a1832",
}


def _pin_profiles(seed: int):
    return [dataclasses.replace(profile, seed=seed)
            for profile in default_suite(PIN_INSTRUCTIONS)]


def _batches_digest(batches) -> str:
    h = hashlib.sha256()
    for batch in batches:
        for name in ("pc", "kind", "addr", "partial", "syscall"):
            column = getattr(batch, name)
            h.update(f"{name}:{column.dtype.str}:{len(column)};".encode())
            h.update(np.ascontiguousarray(column).tobytes())
    return h.hexdigest()[:16]


def _trace_digest(profile) -> str:
    return _batches_digest(drain(SyntheticBenchmark(profile)))


def _reset_digest(profile) -> str:
    bench = SyntheticBenchmark(profile)
    drain(bench)
    bench.reset()
    return _batches_digest([bench.next_batch(1000)])


def _resumed_digest(profile) -> str:
    bench = SyntheticBenchmark(profile)
    bench.next_batch()
    bench.next_batch(12_345)
    state = json.loads(json.dumps(bench.state_dict()))
    resumed = SyntheticBenchmark(profile)
    resumed.load_state(state)
    rest = drain(resumed)
    assert _batches_digest(rest) == _batches_digest(drain(bench))
    return _batches_digest(rest)


def _pin_cases():
    return [(profile, seed) for seed in PIN_SEEDS
            for profile in _pin_profiles(seed)]


class TestPinnedTrace:
    @pytest.mark.parametrize(
        "profile,seed", _pin_cases(),
        ids=[f"{p.name}-seed{s}" for p, s in _pin_cases()])
    def test_trace_matches_pin(self, profile, seed):
        assert _trace_digest(profile) == PINNED_TRACES[f"{profile.name}/{seed}"]

    @pytest.mark.parametrize("profile", _pin_profiles(0),
                             ids=lambda p: p.name)
    def test_reset_matches_pin(self, profile):
        assert _reset_digest(profile) == PINNED_RESET[profile.name]

    @pytest.mark.parametrize("profile", _pin_profiles(0),
                             ids=lambda p: p.name)
    def test_resumed_rest_matches_pin(self, profile):
        assert _resumed_digest(profile) == PINNED_RESUMED[profile.name]


def record() -> None:
    """Print the pinned dictionaries for the current generator."""
    print("PINNED_TRACES = {")
    for profile, seed in _pin_cases():
        print(f'    "{profile.name}/{seed}": "{_trace_digest(profile)}",')
    print("}")
    for name, fn in (("PINNED_RESET", _reset_digest),
                     ("PINNED_RESUMED", _resumed_digest)):
        print(f"{name} = {{")
        for profile in _pin_profiles(0):
            print(f'    "{profile.name}": "{fn(profile)}",')
        print("}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        raise SystemExit(f"usage: {sys.argv[0]} --record")
    record()
