"""The MemorySystem's inlined L1 tag arrays against the reference
:class:`repro.core.cache.Cache` model.

``MemorySystem`` inlines its direct-mapped L1 lookups into flat lists
for speed (both engines probe those same lists);
``Cache`` is the reference model that behaviour must match.  These
tests drive a ``run_slice`` with a synthetic access stream while
mirroring every reference into a shadow ``Cache``, then require the
final resident lines, dirty bits, and miss counts to agree — under both
engines, so the equivalence chain ``Cache == reference == batched``
is closed on the tag-array level, not just on aggregate statistics.

The miss handlers do the same for a direct-mapped L2 half: they probe and
fill its ``_tags``/``_dirty`` lists in place.  The last battery runs each
machine twice, once that way and once with every L2 access routed
through ``Cache.access``, and requires identical statistics, state and
``cache_miss`` events.
"""

import dataclasses
import random

import pytest

from repro import obs
from repro.core.cache import INVALID, Cache
from repro.core.config import (
    ConcurrencyConfig,
    L2Config,
    WritePolicy,
    base_architecture,
    write_through_buffer,
)
from repro.core.engine import ENGINE_NAMES
from repro.core.hierarchy import MemorySystem
from repro.core.simulator import Simulation
from repro.obs.tracing import read_events
from repro.sched.process import PreparedBatch
from repro.trace.benchmarks import default_suite

N = 6_000
DEADLINE = 10 ** 9


def synth_columns(seed, n=N):
    """A conflict-heavy instruction/data stream (plain physical words)."""
    rng = random.Random(seed)
    pcs, kinds, addrs = [], [], []
    pc = 0
    for _ in range(n):
        if rng.random() < 0.1:
            pc = rng.randrange(0, 3 * 4096) & ~3
        pcs.append(pc)
        pc += 1
        roll = rng.random()
        if roll < 0.25:
            kinds.append(1)
            addrs.append(rng.randrange(0, 2 * 4096))
        elif roll < 0.40:
            kinds.append(2)
            addrs.append(rng.randrange(0, 2 * 4096))
        else:
            kinds.append(0)
            addrs.append(0)
    partials = [False] * n
    syscalls = [False] * n
    return pcs, kinds, addrs, partials, syscalls


def shadow_replay(config, pcs, kinds, addrs):
    """Replay the stream through reference Cache models."""
    icache = Cache(config.icache.size_words, config.icache.line_words)
    dcache = Cache(config.dcache.size_words, config.dcache.line_words)
    il_shift = icache.line_shift
    dl_shift = dcache.line_shift
    invalidate_on_write_miss = (
        config.write_policy is WritePolicy.WRITE_MISS_INVALIDATE)
    for pc, kind, addr in zip(pcs, kinds, addrs):
        icache.access(pc >> il_shift)
        if kind == 1:
            dcache.access(addr >> dl_shift)
        elif kind == 2:
            dline = addr >> dl_shift
            if invalidate_on_write_miss:
                if dcache.contains(dline):
                    dcache.access(dline, write=True)
                else:
                    # The parallel data write corrupts whatever line
                    # occupies the written word's index.
                    resident = dcache._tags[dcache.set_index(dline)]
                    if resident != INVALID:
                        dcache.invalidate(resident)
            else:
                dcache.access(dline, write=True)
    return icache, dcache


def run_memsys(config, engine, columns):
    ms = MemorySystem(config, engine=engine)
    ms.run_slice(PreparedBatch(*columns, ms._il_shift), start=0,
                 deadline=DEADLINE)
    return ms


def assert_tags_match(ms, shadow, config):
    icache, dcache = shadow
    assert ms._itags == icache._tags
    assert ms._dtags == dcache._tags
    resident_dirty = [ms._dtags[i] != INVALID
                      and ms._ddirty[i] == ms._dirty_epoch
                      for i in range(len(ms._dtags))]
    shadow_dirty = [dcache._tags[i] != INVALID and dcache._dirty[i]
                    for i in range(dcache.sets)]
    assert resident_dirty == shadow_dirty


@pytest.mark.parametrize("engine", ENGINE_NAMES)
@pytest.mark.parametrize("seed", (0, 1, 2))
class TestWriteBack:
    def test_fill_evict_dirty(self, engine, seed):
        config = base_architecture()
        columns = synth_columns(seed)
        ms = run_memsys(config, engine, columns)
        shadow = shadow_replay(config, *columns[:3])
        assert_tags_match(ms, shadow, config)
        # Every write-back miss allocates, so the counters line up too.
        assert ms.stats.l1i_misses == shadow[0].misses
        assert (ms.stats.l1d_read_misses + ms.stats.l1d_write_misses
                == shadow[1].misses)


@pytest.mark.parametrize("engine", ENGINE_NAMES)
@pytest.mark.parametrize("seed", (3, 4))
class TestWriteMissInvalidate:
    def test_fill_evict_invalidate(self, engine, seed):
        config = base_architecture().with_(
            name="wmi",
            write_policy=WritePolicy.WRITE_MISS_INVALIDATE,
            write_buffer=write_through_buffer())
        columns = synth_columns(seed)
        ms = run_memsys(config, engine, columns)
        shadow = shadow_replay(config, *columns[:3])
        assert_tags_match(ms, shadow, config)
        assert ms.stats.l1i_misses == shadow[0].misses


def run_l2_path(config, engine, through_cache_access, trace_path):
    """Stats, final state and ``cache_miss`` events of one traced run."""
    sim = Simulation(config=config, profiles=default_suite(6_000)[:3],
                     level=3, time_slice=2_000, engine=engine)
    l2 = sim.memsys.l2
    l2.instruction_half.trace_name = "l2i"
    l2.data_half.trace_name = "l2d" if l2.split else "l2"
    if through_cache_access:
        sim.memsys._l2i_tags = None
        sim.memsys._l2d_tags = None
    obs.enable(trace_path, sample_interval=None)
    try:
        stats = sim.run()
    finally:
        obs.disable()
    misses = [event for event in read_events(trace_path)
              if event["ev"] == "cache_miss"]
    return dataclasses.asdict(stats), sim.memsys.state_dict(), misses


@pytest.mark.parametrize("engine", ENGINE_NAMES)
@pytest.mark.parametrize("policy", (WritePolicy.WRITE_BACK,
                                    WritePolicy.WRITE_ONLY))
@pytest.mark.parametrize("split", (False, True))
class TestL2FlatArraysMatchCacheAccess:
    def test_same_stats_state_and_events(self, engine, policy, split,
                                         tmp_path):
        config = base_architecture().with_(
            name="small-l2",
            l2=L2Config(size_words=4096, line_words=32, split=split),
            concurrency=ConcurrencyConfig(l2_dirty_buffer=split))
        if policy is not WritePolicy.WRITE_BACK:
            config = config.with_(write_policy=policy,
                                  write_buffer=write_through_buffer())
        flat = run_l2_path(config, engine, False, tmp_path / "flat.jsonl")
        reference = run_l2_path(config, engine, True, tmp_path / "ref.jsonl")
        assert flat[0]["l2d_dirty_victims"] > 0
        assert {event["name"] for event in flat[2]} == (
            {"l2i", "l2d"} if split else {"l2"})
        assert flat == reference
