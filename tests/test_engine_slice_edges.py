"""Differential slice-edge tests: ``batched`` against ``reference``.

The batched engine executes only *events* (a new L1-I line, a data
access) and advances the clock over every other instruction in one
step, so its exactness rests on where a call stops: at the deadline, at
a system call, or at the batch end, after any number of stalls.  These
tests drive both engines the way the scheduler does — several prepared
batches from interleaved processes, resumed mid-batch, slices of 1-50
cycles — over tiny machines on which nearly every event misses
somewhere, and compare every ``SliceResult``, the full ``SimStats`` and
``state_dict()`` after every call.

Generated inputs cover every write policy and bypass mode the
configuration rules allow, TLB on and off, with one or two ways,
write-buffer depth 1, 2 and 4, concurrent I-refill, 4- and 8-word L1-I
lines, and a direct-mapped or 2-way L2 (an associative half goes through
``Cache.access``).  The batched engine counts a probe that hits its TLB
set's most recently used entry itself and calls ``TLB.access`` for the
others; the generated test asserts that both TLBs saw such hits, hits
in the other way and misses.  Most stores reuse the line of the
previous data access, so write-through store hits reach the batched
engine's inline path and fall back to the handler when the buffer is
full.  Every example also runs on a twin of
its machine with the baseline buffer discipline and a direct-mapped L2,
where the engine finishes L1 misses that hit in L2 itself, and the
generated test asserts that it took every such branch.  The cases the skipping logic, the inline store
hits and the inline misses must get exactly right are also pinned by
example below, with :class:`HandlerSpy` telling an inline path from a
handler call.
"""

from __future__ import annotations

import dataclasses
import itertools
from collections import Counter, deque

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from repro import obs
from repro.core.config import (
    BypassMode,
    CacheConfig,
    ConcurrencyConfig,
    L2Config,
    SystemConfig,
    TLBConfig,
    WriteBufferConfig,
    WritePolicy,
)
from repro.core.engine import REASON_END, REASON_SLICE, REASON_SYSCALL
from repro.core.hierarchy import MemorySystem
from repro.errors import SchedulingError
from repro.obs.tracing import read_events
from repro.params import PAGE_WORDS, log2i
from repro.sched.process import PreparedBatch

ENGINES = ("reference", "batched")

WRITE_THROUGH = (WritePolicy.WRITE_MISS_INVALIDATE, WritePolicy.WRITE_ONLY,
                 WritePolicy.SUBBLOCK)

#: (policy, bypass, tlb, buffer depth, concurrent I-refill) for every
#: combination the configuration rules allow.
MACHINES = [
    combo for combo in itertools.product(
        WritePolicy, BypassMode, (False, True), (1, 2, 4), (False, True))
    if combo[1] is not BypassMode.DIRTY_BIT
    or combo[0] is WritePolicy.WRITE_ONLY
]


#: Words per L1-D line of :func:`machine`.
D_LINE = 4


def machine(policy=WritePolicy.WRITE_BACK, bypass=BypassMode.NONE,
            tlb=False, depth=4, i_refill=False, dirty_buffer=False,
            i_line=4, l2_ways=1, tlb_ways=1) -> SystemConfig:
    """Four-line L1s, an L2 of a few lines, and one-way TLBs (one I-TLB
    set, two D-TLB sets) or two-way ones (two sets each), with short
    penalties: misses, victims and TLB misses are frequent and a stall
    fits inside a short slice.  An I-TLB of one set probes only pages
    other than its last one, so it never hits its most recently used
    entry."""
    if policy is WritePolicy.WRITE_BACK:
        buffer = WriteBufferConfig(depth=depth, width_words=4,
                                   overlap_cycles=2)
    else:
        buffer = WriteBufferConfig(depth=depth, width_words=1,
                                   overlap_cycles=1)
    if i_refill:
        l2 = L2Config(size_words=64, line_words=8, ways=l2_ways,
                      access_time=2, split=True, i_size_words=16,
                      d_size_words=32, miss_penalty_clean=5,
                      miss_penalty_dirty=9)
    else:
        l2 = L2Config(size_words=32, line_words=8, ways=l2_ways,
                      access_time=2, miss_penalty_clean=5,
                      miss_penalty_dirty=9)
    return SystemConfig(
        name="edge",
        icache=CacheConfig(size_words=4 * i_line, line_words=i_line),
        dcache=CacheConfig(size_words=16, line_words=D_LINE),
        write_policy=policy,
        write_buffer=buffer,
        l2=l2,
        concurrency=ConcurrencyConfig(i_refill_during_wb_drain=i_refill,
                                      bypass=bypass,
                                      l2_dirty_buffer=dirty_buffer),
        tlb=TLBConfig(itlb_entries=1 if tlb_ways == 1 else 4,
                      dtlb_entries=2 * tlb_ways, ways=tlb_ways,
                      miss_penalty=3, enabled=tlb),
    )


def prepared(pcs, kinds=None, addrs=None, partials=None,
             syscalls=None, i_line=4) -> PreparedBatch:
    """A physical-address batch as the scheduler hands it to an engine,
    prepared for ``i_line``-word L1-I lines."""
    n = len(pcs)
    return PreparedBatch(pcs,
                         kinds if kinds is not None else [0] * n,
                         addrs if addrs is not None else [0] * n,
                         partials if partials is not None else [False] * n,
                         syscalls if syscalls is not None else [False] * n,
                         log2i(i_line))


def state(ms: MemorySystem) -> dict:
    snapshot = ms.state_dict()
    del snapshot["engine"]
    return snapshot


class Pair:
    """One memory system per engine, called and compared in lockstep."""

    def __init__(self, config: SystemConfig):
        self.systems = [MemorySystem(config, engine=e) for e in ENGINES]
        self.ref, self.bat = self.systems

    @property
    def now(self) -> int:
        return self.ref.now

    def call(self, batch: PreparedBatch, start: int, deadline: int):
        results = [ms.run_slice(batch, start, deadline)
                   for ms in self.systems]
        ref, bat = self.ref, self.bat
        assert results[1] == results[0], (start, deadline)
        assert (dataclasses.asdict(bat.stats)
                == dataclasses.asdict(ref.stats)), (start, deadline)
        assert state(bat) == state(ref), (start, deadline)
        return results[0]


def counts(ms: MemorySystem) -> Counter:
    """The counters an inline miss moves, besides the clock."""
    st = ms.stats
    return Counter(i_misses=st.l1i_misses, read_misses=st.l1d_read_misses,
                   write_misses=st.l1d_write_misses,
                   wo_misses=st.l1d_write_only_read_misses,
                   stall_wb=st.stall_wb, pushes=ms.wb.pushes)


class HandlerSpy:
    """Wraps a memory system's three bound miss handlers.

    ``calls`` maps ``ifetch``, ``load`` and ``store`` to the first
    argument after ``now`` of each call: an L1-I line, an L1-D line or a
    store's address.  ``handled`` sums what the calls added to
    :func:`counts`; an engine call flushes its inline counters only when
    it ends, so :meth:`inline` is what the engine did without a handler.
    """

    def __init__(self, ms: MemorySystem):
        self.ms = ms
        self.start = counts(ms)
        self.handled = Counter()
        self.calls = {}
        for name, attr in (("ifetch", "_ifetch_miss"), ("load", "_load_miss"),
                           ("store", "_store")):
            self.calls[name] = []
            setattr(ms, attr, self._spy(getattr(ms, attr), self.calls[name]))

    def _spy(self, handler, calls):
        def spied(now, first, *rest):
            calls.append(first)
            before = counts(self.ms)
            now = handler(now, first, *rest)
            self.handled += counts(self.ms) - before
            return now
        return spied

    @property
    def called(self) -> bool:
        """True when a handler was called."""
        return any(self.calls.values())

    def inline(self) -> Counter:
        return counts(self.ms) - self.start - self.handled


def schedule(pair: Pair, processes, slices, probe_end=False) -> None:
    """Round-robin ``processes`` (each a list of batches) as the scheduler
    does, slice lengths cycling through ``slices``; with ``probe_end``
    every exhausted batch is also called once at ``start == len``."""
    cursor = {p: (0, 0) for p in range(len(processes))}
    ready = deque(cursor)
    lengths = itertools.cycle(slices)
    while ready:
        p = ready.popleft()
        deadline = pair.now + next(lengths)
        while True:
            b, pos = cursor[p]
            if b == len(processes[p]):
                break  # terminated
            batch = processes[p][b]
            consumed, reason = pair.call(batch, pos, deadline)
            if reason != REASON_END:
                cursor[p] = (b, pos + consumed)
                ready.append(p)
                break
            if probe_end:
                assert pair.call(batch, len(batch), deadline) == (
                    0, REASON_END)
            cursor[p] = (b + 1, 0)


# -- generated inputs ----------------------------------------------------

#: Word addresses over three pages, a few lines into each.
addresses = st.builds(lambda page, offset: page * PAGE_WORDS + offset,
                      st.integers(0, 2), st.integers(0, 23))


@st.composite
def batches(draw):
    """The columns (pcs, kinds, addresses, partial and system-call
    flags) of mostly sequential code with jumps; loads, full and partial
    stores; system calls anywhere, including the first and last
    instruction.  Three stores in four write into the line of the
    previous data access, so they tend to hit in L1-D and L2-D and, back
    to back, to fill the write buffer.  One load in four reads that
    line, so it may find a line a write-only store miss allocated."""
    n = draw(st.integers(1, 40))
    pcs, kinds, addrs, partials, syscalls = [], [], [], [], []
    last = None  # the previous data access's address
    pc = draw(addresses)
    for i in range(n):
        if i and draw(st.integers(0, 4)) == 0:
            pc = draw(addresses)
        elif i:
            pc += 1
        kind = draw(st.sampled_from((0, 0, 1, 2, 2)))
        if (kind and last is not None
                and draw(st.integers(0, 3)) < (3 if kind == 2 else 1)):
            addr = (last // D_LINE * D_LINE
                    + draw(st.integers(0, D_LINE - 1)))
        elif kind:
            addr = draw(addresses)
        else:
            addr = 0
        if kind:
            last = addr
        pcs.append(pc)
        kinds.append(kind)
        addrs.append(addr)
        partials.append(kind == 2 and draw(st.booleans()))
        syscalls.append(draw(st.integers(0, 9)) == 0)
    return pcs, kinds, addrs, partials, syscalls


def inline_branches(config: SystemConfig, done: Counter) -> set:
    """The inline miss branches one engine call took, told apart by what
    it counted without a handler call (``done``, a
    :meth:`HandlerSpy.inline` difference).  A buffer stall in a call
    with inline misses on one side only is that side's wait."""
    taken = {name for name in ("i_misses", "read_misses", "write_misses",
                               "wo_misses") if done[name]}
    if done["pushes"] and config.write_policy is WritePolicy.WRITE_BACK:
        taken.add("victims")
    if done["stall_wb"] and not done["read_misses"] + done["write_misses"]:
        taken.add("i_wait")
    if done["stall_wb"] and not done["i_misses"]:
        taken.add("d_wait")
    return taken


def track_inline(pair: Pair, taken: set) -> None:
    """Wrap ``pair.call`` so that each call adds to ``taken`` the inline
    miss branches the batched engine took in it."""
    spy = HandlerSpy(pair.bat)
    call = pair.call
    config = pair.bat.config

    def counted(*args):
        before = spy.inline()
        result = call(*args)
        taken.update(inline_branches(config, spy.inline() - before))
        return result

    pair.call = counted


def track_tlbs(pair: Pair, seen: set) -> None:
    """Wrap the reference system's TLB probes (it calls ``TLB.access``
    for every one) so that each adds to ``seen`` what it found, as
    ``(tlb, "mru hit" | "lru hit" | "miss")``."""
    for name in ("itlb", "dtlb"):
        tlb = getattr(pair.ref, name)

        def probe(pid, page, tlb=tlb, name=name, access=tlb.access):
            ways = tlb._sets[page & (tlb.sets - 1)]
            tag = (pid, page)
            seen.add((name, "miss" if tag not in ways
                      else "mru hit" if ways[0] == tag else "lru hit"))
            return access(pid, page)

        tlb.access = probe


def test_generated_schedules():
    """Each policy gets its own examples, and each example also runs on
    its machine's twin with the baseline buffer discipline and a
    direct-mapped L2, where the loop finishes L1 misses itself:
    hypothesis draws examples in runs of similar ones, and drawing from
    all machines at once went whole runs without a write-back or
    write-only machine of that kind."""
    taken = set()
    probed = set()
    for policy in WritePolicy:
        # No shrink phase: shrinking a failing schedule took minutes and
        # hundreds of MB, so the first falsifying example is reported.
        @settings(max_examples=35, deadline=None,
                  phases=[p for p in Phase if p is not Phase.shrink])
        @given(combo=st.sampled_from([m for m in MACHINES
                                      if m[0] is policy]),
               dirty_buffer=st.booleans(), i_line=st.sampled_from((4, 8)),
               l2_ways=st.sampled_from((1, 2)),
               tlb_ways=st.sampled_from((1, 2)),
               processes=st.lists(st.lists(batches(), min_size=1,
                                           max_size=3),
                                  min_size=1, max_size=3),
               slices=st.lists(st.integers(1, 50), min_size=1, max_size=6),
               probe_end=st.booleans())
        def run(combo, dirty_buffer, i_line, l2_ways, tlb_ways, processes,
                slices, probe_end):
            policy, bypass, tlb, depth, i_refill = combo
            processes = [[prepared(*columns, i_line=i_line)
                          for columns in process] for process in processes]
            twins = dict.fromkeys(((bypass, l2_ways), (BypassMode.NONE, 1)))
            for discipline, ways in twins:
                pair = Pair(machine(policy, discipline, tlb, depth, i_refill,
                                    dirty_buffer, i_line, ways, tlb_ways))
                track_inline(pair, taken)
                track_tlbs(pair, probed)
                schedule(pair, processes, slices, probe_end)

        run()
    # Every inline miss branch ran, and agreed with ``reference``.
    assert taken == {"i_misses", "read_misses", "write_misses", "wo_misses",
                     "victims", "d_wait", "i_wait"}
    # Both TLBs hit their most recently used entry (which the batched
    # loop counts itself), hit the other way and missed.
    assert probed == {(name, found) for name in ("itlb", "dtlb")
                      for found in ("mru hit", "lru hit", "miss")}


# -- pinned cases ----------------------------------------------------------


def sweep(config, batch):
    """Run ``batch`` once per deadline from 1 to 39 cycles, each time on
    fresh machines, comparing the engines; yields ``(deadline, result,
    reference memory system)``."""
    for deadline in range(1, 40):
        pair = Pair(config)
        yield deadline, pair.call(batch, 0, deadline), pair.ref


def crossings(config, batch, consumed):
    """Deadlines at which the call ends after ``consumed`` instructions
    with the clock past the deadline: the last one stalled across it."""
    return [(deadline, ms) for deadline, result, ms in sweep(config, batch)
            if result == (consumed, REASON_SLICE) and ms.now > deadline]


class TestDeadlineCrossedByAStall:
    def test_instruction_miss(self):
        # pc 4 opens a new, cold line.
        batch = prepared(range(12))
        hits = crossings(machine(), batch, consumed=5)
        assert hits and all(ms.stats.l1i_misses == 2 for _, ms in hits)

    def test_load_miss(self):
        batch = prepared(range(4), kinds=[0, 0, 1, 0], addrs=[0, 0, 40, 0])
        hits = crossings(machine(), batch, consumed=3)
        assert hits and all(ms.stats.l1d_read_misses == 1 for _, ms in hits)

    def test_tlb_miss(self):
        # The second pass returns to page 0, which the one-entry I-TLB
        # no longer holds, on a line L1-I still holds.
        pcs = [4094, 4095, 4096, 4097] * 2
        hits = crossings(machine(tlb=True), prepared(pcs), consumed=5)
        assert hits and all(ms.stats.l1i_misses == 2
                            and ms.itlb.misses == 3 for _, ms in hits)

    def test_write_back_store_hit(self):
        # The store hits the line the load installed; its second cycle
        # is the only one past the deadline.
        batch = prepared(range(4), kinds=[0, 1, 2, 0], addrs=[0, 40, 41, 0])
        hits = crossings(machine(), batch, consumed=3)
        assert [ms.now - deadline for deadline, ms in hits] == [1]
        assert all(ms.stats.stall_l1_writes == 1 for _, ms in hits)

    @pytest.mark.parametrize("policy", WRITE_THROUGH)
    def test_store_into_a_full_buffer(self, policy):
        # Word 76 shares line 10's L2 set but not its L1-D set, so the
        # store to 41 hits in L1-D only and its drain misses in L2.  The
        # store to 42 hits in both but finds the one-entry buffer full,
        # and its wait for that drain crosses the deadline.
        batch = prepared(range(5), kinds=[1, 1, 2, 2, 0],
                         addrs=[40, 76, 41, 42, 0])
        hits = crossings(machine(policy, depth=1), batch, consumed=4)
        assert [ms.now - deadline for deadline, ms in hits] == [
            6, 5, 4, 3, 2, 1]
        assert all(ms.stats.stall_wb == 6 for _, ms in hits)


@pytest.mark.parametrize("at", (5, 4), ids=("free", "line-change"))
def test_syscall_ties_with_deadline(at):
    syscalls = [i == at for i in range(12)]
    batch = prepared(range(12), syscalls=syscalls)
    ties = [ms for deadline, result, ms in sweep(machine(), batch)
            if result == (at + 1, REASON_SYSCALL) and ms.now == deadline]
    assert len(ties) == 1


def test_start_at_batch_end():
    batch = prepared(range(6), kinds=[0, 2, 0, 1, 0, 0],
                     addrs=[0, 3, 0, 9, 0, 0])
    pair = Pair(machine(tlb=True))
    assert pair.call(batch, 0, 1 << 40) == (6, REASON_END)
    assert pair.call(batch, 6, pair.now + 5) == (0, REASON_END)
    assert pair.call(batch, 6, pair.now - 5) == (0, REASON_END)


def test_deadline_already_reached():
    # A call runs at least one instruction, as the reference loop does.
    batch = prepared(range(8), kinds=[0, 1, 0, 0, 2, 0, 0, 0],
                     addrs=[0, 5, 0, 0, 6, 0, 0, 0],
                     syscalls=[i == 6 for i in range(8)])
    pair = Pair(machine(tlb=True))
    for start in (0, 1, 3, 4, 6, 7):
        for behind in (0, 1, 50):
            reason = REASON_SYSCALL if start == 6 else REASON_SLICE
            assert pair.call(batch, start, pair.now - behind) == (1, reason)


def test_resume_on_a_line_another_process_evicted():
    config = machine()
    mine = prepared(range(8))
    theirs = prepared([16, 17])  # line 4: L1-I index 0, as line 0
    pair = Pair(config)
    assert pair.call(mine, 0, pair.now + 1) == (1, REASON_SLICE)
    pair.call(theirs, 0, 1 << 40)
    misses = pair.ref.stats.l1i_misses
    assert pair.call(mine, 1, 1 << 40) == (7, REASON_END)
    # pc 1 missed again (and pc 4, a new line, for the first time).
    assert pair.ref.stats.l1i_misses == misses + 2


def test_epoch_bump_then_inline_store_hit():
    # The configuration rules pair the dirty-bit scheme with write-only
    # only, so its epoch never moves under write-back; forcing the scheme
    # on shows the inline store hit reads the epoch when it stores.
    pair = Pair(machine())
    for ms in pair.systems:
        ms._bypass = BypassMode.DIRTY_BIT
        ms._dirty_bit_bypass = True
    # A store miss and a load miss, each bumping the epoch, then a store
    # hit on the first store's line.
    batch = prepared(range(3), kinds=[2, 1, 2], addrs=[40, 20, 41])
    assert pair.call(batch, 0, 1 << 40) == (3, REASON_END)
    ref = pair.ref
    assert ref._dirty_epoch == 3
    assert ref._ddirty[10 & ref._d_mask] == 3


@pytest.mark.parametrize("policy", WRITE_THROUGH)
def test_write_through_store_hit_calls_no_handler(policy):
    # The load installs line 10 in L1-D and L2-D; the store hits both
    # and finds the buffer empty.
    pair = Pair(machine(policy))
    calls = HandlerSpy(pair.bat).calls["store"]
    batch = prepared(range(2), kinds=[1, 2], addrs=[40, 41])
    assert pair.call(batch, 0, 1 << 40) == (2, REASON_END)
    assert calls == []
    ref = pair.ref
    assert ref.wb.pushes == 1 and ref.stats.l2_write_accesses == 1
    assert ref.stats.l2_write_misses == 0


@pytest.mark.parametrize("policy", WRITE_THROUGH)
@pytest.mark.parametrize("gap", (1, 0), ids=("retires", "full"))
def test_drain_completing_at_the_store(policy, gap):
    # The first store's drain completes two cycles after it.  One
    # instruction later, the second store finds it completing in its own
    # cycle: the entry retires and the store stays inline.  Back to
    # back, the one-entry buffer is full and the handler waits a cycle.
    kinds = [1, 2] + [0] * gap + [2]
    addrs = [40, 41] + [0] * gap + [42]
    pair = Pair(machine(policy, depth=1))
    calls = HandlerSpy(pair.bat).calls["store"]
    batch = prepared(range(len(kinds)), kinds=kinds, addrs=addrs)
    assert pair.call(batch, 0, 1 << 40) == (len(kinds), REASON_END)
    ref = pair.ref
    assert ref.stats.stall_wb == 1 - gap
    assert calls == ([] if gap else [42])
    assert ref.wb.retired == 1 and ref.wb.max_occupancy == 1


def test_subblock_partial_store_hit_next_to_a_full_word_one():
    # A partial-word write miss installs line 10 with no valid word.  A
    # full-word store hit validates word 41; a partial one beside it
    # leaves word 42 invalid, so loading 41 hits and loading 42 misses.
    pair = Pair(machine(WritePolicy.SUBBLOCK))
    calls = HandlerSpy(pair.bat).calls["store"]
    stores = prepared(range(3), kinds=[2, 2, 2], addrs=[40, 41, 42],
                      partials=[True, False, True])
    assert pair.call(stores, 0, 1 << 40) == (3, REASON_END)
    assert calls == [40]
    assert pair.ref.l1d_line_state(41)["valid_mask"] == 0b0010
    misses = pair.ref.stats.l1d_read_misses
    loads = prepared(range(4, 6), kinds=[1, 1], addrs=[41, 42])
    assert pair.call(loads, 0, 1 << 40) == (2, REASON_END)
    assert pair.ref.stats.l1d_read_misses == misses + 1


@pytest.mark.parametrize("policy", WRITE_THROUGH)
def test_store_hit_whose_l2d_line_was_evicted(policy):
    # Loading word 76 evicts line 10's L2 line (the unified L2 has four
    # 8-word lines) but not its L1-D line: the store hits in L1-D only,
    # so the handler runs, and its drain misses in L2.
    pair = Pair(machine(policy))
    calls = HandlerSpy(pair.bat).calls["store"]
    batch = prepared(range(3), kinds=[1, 1, 2], addrs=[40, 76, 41])
    assert pair.call(batch, 0, 1 << 40) == (3, REASON_END)
    assert calls == [41]
    assert pair.ref.stats.l2_write_misses == 1
    assert pair.ref.l1d_line_state(41)["present"]


def test_one_batch_binds_one_l1i_line_size():
    # A process belongs to one simulation, so its batches to one machine:
    # a batch is prepared for that machine's L1-I line size, and a
    # machine with another line size is refused, under either engine,
    # before it changes any state.  An 8-word-line machine tries to take
    # turns with a 4-word one on one batch, a few cycles a call.
    n = 48
    batch = prepared(list(range(24)) + list(range(64, 88)),
                     kinds=[1 if i % 6 == 3 else 2 if i % 10 == 7 else 0
                            for i in range(n)],
                     addrs=[(i * 5) % 64 for i in range(n)])
    pair = Pair(machine(i_line=4))
    others = [MemorySystem(machine(i_line=8), engine=e) for e in ENGINES]
    pos = calls = 0
    while pos < n:
        consumed, _ = pair.call(batch, pos, pair.now + 7)
        pos += consumed
        calls += 1
        assert batch.il_shift == 2
        for ms in others:
            before = state(ms)
            if pos < n:
                with pytest.raises(SchedulingError, match="4-word"):
                    ms.run_slice(batch, pos, ms.now + 7)
            assert state(ms) == before
    assert calls > 5 and len(batch) == n


# -- inline L1 misses ------------------------------------------------------
#
# machine(): L1-I and L1-D sets of one 4-word line each, and four 8-word
# L2 lines.  Word w is in L1-D line w // 4 (set (w // 4) % 4) and in L2
# line w // 8 (set (w // 8) % 4), so 40 is in L1-D set 2 and L2 set 1.

#: Under write-back: L2 lines 0 (pcs 0-7) and 7 (words 56-63) resident,
#: line 10 (words 40-43) dirty in L1-D, and L2 set 1 holding line 9.
WB_SETUP = prepared(range(4), kinds=[0, 1, 2, 1], addrs=[0, 60, 40, 76])

#: After WB_SETUP, a load miss whose refill hits but whose dirty victim
#: misses in L2: the handler pushes line 10, allocating L2 line 5, with
#: a drain that outlasts the refill.
VICTIM_MISSES = prepared([3], kinds=[1], addrs=[56])

#: Under write-through: L2 lines 0 and 5 resident and the drain of a
#: store to line 10 in flight.
WT_SETUP = prepared(range(3), kinds=[0, 1, 2], addrs=[0, 40, 41])


def warmed(config: SystemConfig, *batches) -> tuple:
    """A pair that has run each of ``batches`` to its end, and a spy on
    its batched engine's handlers from then on."""
    pair = Pair(config)
    for batch in batches:
        pair.call(batch, 0, 1 << 40)
    return pair, HandlerSpy(pair.bat)


def behind_a_drain(policy) -> tuple:
    """A pair with a write in the buffer, L2 lines 0 and 5 resident and
    L1-D set 3 holding a clean line."""
    if policy is WritePolicy.WRITE_BACK:
        return warmed(machine(policy), WB_SETUP, VICTIM_MISSES)
    return warmed(machine(policy), WT_SETUP)


#: (policy, event kind) of every miss the loop can finish: a
#: write-through store miss always calls the handler.
INLINE_MISSES = [(policy, kind) for policy in WritePolicy for kind in (0, 1, 2)
                 if kind < 2 or policy is WritePolicy.WRITE_BACK]


@pytest.mark.parametrize("policy, kind", INLINE_MISSES, ids=[
    f"{policy.value}-{('ifetch', 'load', 'store')[kind]}"
    for policy, kind in INLINE_MISSES])
def test_miss_that_hits_in_l2_waits_inline(policy, kind):
    # pc 4 opens L1-I line 1 and word 44 is L1-D line 11: both miss in
    # L1 and hit L2 lines 0 and 5, behind the buffered write.
    pair, spy = behind_a_drain(policy)
    assert len(pair.ref.wb)
    batch = prepared([4]) if kind == 0 else prepared(
        [3], kinds=[kind], addrs=[44])
    assert pair.call(batch, 0, 1 << 40) == (1, REASON_END)
    assert not spy.called
    done = spy.inline()
    assert done[("i_misses", "read_misses", "write_misses")[kind]] == 1
    assert done["stall_wb"] > 0 and len(pair.ref.wb) == 0
    if kind == 2:
        assert pair.ref.l1d_line_state(44)["dirty"]


def test_dirty_victim_that_hits_in_l2_is_pushed_inline():
    # The store miss installs line 11 dirty in L1-D set 3; loading word
    # 60 evicts it.  Its L2 line 5 and the refill's L2 line 7 are both
    # resident, in different sets.
    pair, spy = behind_a_drain(WritePolicy.WRITE_BACK)
    batch = prepared([2, 3], kinds=[2, 1], addrs=[44, 60])
    assert pair.call(batch, 0, 1 << 40) == (2, REASON_END)
    assert not spy.called
    assert spy.inline()["pushes"] == 1
    assert pair.ref.wb._entries[0][0] == 11


def test_write_only_read_miss_inline():
    # The store miss allocates line 10 write-only, and its drain
    # allocates L2 line 5: the load finds the tag, misses, and refills
    # from L2 after waiting for that drain.
    pair, spy = warmed(machine(WritePolicy.WRITE_ONLY),
                       prepared(range(2), kinds=[0, 2], addrs=[0, 40]))
    assert pair.call(prepared([2], kinds=[1], addrs=[41]), 0,
                     1 << 40) == (1, REASON_END)
    assert not spy.called
    done = spy.inline()
    assert done["wo_misses"] == done["read_misses"] == 1
    assert done["stall_wb"] > 0


def test_instruction_miss_under_concurrent_refill_does_not_wait():
    pair, spy = warmed(machine(WritePolicy.WRITE_ONLY, i_refill=True),
                       WT_SETUP)
    assert pair.call(prepared([4]), 0, 1 << 40) == (1, REASON_END)
    assert not spy.called
    assert spy.inline()["i_misses"] == 1
    assert pair.ref.stats.stall_wb == 0 and len(pair.ref.wb) == 1


def test_refill_that_misses_in_l2_calls_the_handler():
    # L2 lines 1, 2 and 12 are not resident.
    pair, spy = warmed(machine(), prepared([0]))
    batch = prepared([8, 9, 10], kinds=[0, 1, 2], addrs=[0, 20, 100])
    assert pair.call(batch, 0, 1 << 40) == (3, REASON_END)
    assert spy.calls == {"ifetch": [2], "load": [5], "store": [100]}


def test_dirty_victim_that_misses_in_l2_calls_the_handler():
    pair, spy = warmed(machine(), WB_SETUP)
    assert pair.call(VICTIM_MISSES, 0, 1 << 40) == (1, REASON_END)
    assert spy.calls == {"ifetch": [], "load": [14], "store": []}
    assert pair.ref.stats.l2_write_misses == 1


def test_dirty_victim_in_the_refills_l2_set_calls_the_handler():
    # Dirty line 10 (L2 line 5) and line 18 (L2 line 9) share L1-D set 2
    # and L2 set 1, which holds line 9: the refill's line is resident
    # until the victim's drain allocates line 5 over it.
    pair, spy = warmed(machine(), prepared(range(3), kinds=[0, 2, 1],
                                           addrs=[0, 40, 76]))
    misses = pair.ref.stats.l2d_misses
    assert pair.call(prepared([3], kinds=[1], addrs=[72]), 0,
                     1 << 40) == (1, REASON_END)
    assert spy.calls == {"ifetch": [], "load": [18], "store": []}
    assert pair.ref.stats.l2d_misses == misses + 1


@pytest.mark.parametrize("config, ifetch", (
    (machine(l2_ways=2), [1]),
    (machine(WritePolicy.WRITE_ONLY, BypassMode.DIRTY_BIT), []),
    (machine(WritePolicy.WRITE_BACK, BypassMode.ASSOCIATIVE), []),
), ids=("2-way-l2", "dirty-bit", "associative"))
def test_misses_the_loop_leaves_to_the_handlers(config, ifetch):
    # Both misses hit in L2.  An associative L2 sends both to the
    # handlers; a bypass discipline only the L1-D one.
    pair, spy = warmed(config, prepared(range(2), kinds=[0, 1],
                                        addrs=[0, 40]))
    batch = prepared([4, 5], kinds=[0, 1], addrs=[0, 44])
    assert pair.call(batch, 0, 1 << 40) == (2, REASON_END)
    assert spy.calls == {"ifetch": ifetch, "load": [11], "store": []}


def test_traced_misses_call_the_handlers(tmp_path):
    # The misses of test_miss_that_hits_in_l2_waits_inline, traced: the
    # handlers emit the miss events, so the loop finishes none of them
    # itself.  Each engine traces the same events.
    pair, spy = behind_a_drain(WritePolicy.WRITE_BACK)
    trace = tmp_path / "trace.jsonl"
    obs.enable(trace, sample_interval=None)
    try:
        pair.call(prepared([4, 5], kinds=[0, 2], addrs=[0, 44]), 0, 1 << 40)
    finally:
        obs.disable()
    assert spy.calls == {"ifetch": [1], "load": [], "store": [44]}
    events = [event for event in read_events(trace)
              if event["ev"] not in ("meta", "span")]
    half = len(events) // 2
    assert {"l1i_miss", "l1d_miss", "wb_stall"} <= {
        event["ev"] for event in events}
    assert events == events[:half] * 2
