"""The batched engine's hit thresholds against a walk of the whole batch.

``HitThresholds`` finds from a batch's event columns, with sorts and
running maxima, per event, the latest earlier access that proves it an
L1 hit.  Here a
plain Python walk over every instruction of the batch keeps, per L1-I
and L1-D set, the run of its current line (the set's accesses since
another line last touched it) and applies the rule as the batched
engine's module docstring states it; the two must agree on generated
batches, line sizes, set counts, every write policy, and with stores
proven or not.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import WritePolicy
from repro.core.engine.batched import HitThresholds
from repro.params import PAGE_WORDS
from repro.sched.process import PreparedBatch


def witness(run, kind, addr, policy, stores):
    """The position of the latest access of ``run`` (a list of
    ``(position, kind, addr, partial)``) that proves an access of
    ``kind`` to ``addr`` an L1-D hit, or -1."""
    if kind == 1 and policy is WritePolicy.WRITE_BACK:
        proves = run
    elif kind == 2 and stores:
        proves = [q for q in run if q[1] == 2]
    elif kind == 2:
        proves = []
    elif policy is WritePolicy.SUBBLOCK:
        proves = [q for q in run if q[2] == addr and not q[3]]
    else:
        proves = [q for q in run if q[1] == 1]
    return proves[-1][0] if proves else -1


def walk(columns, il_shift, i_sets, dl_shift, d_sets, policy,
         stores) -> dict:
    """Position -> threshold for every event of the batch of
    ``columns`` (pcs, kinds, addresses, partial flags)."""
    last_i = {}  # L1-I set -> (position, line) of its latest access
    runs = {}  # L1-D set -> (line, the accesses of its current run)
    thresholds = {}
    prev_line = prev_addr = None
    for p, (pc, kind, addr, partial) in enumerate(zip(*columns)):
        line = pc >> il_shift
        sides = []
        if line != prev_line:
            q = last_i.get(line % i_sets)
            proven = (q is not None and q[1] == line
                      and (prev_line << il_shift) // PAGE_WORDS
                      == (line << il_shift) // PAGE_WORDS)
            sides.append(q[0] if proven else -1)
        last_i[line % i_sets] = (p, line)
        prev_line = line
        if kind:
            dline = addr >> dl_shift
            held, run = runs.get(dline % d_sets, (None, []))
            if held != dline:
                run = []
            same_page = (prev_addr is not None
                         and prev_addr // PAGE_WORDS == addr // PAGE_WORDS)
            sides.append(witness(run, kind, addr, policy, stores)
                         if same_page else -1)
            runs[dline % d_sets] = (dline, run + [(p, kind, addr, partial)])
            prev_addr = addr
        if sides:
            thresholds[p] = min(sides)
    return thresholds


@st.composite
def batches(draw):
    """The columns (pcs, kinds, addresses, partial flags) of loops over
    a few lines on two pages, some data on three pages, full and partial
    stores."""
    n = draw(st.integers(1, 120))
    pages = st.integers(0, 2).map(lambda page: page * PAGE_WORDS)
    pc = draw(pages) + draw(st.integers(0, 40))
    pcs, kinds, addrs, partials = [], [], [], []
    for i in range(n):
        if i and draw(st.integers(0, 5)) == 0:
            pc = draw(pages) + draw(st.integers(0, 40))
        elif i:
            pc += 1
        pcs.append(pc)
        kind = draw(st.sampled_from((0, 0, 1, 1, 2)))
        kinds.append(kind)
        addrs.append(draw(pages) + draw(st.integers(0, 40)) if kind else 0)
        partials.append(kind == 2 and draw(st.booleans()))
    return pcs, kinds, addrs, partials


@settings(max_examples=300, deadline=None)
@given(columns=batches(), il_shift=st.integers(0, 3),
       i_sets=st.sampled_from((1, 2, 4, 8)), dl_shift=st.integers(0, 3),
       d_sets=st.sampled_from((1, 2, 4, 8)),
       policy=st.sampled_from(list(WritePolicy)), stores=st.booleans())
def test_thresholds_match_a_walk_of_the_batch(columns, il_shift, i_sets,
                                              dl_shift, d_sets, policy,
                                              stores):
    stores = stores and policy is WritePolicy.WRITE_BACK
    batch = PreparedBatch(*columns, [False] * len(columns[0]), il_shift)
    hits = HitThresholds(batch, (i_sets - 1, dl_shift, d_sets - 1, policy,
                                 stores))
    assert hits.thresholds.dtype == np.int32
    expected = walk(columns, il_shift, i_sets, dl_shift, d_sets, policy,
                    stores)
    assert dict(zip(batch.positions.tolist(),
                    hits.thresholds.tolist())) == expected
    if stores:
        kinds = columns[1]
        proven = sorted((p, q) for p, q in expected.items()
                        if q >= 0 and kinds[p] == 2)
        at, below = hits.proven_stores
        assert list(zip(at.tolist(), below.tolist())) == proven
