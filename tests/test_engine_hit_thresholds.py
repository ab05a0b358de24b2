"""The event index's hit thresholds against a walk of the whole batch.

``EventIndex.thresholds`` finds with sorts and compares, per event, the
latest earlier access that proves it an L1 hit.  Here a plain Python
walk over every instruction of the batch keeps the latest access to
each L1-I and L1-D set and applies the rule as the batched engine's
module docstring states it; the two must agree on generated batches,
line sizes, set counts and every write policy.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import WritePolicy
from repro.core.engine.batched import EventIndex
from repro.params import PAGE_WORDS
from repro.sched.process import PreparedBatch


def walk(batch, il_shift, i_sets, dl_shift, d_sets, policy) -> dict:
    """Position -> threshold for every event of ``batch``."""
    last_i = {}  # L1-I set -> (position, line) of its latest access
    last_d = {}  # L1-D set -> (position, line, kind, addr)
    thresholds = {}
    prev_line = prev_addr = None
    for p, (pc, kind, addr) in enumerate(zip(
            batch.pc.tolist(), batch.kind.tolist(), batch.addr.tolist())):
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
            q = last_d.get(dline % d_sets)
            proven = (kind == 1 and q is not None and q[1] == dline
                      and prev_addr // PAGE_WORDS == addr // PAGE_WORDS)
            if policy is not WritePolicy.WRITE_BACK:
                proven = proven and q[2] == 1
            if policy is WritePolicy.SUBBLOCK:
                proven = proven and q[3] == addr
            sides.append(q[0] if proven else -1)
            last_d[dline % d_sets] = (p, dline, kind, addr)
            prev_addr = addr
        if sides:
            thresholds[p] = min(sides)
    return thresholds


@st.composite
def batches(draw):
    """Loops over a few lines on two pages, some data on three pages."""
    n = draw(st.integers(1, 120))
    pages = st.integers(0, 2).map(lambda page: page * PAGE_WORDS)
    pc = draw(pages) + draw(st.integers(0, 40))
    pcs, kinds, addrs = [], [], []
    for i in range(n):
        if i and draw(st.integers(0, 5)) == 0:
            pc = draw(pages) + draw(st.integers(0, 40))
        elif i:
            pc += 1
        pcs.append(pc)
        kind = draw(st.sampled_from((0, 0, 1, 1, 2)))
        kinds.append(kind)
        addrs.append(draw(pages) + draw(st.integers(0, 40)) if kind else 0)
    return PreparedBatch(pcs, kinds, addrs, [False] * n, [False] * n)


@settings(max_examples=300, deadline=None)
@given(batch=batches(), il_shift=st.integers(0, 3),
       i_sets=st.sampled_from((1, 2, 4, 8)), dl_shift=st.integers(0, 3),
       d_sets=st.sampled_from((1, 2, 4, 8)),
       policy=st.sampled_from(list(WritePolicy)))
def test_thresholds_match_a_walk_of_the_batch(batch, il_shift, i_sets,
                                              dl_shift, d_sets, policy):
    events = EventIndex(batch, (il_shift, i_sets - 1, dl_shift, d_sets - 1,
                                policy))
    thresholds = events.thresholds()
    assert thresholds.dtype == np.int32
    assert dict(zip(events.positions.tolist(), thresholds.tolist())) == walk(
        batch, il_shift, i_sets, dl_shift, d_sets, policy)
