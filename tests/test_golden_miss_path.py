"""Golden digests of the miss path over a pairwise machine matrix.

Both engines run the same L1 miss, store and refill handlers (DESIGN §12),
so engine lockstep cannot catch a regression inside them.  This suite pins
their output instead.  Each machine of a reduced-scale matrix runs a short
multiprogrammed workload under each engine, and three SHA-256 digests are
compared with committed values:

* ``stats``: the full :class:`~repro.core.stats.SimStats`;
* ``state``: the final ``MemorySystem.state_dict()``, engine name removed;
* ``events``: the obs event stream, without the ``meta`` and ``span``
  records (they carry wall-clock times and process ids).

The matrix covers every pair of values of write policy, bypass mode, L2
dirty buffer, unified or split L2, L2 ways, TLB on or off, concurrent
I-refill and L1 line size that the configuration rules allow.

After an intended change to the timing model, re-record the digests with::

    PYTHONPATH=src python3 tests/test_golden_miss_path.py --record
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
import sys
import tempfile
from pathlib import Path

import pytest

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
    write_through_buffer,
)
from repro.core.simulator import Simulation
from repro.obs.tracing import read_events
from repro.trace.benchmarks import default_suite

GOLDEN = Path(__file__).with_name("golden_miss_path.json")

ENGINES = ("reference", "batched")

#: Factor -> every value it takes.
FACTORS = {
    "policy": tuple(p.value for p in WritePolicy),
    "bypass": tuple(b.value for b in BypassMode),
    "dirty_buffer": (False, True),
    "split": (False, True),
    "ways": (1, 2),
    "tlb": (False, True),
    "i_refill": (False, True),
    "l1_line": (4, 8),
}

#: One machine per row, in :data:`FACTORS` order.
MATRIX = (
    ("write-back", "none", False, False, 1, False, False, 4),
    ("write-back", "associative", True, True, 2, True, True, 8),
    ("write-only", "dirty-bit", False, False, 2, True, False, 8),
    ("write-only", "dirty-bit", True, True, 1, False, True, 4),
    ("write-miss-invalidate", "none", False, True, 1, True, True, 8),
    ("write-miss-invalidate", "associative", True, False, 2, False, False, 4),
    ("subblock", "none", True, True, 2, False, False, 8),
    ("subblock", "associative", False, False, 1, True, False, 4),
    ("write-only", "none", False, False, 1, False, False, 4),
    ("write-only", "associative", False, False, 1, False, False, 4),
    ("subblock", "none", False, True, 1, False, True, 4),
)

CASES = [dict(zip(FACTORS, row)) for row in MATRIX]


def case_id(case: dict) -> str:
    return "-".join(str(case[name]) for name in FACTORS)


def allowed(case: dict) -> bool:
    """The configuration rules, for a full or partial assignment."""
    if (case.get("bypass") == "dirty-bit"
            and case.get("policy", "write-only") != "write-only"):
        return False
    if case.get("i_refill") and case.get("split") is False:
        return False
    return True


def machine(case: dict) -> SystemConfig:
    """A small machine, so L2 misses and dirty victims are frequent."""
    policy = WritePolicy(case["policy"])
    line = case["l1_line"]
    if policy is WritePolicy.WRITE_BACK:
        buffer = WriteBufferConfig(depth=4, width_words=line,
                                   overlap_cycles=2)
    else:
        buffer = write_through_buffer()
    if case["split"]:
        l2 = L2Config(size_words=8192, line_words=32, ways=case["ways"],
                      access_time=6, split=True, i_size_words=2048,
                      d_size_words=4096, i_access_time=2)
    else:
        l2 = L2Config(size_words=4096, line_words=32, ways=case["ways"],
                      access_time=6)
    return SystemConfig(
        name=case_id(case),
        icache=CacheConfig(size_words=1024, line_words=line),
        dcache=CacheConfig(size_words=1024, line_words=line),
        write_policy=policy,
        write_buffer=buffer,
        l2=l2,
        concurrency=ConcurrencyConfig(
            i_refill_during_wb_drain=case["i_refill"],
            bypass=BypassMode(case["bypass"]),
            l2_dirty_buffer=case["dirty_buffer"]),
        tlb=TLBConfig(enabled=case["tlb"]),
    )


def _sha(payload) -> str:
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def run_case(case: dict, engine: str, trace_path=None):
    """``(stats digest, state digest)`` of one run; traced when
    ``trace_path`` is given."""
    sim = Simulation(config=machine(case),
                     profiles=default_suite(8_000)[1::3], level=3,
                     time_slice=1_500, warmup_instructions=4_000,
                     engine=engine)
    if trace_path is not None:
        obs.enable(trace_path, sample_interval=5_000)
    try:
        stats = sim.run()
    finally:
        if trace_path is not None:
            obs.disable()
    state = sim.memsys.state_dict()
    del state["engine"]
    return _sha(dataclasses.asdict(stats)), _sha(state)


def event_digest(path) -> str:
    events = [event for event in read_events(path)
              if event["ev"] not in ("meta", "span")]
    return _sha(events)


def digests(case: dict, engine: str, workdir: Path) -> dict:
    """All three digests of one case, checking that tracing changes
    neither the statistics nor the final state."""
    stats, state = run_case(case, engine)
    path = workdir / f"{case_id(case)}-{engine}.jsonl"
    assert run_case(case, engine, trace_path=path) == (stats, state)
    return {"stats": stats, "state": state, "events": event_digest(path)}


def test_matrix_covers_every_allowed_pair():
    covered = {(a, case[a], b, case[b]) for case in CASES
               for a, b in itertools.combinations(FACTORS, 2)}
    for a, b in itertools.combinations(FACTORS, 2):
        for value_a in FACTORS[a]:
            for value_b in FACTORS[b]:
                if allowed({a: value_a, b: value_b}):
                    assert (a, value_a, b, value_b) in covered, (a, value_a,
                                                                 b, value_b)
    assert all(allowed(case) for case in CASES)


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_digests_match_recorded(case, engine, tmp_path):
    recorded = json.loads(GOLDEN.read_text())[case_id(case)]
    assert digests(case, engine, tmp_path) == recorded


def record() -> None:
    """Rewrite the committed digests; every engine must agree."""
    golden = {}
    with tempfile.TemporaryDirectory() as workdir:
        for case in CASES:
            runs = [digests(case, engine, Path(workdir))
                    for engine in ENGINES]
            if any(run != runs[0] for run in runs):
                raise SystemExit(f"engines disagree on {case_id(case)}")
            golden[case_id(case)] = runs[0]
    GOLDEN.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")
    print(f"recorded {len(golden)} cases in {GOLDEN}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        raise SystemExit(f"usage: {sys.argv[0]} --record")
    record()
