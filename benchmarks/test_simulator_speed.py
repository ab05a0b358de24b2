"""Bench: raw simulator throughput.

The paper's compiled-per-configuration simulator ran at ~240,000 references
per second on a MIPS RC3240; this tracks the reproduction's throughput on
the host (typically several hundred thousand instructions per second).
"""

from repro.core.config import base_architecture
from repro.core.hierarchy import MemorySystem
from repro.mmu.page_table import PageTable
from repro.sched.process import PreparedBatch
from repro.trace.benchmarks import default_suite
from repro.trace.synthetic import SyntheticBenchmark

INSTRUCTIONS = 200_000


def prepare():
    profile = default_suite(INSTRUCTIONS)[0]
    batch = SyntheticBenchmark(profile,
                               batch_size=INSTRUCTIONS).next_batch()
    il_shift = MemorySystem(base_architecture())._il_shift
    return PreparedBatch.from_batch(batch, pid=1, page_table=PageTable(),
                                    il_shift=il_shift)


def test_simulator_throughput(benchmark):
    prepared = prepare()

    def run():
        memsys = MemorySystem(base_architecture())
        memsys.run_slice(prepared, 0, 1 << 60)
        return memsys.stats.instructions

    executed = benchmark.pedantic(run, rounds=3, iterations=1)
    assert executed == INSTRUCTIONS
