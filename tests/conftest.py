"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np
import pytest

from repro.core.config import (
    CacheConfig,
    ConcurrencyConfig,
    L2Config,
    SystemConfig,
    TLBConfig,
    WriteBufferConfig,
    WritePolicy,
)
from repro.core.hierarchy import MemorySystem
from repro.sched.process import PreparedBatch
from repro.trace.record import KIND_LOAD, KIND_NONE, KIND_STORE, TraceBatch

#: An op is (pc, kind, addr); optional 4th element marks a partial store.
Op = Tuple


def tiny_config(policy: WritePolicy = WritePolicy.WRITE_BACK,
                l1_size: int = 64,
                l1_line: int = 4,
                l2_size: int = 1024,
                l2_access: int = 6,
                l2_split: bool = False,
                wb_depth: Optional[int] = None,
                wb_width: Optional[int] = None,
                concurrency: Optional[ConcurrencyConfig] = None,
                tlb_enabled: bool = False) -> SystemConfig:
    """A small, fully deterministic system for hand-computed scenarios.

    TLBs are disabled by default so cycle counts depend only on caches.
    """
    if wb_depth is None:
        wb_depth = 4 if policy is WritePolicy.WRITE_BACK else 8
    if wb_width is None:
        wb_width = l1_line if policy is WritePolicy.WRITE_BACK else 1
    config = SystemConfig(
        name="tiny",
        icache=CacheConfig(size_words=l1_size, line_words=l1_line),
        dcache=CacheConfig(size_words=l1_size, line_words=l1_line),
        write_policy=policy,
        write_buffer=WriteBufferConfig(depth=wb_depth, width_words=wb_width),
        l2=L2Config(size_words=l2_size, line_words=32, ways=1,
                    access_time=l2_access, split=l2_split),
        concurrency=concurrency or ConcurrencyConfig(),
        tlb=TLBConfig(enabled=tlb_enabled),
    )
    config.validate()
    return config


def run_ops(memsys: MemorySystem, ops: Iterable[Op]) -> int:
    """Run hand-written (pc, kind, addr[, partial]) ops; returns cycles used."""
    pcs: List[int] = []
    kinds: List[int] = []
    addrs: List[int] = []
    partials: List[bool] = []
    for op in ops:
        pc, kind, addr = op[0], op[1], op[2]
        partial = bool(op[3]) if len(op) > 3 else False
        pcs.append(pc)
        kinds.append(kind)
        addrs.append(addr)
        partials.append(partial)
    syscalls = [False] * len(pcs)
    before = memsys.now
    result = memsys.run_slice(
        PreparedBatch(pcs, kinds, addrs, partials, syscalls,
                      memsys._il_shift), 0, 1 << 60)
    assert result.consumed == len(pcs)
    return memsys.now - before


def instr(pc: int) -> Op:
    """An instruction with no data access."""
    return (pc, KIND_NONE, 0)


def load(addr: int, pc: int = 0) -> Op:
    """A load instruction (pc defaults to 0 so L1-I stays hot)."""
    return (pc, KIND_LOAD, addr)


def store(addr: int, pc: int = 0, partial: bool = False) -> Op:
    """A store instruction."""
    return (pc, KIND_STORE, addr, partial)


def make_batch(pcs: Sequence[int],
               kinds: Optional[Sequence[int]] = None,
               addrs: Optional[Sequence[int]] = None,
               partial: Optional[Sequence[bool]] = None,
               syscall: Optional[Sequence[bool]] = None) -> TraceBatch:
    """Build a TraceBatch from plain sequences with sensible defaults."""
    n = len(pcs)
    return TraceBatch(
        pc=np.asarray(pcs, dtype=np.int64),
        kind=np.asarray(kinds if kinds is not None else [KIND_NONE] * n,
                        dtype=np.uint8),
        addr=np.asarray(addrs if addrs is not None else [0] * n,
                        dtype=np.int64),
        partial=np.asarray(partial if partial is not None else [False] * n,
                           dtype=bool),
        syscall=np.asarray(syscall if syscall is not None else [False] * n,
                           dtype=bool),
    )


@pytest.fixture(autouse=True)
def _isolated_farm_cache(tmp_path, monkeypatch):
    """Point the farm's result cache at a per-test directory so the suite
    neither reads from nor pollutes the user's ~/.cache/repro-farm."""
    monkeypatch.setenv("REPRO_FARM_CACHE", str(tmp_path / "farm-cache"))


@pytest.fixture
def write_back_system() -> MemorySystem:
    """A tiny write-back memory system."""
    return MemorySystem(tiny_config(WritePolicy.WRITE_BACK))


@pytest.fixture
def write_only_system() -> MemorySystem:
    """A tiny write-only memory system."""
    return MemorySystem(tiny_config(WritePolicy.WRITE_ONLY))
