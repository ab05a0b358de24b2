"""Fault injection: deliberately corrupt trace and simulator state.

Used by the test suite (``tests/test_faults.py``) to prove the robustness
contract: every corruption class below is either **detected** — batch
validation raises :class:`~repro.errors.TraceError`, the invariant auditor
raises :class:`~repro.errors.StateCorruptionError`, checkpoint verification
raises :class:`~repro.errors.CheckpointError` — or **gracefully degraded**
(``trace_errors="skip"`` drops and counts the records).  Nothing on this
list can silently bend the CPI.

Corruption classes:

=====================  ====================================================
injection              detection mechanism
=====================  ====================================================
corrupt_kind           batch validation (unknown access kind)
corrupt_addr           batch validation (negative address)
corrupt_partial_flag   batch validation (partial on a non-store)
truncate_batch         batch validation (column length mismatch)
flip_l1d_tag_bit       low bit: tag/index structural check;
                       high bit: lockstep audit divergence
flip_l1i_tag_bit       tag/index structural check
corrupt_l1d_valid      invalid-line-carries-no-state / mask-range check
drop_wb_entry          write-buffer conservation (pushes − retired)
insert_wb_garbage      write-buffer conservation + completion ordering
flip_l2_tag            L2 tag/index structural check
corrupt_tlb            TLB duplicate-entry check
corrupt_checkpoint     checkpoint gzip/checksum verification
corrupt_file           cache-entry checksum verification (entry -> miss)
=====================  ====================================================

Injectors mutate their target in place and append a human-readable record
to :attr:`FaultInjector.log`; they return a description dict (or ``None``
when the target holds no state to corrupt, e.g. an empty write buffer).

Process-level faults
--------------------

The farm's forked workers are a fault domain of their own: they can crash
(OOM-kill, segfault) or stall (NFS hang, swap death).  The chaos storms
(:mod:`repro.chaos`) inject both through an environment variable,
:data:`WORKER_FAULT_ENV`, holding a spec like ``"crash=0.3,stall=0.2,
stall_s=5"`` — probabilities per task attempt.  A pool worker opts in by
calling :func:`maybe_worker_fault` at task start (``execute_point`` does);
the call is free when the variable is unset.  Crashes use ``os._exit`` so
no Python cleanup can soften them, exactly like the real failure.
"""

from __future__ import annotations

import os
import random
import signal
import time
from typing import Dict, Optional, Union

import numpy as np

from repro.core.cache import INVALID
from repro.core.hierarchy import MemorySystem
from repro.trace.record import KIND_NONE, TraceBatch

PathLike = Union[str, os.PathLike]


class FaultInjector:
    """Deterministic (seeded) injector of the corruption classes above."""

    def __init__(self, seed: int = 0):
        self._rng = np.random.default_rng(seed)
        #: Human-readable record of every injection performed.
        self.log = []

    def _note(self, kind: str, **details) -> dict:
        record = {"kind": kind, **details}
        self.log.append(record)
        return record

    def _pick(self, n: int, index: Optional[int]) -> int:
        if index is not None:
            return index
        return int(self._rng.integers(n))

    # ------------------------------------------------------------ trace level

    def corrupt_kind(self, batch: TraceBatch,
                     index: Optional[int] = None) -> dict:
        """Set an out-of-range access kind on one record."""
        i = self._pick(len(batch), index)
        batch.kind[i] = 7
        return self._note("corrupt_kind", index=i)

    def corrupt_addr(self, batch: TraceBatch,
                     index: Optional[int] = None) -> dict:
        """Make one record's data address negative."""
        i = self._pick(len(batch), index)
        batch.addr[i] = -0x2BAD
        return self._note("corrupt_addr", index=i)

    def corrupt_partial_flag(self, batch: TraceBatch,
                             index: Optional[int] = None) -> dict:
        """Set the partial-store flag on a non-store record."""
        i = self._pick(len(batch), index)
        batch.kind[i] = KIND_NONE
        batch.partial[i] = True
        return self._note("corrupt_partial_flag", index=i)

    def truncate_batch(self, batch: TraceBatch, drop: int = 1) -> dict:
        """Shorten one column, as a torn read of a trace file would."""
        batch.addr = batch.addr[:len(batch.addr) - drop]
        return self._note("truncate_batch", dropped=drop)

    # ------------------------------------------------------------ cache state

    def _flip_direct_tag(self, tags, bit: int,
                         index: Optional[int]) -> Optional[int]:
        candidates = [i for i, t in enumerate(tags) if t != INVALID]
        if index is not None:
            if tags[index] == INVALID:
                return None
            i = index
        elif candidates:
            i = candidates[int(self._rng.integers(len(candidates)))]
        else:
            return None
        tags[i] ^= 1 << bit
        return i

    def flip_l1d_tag_bit(self, memsys: MemorySystem, bit: int = 0,
                         index: Optional[int] = None) -> Optional[dict]:
        """Flip one bit of a valid L1-D tag.

        ``bit`` below the index width breaks the tag/index structural
        invariant (caught by :meth:`MemorySystem.check_invariants`); a bit
        above it keeps the structure consistent but names the wrong line —
        the corruption only lockstep auditing catches.
        """
        i = self._flip_direct_tag(memsys._dtags, bit, index)
        if i is None:
            return None
        return self._note("flip_l1d_tag_bit", index=i, bit=bit)

    def flip_l1i_tag_bit(self, memsys: MemorySystem, bit: int = 0,
                         index: Optional[int] = None) -> Optional[dict]:
        """Flip one bit of a valid L1-I tag."""
        i = self._flip_direct_tag(memsys._itags, bit, index)
        if i is None:
            return None
        return self._note("flip_l1i_tag_bit", index=i, bit=bit)

    def corrupt_l1d_valid(self, memsys: MemorySystem) -> dict:
        """Give an L1-D line impossible valid bits.

        Prefers planting a valid mask on an *invalid* line; with every line
        occupied, sets a bit beyond the line's word count instead.  Both
        violate structural invariants.
        """
        invalid = [i for i, t in enumerate(memsys._dtags) if t == INVALID]
        if invalid:
            i = invalid[int(self._rng.integers(len(invalid)))]
            memsys._dvalid[i] = 1
            return self._note("corrupt_l1d_valid", index=i,
                              mode="state_on_invalid_line")
        i = int(self._rng.integers(len(memsys._dtags)))
        memsys._dvalid[i] |= memsys._d_full_valid + 1
        return self._note("corrupt_l1d_valid", index=i,
                          mode="valid_mask_out_of_range")

    # ----------------------------------------------------- write-buffer state

    def drop_wb_entry(self, memsys: MemorySystem) -> Optional[dict]:
        """Silently lose a pending buffered write (as dropped hardware
        would); breaks the pushes − retired == occupancy conservation law."""
        wb = memsys.wb
        if not wb._entries:
            return None
        line_addr, completion = wb._entries.popleft()
        return self._note("drop_wb_entry", line_addr=line_addr,
                          completion=completion)

    def insert_wb_garbage(self, memsys: MemorySystem) -> dict:
        """Append a phantom entry the datapath never pushed.

        Breaks conservation, and its completion time precedes the current
        tail, breaking drain-order monotonicity too.
        """
        wb = memsys.wb
        tail = wb._entries[-1][1] if wb._entries else 2
        wb._entries.append((0x7FF, tail - 1))
        return self._note("insert_wb_garbage", completion=tail - 1)

    # --------------------------------------------------------- L2 / TLB state

    def flip_l2_tag(self, memsys: MemorySystem, bit: int = 0
                    ) -> Optional[dict]:
        """Flip one bit of a valid L2 data-side tag."""
        cache = memsys.l2._dcache
        if cache._tags is not None:
            i = self._flip_direct_tag(cache._tags, bit, None)
            if i is None:
                return None
            return self._note("flip_l2_tag", index=i, bit=bit)
        occupied = [i for i, s in enumerate(cache._sets) if s]
        if not occupied:
            return None
        i = occupied[int(self._rng.integers(len(occupied)))]
        entry = cache._sets[i][0]
        entry[0] ^= 1 << bit
        return self._note("flip_l2_tag", index=i, bit=bit)

    def corrupt_tlb(self, memsys: MemorySystem) -> Optional[dict]:
        """Duplicate an entry within a data-TLB set."""
        tlb = memsys.dtlb
        occupied = [i for i, s in enumerate(tlb._sets) if s]
        if not occupied:
            return None
        i = occupied[int(self._rng.integers(len(occupied)))]
        tlb._sets[i].append(tlb._sets[i][0])
        return self._note("corrupt_tlb", index=i)

    # ------------------------------------------------------- files on disk

    def corrupt_file(self, path: PathLike,
                     offset: Optional[int] = None,
                     kind: str = "corrupt_file") -> dict:
        """Flip one byte of any file on disk (checkpoint, cache entry...)."""
        with open(path, "rb") as handle:
            blob = bytearray(handle.read())
        if offset is None:
            offset = len(blob) // 2
        blob[offset] ^= 0xFF
        with open(path, "wb") as handle:
            handle.write(bytes(blob))
        return self._note(kind, path=str(path), offset=offset)

    def corrupt_checkpoint(self, path: PathLike,
                           offset: Optional[int] = None) -> dict:
        """Flip one byte of a checkpoint file on disk."""
        return self.corrupt_file(path, offset, kind="corrupt_checkpoint")


# ---------------------------------------------------- process-level faults

#: Environment variable carrying the worker fault spec; forked pool
#: children inherit it from the parent, so setting it in a server or a
#: chaos harness reaches every subsequently-started worker.
WORKER_FAULT_ENV = "REPRO_WORKER_FAULTS"


def worker_fault_spec(crash: float = 0.0, stall: float = 0.0,
                      stall_s: float = 30.0,
                      freeze_once: str = "") -> str:
    """Render a :data:`WORKER_FAULT_ENV` value: per-attempt crash/stall
    probabilities and the stall duration in seconds.  ``freeze_once`` is
    a marker-file path: the first worker attempt to create it SIGSTOPs
    itself — a deterministic *hang* (no heartbeats, unlike ``stall``,
    whose sleeping worker still beats) for exercising lease watchdogs."""
    spec = f"crash={crash:g},stall={stall:g},stall_s={stall_s:g}"
    if freeze_once:
        spec += f",freeze_once={freeze_once}"
    return spec


def parse_worker_faults(spec: str) -> Dict[str, object]:
    """Parse a fault spec; unknown or malformed fields are ignored (a typo
    in a chaos knob must never take down a production worker)."""
    out: Dict[str, object] = {"crash": 0.0, "stall": 0.0, "stall_s": 30.0,
                              "freeze_once": ""}
    for field in spec.split(","):
        name, sep, value = field.partition("=")
        name = name.strip()
        if not sep or name not in out:
            continue
        if name == "freeze_once":
            out[name] = value.strip()
            continue
        try:
            out[name] = float(value)
        except ValueError:
            pass
    return out


def maybe_worker_fault(label: str = "") -> None:
    """Possibly crash or stall the calling worker process.

    Reads :data:`WORKER_FAULT_ENV`; a no-op when unset.  Randomness is
    drawn fresh per call (seeded by the OS), so a retried attempt of the
    same task rolls new dice — which is what makes crash-retry recovery
    testable.  A crash is ``os._exit(137)``: no exception, no cleanup,
    indistinguishable from an OOM kill.
    """
    spec = os.environ.get(WORKER_FAULT_ENV)
    if not spec:
        return
    faults = parse_worker_faults(spec)
    marker = faults["freeze_once"]
    if marker:
        try:
            # O_EXCL makes the marker a one-shot ticket: exactly one
            # attempt across all workers wins it and hangs.
            fd = os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except OSError:
            pass  # already taken (or path bad): no freeze
        else:
            os.close(fd)
            # A stopped process sends no heartbeats and ignores SIGTERM;
            # only the pool's SIGKILL escalation can clear it — which is
            # precisely the watchdog path under test.
            os.kill(os.getpid(), signal.SIGSTOP)
    rng = random.SystemRandom()
    if faults["crash"] > 0 and rng.random() < faults["crash"]:
        os._exit(137)
    if faults["stall"] > 0 and rng.random() < faults["stall"]:
        time.sleep(faults["stall_s"])
