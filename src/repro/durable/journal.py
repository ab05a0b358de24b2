"""The write-ahead run journal: every sweep state transition, durably.

A :class:`RunJournal` is an append-only JSONL file living next to the
report it protects.  One record is appended — and **fsynced** — per state
transition of the sweep, so after a crash of *any* process (including the
coordinator) the journal replays to the exact control state the run died
in, and the content-addressed result cache supplies the data.  Together
they make a sweep resumable exactly-once: a point past ``point_done``
is never executed again, and a resumed run's output is bit-identical to
an uninterrupted one (results come back in input order either way).

Record schema (one JSON object per line; see DESIGN.md §15)::

    run_open       seq=0: run_id, the full point list (label + content
                   address per point, which hashes config/engine/energy),
                   sweep_sha256 over the ordered key list, meta
    point_claimed  index, key, owner ("host:pid"), lease_s,
                   deadline_unix, attempt
    lease_renewed  index, owner, deadline_unix   (rate-limited; the
                   heartbeat stream itself stays off-disk)
    point_reclaimed index, prior owner, reason
                   (lease_expired | owner_dead | recovery)
    point_done     index, key, cache_key, stats_sha256
    point_failed   index, error, attempt
    run_resumed    owner, replayed, reclaimed    (audit trail only)
    run_sealed     done count — the sweep completed

Every record carries ``seq`` (contiguous from 0) and ``sha256`` over its
own canonical form.  Replay (:func:`replay_records` →
:class:`JournalState`) verifies both; a torn **final** line — the crash
landed mid-append — is silently dropped, because the append protocol
guarantees the transition it described never took effect, while a bad
record anywhere *else* raises :class:`~repro.errors.JournalError` (that
is real corruption, not a crash artifact).

Crash injection: when ``$REPRO_DURABLE_CRASH_AFTER_APPENDS`` is set, the
process SIGKILLs itself immediately after durably writing that many
records — the hook the kill-anywhere chaos storm
(:func:`repro.chaos.durable_storm`) uses to park a crash on every journal
transition boundary.
"""

from __future__ import annotations

import hashlib
import json
import os
import signal
import threading
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.errors import JournalError
from repro.obs import runtime as _obs

PathLike = Union[str, os.PathLike]

JOURNAL_MAGIC = "repro-journal"
#: Bump when the record schema changes incompatibly; an old journal then
#: refuses to resume instead of resuming wrongly.
JOURNAL_VERSION = 1

#: Environment variable: SIGKILL this process after N durable appends.
CRASH_ENV = "REPRO_DURABLE_CRASH_AFTER_APPENDS"

#: Every record type replay understands.
RECORD_TYPES = frozenset({
    "run_open", "point_claimed", "lease_renewed", "point_reclaimed",
    "point_done", "point_failed", "run_resumed", "run_sealed",
})

#: File suffixes naming a journal *file*; any other path handed to
#: :func:`resolve_journal` is treated as a journal *directory* holding
#: one content-addressed file per sweep.
JOURNAL_SUFFIXES = (".wal", ".jsonl", ".journal")


def _canonical(record: Dict[str, Any]) -> bytes:
    return json.dumps(record, sort_keys=True,
                      separators=(",", ":")).encode("utf-8")


def _record_digest(record: Dict[str, Any]) -> str:
    body = {k: v for k, v in record.items() if k != "sha256"}
    return hashlib.sha256(_canonical(body)).hexdigest()


def stats_sha256(stats_dict: Dict[str, Any]) -> str:
    """Integrity digest of a stats snapshot — same canonical form the
    cache and the serve protocol hash, so a ``point_done`` record can be
    cross-checked against the cache entry it points at."""
    return hashlib.sha256(_canonical(stats_dict)).hexdigest()


def sweep_sha256(keys: Sequence[str]) -> str:
    """Identity of a sweep: the SHA-256 of its ordered point-key list.

    Two sweeps with the same points in the same order share one journal
    identity, which is what lets a journal *directory* resume the right
    file automatically (:func:`resolve_journal`)."""
    return hashlib.sha256(_canonical({"keys": list(keys)})).hexdigest()


class _Claim:
    """Replay-side view of one outstanding lease."""

    __slots__ = ("owner", "deadline_unix", "attempt")

    def __init__(self, owner: str, deadline_unix: float, attempt: int):
        self.owner = owner
        self.deadline_unix = deadline_unix
        self.attempt = attempt

    def expired(self, now: Optional[float] = None) -> bool:
        return (now if now is not None else time.time()) \
            >= self.deadline_unix


class JournalState:
    """The control state a journal replays to.

    Replay is a pure, deterministic function of the record prefix —
    replaying any prefix, crashing, and replaying it again converges to
    the same claimed/done sets (property-tested in
    ``tests/test_durable_journal.py``) — and ``done`` is monotone: once a
    point is done, no later record can make it runnable again.
    """

    def __init__(self) -> None:
        self.run_id: Optional[str] = None
        self.sweep_sha256: Optional[str] = None
        self.point_keys: List[str] = []
        self.labels: List[str] = []
        self.meta: Dict[str, Any] = {}
        #: index -> stats_sha256 of the durably cached result.
        self.done: Dict[int, str] = {}
        #: index -> outstanding lease.
        self.claims: Dict[int, _Claim] = {}
        #: index -> how many times the point has ever been claimed.
        self.attempts: Dict[int, int] = {}
        #: index -> terminal error message (retry budget exhausted).
        self.failed: Dict[int, str] = {}
        self.sealed = False
        self.resumes = 0

    @property
    def n_points(self) -> int:
        return len(self.point_keys)

    def todo(self) -> List[int]:
        """Indices with no durable result, in input order."""
        return [i for i in range(self.n_points) if i not in self.done]

    def _index(self, record: Dict[str, Any]) -> int:
        index = record.get("index")
        if not isinstance(index, int) or not 0 <= index < self.n_points:
            raise JournalError(
                f"record {record.get('seq')} names point index {index!r} "
                f"outside this run's {self.n_points} points")
        return index

    def apply(self, record: Dict[str, Any]) -> None:
        """Fold one verified record into the state."""
        rec = record.get("rec")
        if rec == "run_open":
            if self.run_id is not None:
                raise JournalError("duplicate run_open record")
            self.run_id = record["run_id"]
            self.sweep_sha256 = record["sweep_sha256"]
            self.point_keys = [p["key"] for p in record["points"]]
            self.labels = [p["label"] for p in record["points"]]
            self.meta = dict(record.get("meta", {}))
            return
        if self.run_id is None:
            raise JournalError(
                f"{rec!r} record before run_open — not a run journal")
        if rec == "point_claimed":
            index = self._index(record)
            self.attempts[index] = self.attempts.get(index, 0) + 1
            if index not in self.done:    # a late claim cannot undo done
                self.claims[index] = _Claim(record["owner"],
                                            float(record["deadline_unix"]),
                                            self.attempts[index])
                self.failed.pop(index, None)
            self.sealed = False
        elif rec == "lease_renewed":
            index = self._index(record)
            claim = self.claims.get(index)
            if claim is not None and claim.owner == record["owner"]:
                claim.deadline_unix = float(record["deadline_unix"])
        elif rec == "point_reclaimed":
            self.claims.pop(self._index(record), None)
        elif rec == "point_done":
            index = self._index(record)
            self.done[index] = record["stats_sha256"]
            self.claims.pop(index, None)
            self.failed.pop(index, None)
        elif rec == "point_failed":
            index = self._index(record)
            if index not in self.done:
                self.failed[index] = str(record.get("error", ""))
            self.claims.pop(index, None)
        elif rec == "run_resumed":
            self.resumes += 1
        elif rec == "run_sealed":
            self.sealed = True
        else:
            raise JournalError(f"unknown journal record type {rec!r}")


def verify_record(line: str) -> Dict[str, Any]:
    """Parse and checksum-verify one journal line; raises ``ValueError``
    on any defect (the caller decides torn-tail vs corruption)."""
    record = json.loads(line)
    if not isinstance(record, dict):
        raise ValueError("record is not an object")
    if record.get("sha256") != _record_digest(record):
        raise ValueError("record checksum mismatch")
    if record.get("rec") not in RECORD_TYPES:
        raise ValueError(f"unknown record type {record.get('rec')!r}")
    return record


def read_records(path: PathLike) -> Tuple[List[Dict[str, Any]], int]:
    """Read, verify, and sequence-check a journal file.

    Returns ``(records, torn)`` where ``torn`` is 1 if a damaged final
    line was dropped (the mid-append crash signature).  A damaged record
    anywhere else raises :class:`JournalError`.
    """
    path = Path(path)
    try:
        blob = path.read_bytes()
    except OSError:
        return [], 0
    lines = blob.decode("utf-8", errors="surrogateescape").split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    records: List[Dict[str, Any]] = []
    torn = 0
    for lineno, line in enumerate(lines):
        try:
            record = verify_record(line)
        except (ValueError, json.JSONDecodeError) as exc:
            if lineno == len(lines) - 1:
                torn = 1   # mid-append crash: the transition never happened
                break
            raise JournalError(
                f"journal {path} record {lineno} is corrupt ({exc}); "
                "refusing to resume from a damaged journal") from exc
        if record.get("seq") != lineno:
            raise JournalError(
                f"journal {path} has a sequence gap at record {lineno} "
                f"(seq {record.get('seq')!r})")
        records.append(record)
    if records:
        head = records[0]
        if (head.get("rec") != "run_open"
                or head.get("magic") != JOURNAL_MAGIC):
            raise JournalError(f"journal {path} does not start with a "
                               "run_open record")
        if head.get("version") != JOURNAL_VERSION:
            raise JournalError(
                f"journal {path} has schema version "
                f"{head.get('version')!r}, this build speaks "
                f"{JOURNAL_VERSION}; re-run without the old journal")
    return records, torn


def replay_records(records: Sequence[Dict[str, Any]]) -> JournalState:
    """Fold verified records into a :class:`JournalState`."""
    state = JournalState()
    for record in records:
        state.apply(record)
    return state


class RunJournal:
    """An append-only, fsynced, checksummed run journal.

    Thread-safe: the farm's watchdog, the grid's worker threads, and the
    coordinator's own loop may all append concurrently.
    """

    def __init__(self, path: PathLike):
        self.path = Path(path)
        self._lock = threading.Lock()
        self._fh = None
        self._seq = 0        # next sequence number
        self._appends = 0    # durable appends by THIS process
        crash = os.environ.get(CRASH_ENV)
        self._crash_after = int(crash) if crash else None

    # ------------------------------------------------------------ open/close

    def open_run(self, point_keys: Sequence[str], labels: Sequence[str],
                 meta: Optional[Dict[str, Any]] = None
                 ) -> Tuple[JournalState, bool]:
        """Open (or resume) the run this journal describes.

        A fresh/empty journal gets its ``run_open`` record; an existing
        one is replayed and validated against the given sweep — resuming
        with different points is a caller bug and raises
        :class:`JournalError` rather than silently mixing sweeps.

        Returns ``(state, resumed)``.
        """
        self._open_fh()   # lock first: read a consistent, quiescent file
        records, _ = read_records(self.path)
        state = replay_records(records)
        sweep = sweep_sha256(point_keys)
        resumed = bool(records)
        if resumed:
            if state.sweep_sha256 != sweep:
                raise JournalError(
                    f"journal {self.path} describes a different sweep "
                    f"(sweep {state.sweep_sha256[:12]}…, resuming "
                    f"{sweep[:12]}…); refusing to mix runs")
            self._seq = records[-1]["seq"] + 1
        else:
            state = JournalState()
            self._seq = 0
            record = self._append("run_open",
                                  magic=JOURNAL_MAGIC,
                                  version=JOURNAL_VERSION,
                                  run_id=os.urandom(8).hex(),
                                  sweep_sha256=sweep,
                                  points=[{"label": label, "key": key}
                                          for label, key
                                          in zip(labels, point_keys)],
                                  meta=dict(meta or {}))
            state.apply(record)
        return state, resumed

    def _open_fh(self) -> None:
        if self._fh is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._fh = open(self.path, "a", encoding="utf-8")
            # One coordinator per journal: interleaved appends from two
            # processes would shred the sequence chain.  The kernel drops
            # the lock when the holder dies — even by SIGKILL — so a
            # crashed coordinator never wedges its successor.
            try:
                import fcntl

                fcntl.flock(self._fh.fileno(),
                            fcntl.LOCK_EX | fcntl.LOCK_NB)
            except ImportError:      # non-POSIX: no advisory locking
                pass
            except OSError:
                self._fh.close()
                self._fh = None
                raise JournalError(
                    f"journal {self.path} is locked by another live "
                    "coordinator; refusing to double-run the sweep")

    def close(self) -> None:
        with self._lock:
            if self._fh is not None:
                self._fh.close()
                self._fh = None

    def __enter__(self) -> "RunJournal":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # --------------------------------------------------------------- appends

    def append(self, rec: str, **fields: Any) -> Dict[str, Any]:
        """Durably append one record; returns it (with seq + checksum)."""
        return self._append(rec, **fields)

    def _append(self, rec: str, **fields: Any) -> Dict[str, Any]:
        if rec not in RECORD_TYPES:
            raise JournalError(f"unknown journal record type {rec!r}")
        with self._lock:
            if self._fh is None:
                raise JournalError(
                    f"journal {self.path} is not open (call open_run)")
            record: Dict[str, Any] = {
                "seq": self._seq, "rec": rec,
                "t": round(time.time(), 6), **fields,
            }
            record["sha256"] = _record_digest(record)
            self._fh.write(json.dumps(record, sort_keys=True,
                                      separators=(",", ":")) + "\n")
            self._fh.flush()
            os.fsync(self._fh.fileno())
            self._seq += 1
            self._appends += 1
            if _obs.enabled:
                _obs.tracer.emit("journal", rec=rec, seq=record["seq"],
                                 index=fields.get("index"))
            if (self._crash_after is not None
                    and self._appends >= self._crash_after):
                # The chaos hook: die the hard way, *after* the record is
                # durable — exactly the boundary recovery must survive.
                os.kill(os.getpid(), signal.SIGKILL)
        return record


def resolve_journal(journal: Union["RunJournal", PathLike],
                    point_keys: Sequence[str]) -> RunJournal:
    """Turn a journal argument into a :class:`RunJournal`.

    A path ending in one of :data:`JOURNAL_SUFFIXES` names a journal
    *file*; any other path is a journal *directory*, and the sweep gets a
    content-addressed file inside it (``<sweep_sha256[:16]>.wal``) — which
    is how ``repro-experiments --journal DIR`` resumes every inner sweep
    automatically without naming each one.
    """
    if isinstance(journal, RunJournal):
        return journal
    path = Path(journal)
    if path.suffix in JOURNAL_SUFFIXES:
        return RunJournal(path)
    return RunJournal(path / f"{sweep_sha256(point_keys)[:16]}.wal")
