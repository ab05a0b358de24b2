"""repro.durable: crash-safe sweep orchestration.

A write-ahead run journal (:mod:`~repro.durable.journal`) plus lease
bookkeeping (:mod:`~repro.durable.lease`) and a coordinator driver
(:mod:`~repro.durable.driver`) make every sweep — local farm,
distributed grid, or serve-backed — resumable exactly-once after a
SIGKILL of *any* process, including the coordinator itself.  The
kill-anywhere chaos storm (:func:`repro.chaos.durable_storm`,
``repro-chaos durable``) proves it by murdering the coordinator at every
journal transition boundary and diffing the resumed output against an
uninterrupted run.
"""

from repro.durable.driver import DurableRun
from repro.durable.journal import (JOURNAL_MAGIC, JOURNAL_VERSION,
                                   JournalState, RunJournal, read_records,
                                   replay_records, resolve_journal,
                                   stats_sha256, sweep_sha256)
from repro.durable.lease import (DurableSettings, LeaseTable, owner_id,
                                 owner_is_dead_local)

__all__ = [
    "DurableRun", "DurableSettings", "JournalState", "JOURNAL_MAGIC",
    "JOURNAL_VERSION", "LeaseTable", "RunJournal", "owner_id",
    "owner_is_dead_local", "read_records", "replay_records",
    "resolve_journal", "stats_sha256", "sweep_sha256",
]
