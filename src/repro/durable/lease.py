"""Leases: the liveness half of the durability story.

The journal (:mod:`repro.durable.journal`) records *who owns what until
when*; this module holds the in-memory side — validated timing knobs
(:class:`DurableSettings`), the coordinator's live lease table
(:class:`LeaseTable`), and the distinction the watchdog trades on:

    **slow** is a worker that still heartbeats — leave it alone (a
    deterministic point gives the same result whenever it lands);
    **stuck** is a worker whose lease expired with *no* heartbeat — it
    will never finish, so kill it, journal the reclaim, and re-dispatch
    under the retry budget.

Every parameter is validated at construction time (PR 1's
``__post_init__`` discipline): a zero lease or a retry budget below one
is a configuration bug that must fail loudly *before* a run starts, not
misbehave hours into one.
"""

from __future__ import annotations

import os
import socket
import time
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.errors import ConfigurationError


def owner_id(pid: Optional[int] = None) -> str:
    """This process's lease-owner identity: ``host:pid``.

    The host part makes dead-owner detection honest in a grid: a
    coordinator can only probe liveness (``os.kill(pid, 0)``) for owners
    on its *own* host — a remote owner is declared dead by lease expiry
    alone, never by pid probing.
    """
    return f"{socket.gethostname()}:{pid if pid is not None else os.getpid()}"


def owner_is_dead_local(owner: str) -> bool:
    """True only when ``owner`` names a pid on *this* host that is
    provably gone — the fast path that lets recovery reclaim a crashed
    coordinator's own leases without waiting out the lease clock."""
    host, _, pid_s = owner.rpartition(":")
    if host != socket.gethostname():
        return False
    try:
        pid = int(pid_s)
    except ValueError:
        return False
    if pid == os.getpid():
        return False
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return True
    except PermissionError:
        return False   # exists, owned by someone else
    return False


@dataclass(frozen=True)
class DurableSettings:
    """Timing and budget knobs for a durable run.

    Attributes:
        lease_s: how long a ``point_claimed`` lease lasts without a
            renewal before the point is presumed orphaned.
        heartbeat_s: how often a live worker proves liveness; must leave
            several beats of slack inside one lease, so it is capped at
            half the lease.
        renew_every_s: how often the coordinator *journals* a renewal
            (``lease_renewed``) for a still-beating point — the on-disk
            trail is rate-limited, the in-memory beat stream is not.
            Defaults to half the lease.
        max_point_retries: total executions one point may consume across
            crashes, lease expiries, *and resumes* (attempts are counted
            from the journal, so a deterministically-crashing point
            cannot loop forever across restarts).  Must be >= 1.
        watchdog_poll_s: how often the stuck-point monitor wakes.
    """

    lease_s: float = 30.0
    heartbeat_s: float = 2.0
    renew_every_s: Optional[float] = None
    max_point_retries: int = 3
    watchdog_poll_s: float = 0.25

    def __post_init__(self):
        if not self.lease_s > 0:
            raise ConfigurationError(
                f"lease_s must be positive, got {self.lease_s!r}: a "
                "zero/negative lease declares every point stuck instantly")
        if not self.heartbeat_s > 0:
            raise ConfigurationError(
                f"heartbeat_s must be positive, got {self.heartbeat_s!r}")
        if self.heartbeat_s > self.lease_s / 2:
            raise ConfigurationError(
                f"heartbeat_s ({self.heartbeat_s:g}) must be at most half "
                f"of lease_s ({self.lease_s:g}); a lease needs several "
                "beats of slack or healthy workers get reaped")
        if self.max_point_retries < 1:
            raise ConfigurationError(
                f"max_point_retries must be >= 1, got "
                f"{self.max_point_retries!r}: every point needs at least "
                "one execution attempt")
        if not self.watchdog_poll_s > 0:
            raise ConfigurationError(
                f"watchdog_poll_s must be positive, got "
                f"{self.watchdog_poll_s!r}")

    @property
    def journal_renew_s(self) -> float:
        return (self.renew_every_s if self.renew_every_s is not None
                else self.lease_s / 2)


class LeaseTable:
    """The coordinator's live view of outstanding leases.

    Monotonic-clock based (journal records carry wall-clock deadlines for
    cross-process recovery; *within* one coordinator, monotonic time is
    the only honest clock).  Not thread-safe by itself — callers hold
    their own lock (the pool loop and the grid supervisor are each
    single-threaded over their table).
    """

    def __init__(self, settings: DurableSettings):
        self.settings = settings
        #: index -> monotonic time of the most recent proof of life.
        self._beat: Dict[int, float] = {}
        #: index -> monotonic time the last lease_renewed was journaled.
        self._renewed: Dict[int, float] = {}

    def start(self, index: int) -> None:
        now = time.monotonic()
        self._beat[index] = now
        self._renewed[index] = now

    def beat(self, index: int) -> None:
        if index in self._beat:
            self._beat[index] = time.monotonic()

    def drop(self, index: int) -> None:
        self._beat.pop(index, None)
        self._renewed.pop(index, None)

    def expired(self, index: int) -> bool:
        """Lease ran out with no heartbeat — *stuck*, not slow."""
        last = self._beat.get(index)
        return (last is not None
                and time.monotonic() - last > self.settings.lease_s)

    def expired_now(self) -> List[int]:
        return [i for i in list(self._beat) if self.expired(i)]

    def due_renewal(self, index: int) -> bool:
        """A still-beating point whose on-disk lease should be extended."""
        last = self._renewed.get(index)
        return (last is not None and not self.expired(index)
                and time.monotonic() - last >= self.settings.journal_renew_s)

    def renewed(self, index: int) -> None:
        if index in self._renewed:
            self._renewed[index] = time.monotonic()
