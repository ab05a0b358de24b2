"""Lease machinery and construction-time validation across the stack.

The durability PR's validation satellite: every retry/backoff/lease knob
— :class:`~repro.durable.lease.DurableSettings`, the pool's
heartbeat/lease arguments, :class:`~repro.grid.dispatcher.GridSettings`,
:class:`~repro.serve.server.ServeSettings`, the serve client's
:class:`~repro.serve.client.RetryPolicy` — rejects
nonsense at construction time with :class:`ConfigurationError`, before
any run starts.  Plus the live-lease table and owner-liveness probes.
"""

from __future__ import annotations

import multiprocessing
import os
import socket

import pytest

from repro.durable.lease import (DurableSettings, LeaseTable, owner_id,
                                 owner_is_dead_local)
from repro.errors import ConfigurationError

# ----------------------------------------------------------- owner probes


def test_owner_id_names_this_process():
    assert owner_id() == f"{socket.gethostname()}:{os.getpid()}"
    assert owner_id(pid=123).endswith(":123")


def test_owner_liveness_probes():
    # Our own pid: alive by definition (and explicitly never "dead" —
    # resume reclaims own-pid leases through a separate equality check).
    assert not owner_is_dead_local(owner_id())
    # A foreign host can never be probed from here.
    assert not owner_is_dead_local("not-this-host-surely:1")
    # Garbage owner strings are not "dead", they are unknown.
    assert not owner_is_dead_local("nonsense")
    # A genuinely dead local pid is provably dead.
    ctx = multiprocessing.get_context("fork")
    proc = ctx.Process(target=lambda: None)
    proc.start()
    proc.join()
    assert owner_is_dead_local(owner_id(pid=proc.pid))


# ------------------------------------------------------- DurableSettings


def test_durable_settings_defaults_are_valid():
    settings = DurableSettings()
    assert settings.journal_renew_s == settings.lease_s / 2


@pytest.mark.parametrize("kwargs,match", [
    (dict(lease_s=0.0), "lease_s"),
    (dict(lease_s=-1.0), "lease_s"),
    (dict(heartbeat_s=0.0), "heartbeat_s"),
    (dict(lease_s=3.0, heartbeat_s=2.0), "half"),
    (dict(max_point_retries=0), "max_point_retries"),
    (dict(watchdog_poll_s=0.0), "watchdog_poll_s"),
])
def test_durable_settings_validation(kwargs, match):
    with pytest.raises(ConfigurationError, match=match):
        DurableSettings(**kwargs)


def test_lease_table_slow_vs_stuck():
    settings = DurableSettings(lease_s=10.0, heartbeat_s=1.0)
    table = LeaseTable(settings)
    table.start(0)
    table.start(1)
    assert table.expired_now() == []
    # Rewind point 0's last beat past the lease: stuck.
    table._beat[0] -= settings.lease_s + 1.0
    assert table.expired(0)
    assert not table.expired(1)
    assert table.expired_now() == [0]
    # A beat revives only tracked points.
    table.beat(0)
    assert not table.expired(0)
    table.drop(1)
    table.beat(1)   # no-op after drop
    assert 1 not in table._beat


def test_lease_table_renewal_rate_limit():
    settings = DurableSettings(lease_s=10.0, heartbeat_s=1.0,
                               renew_every_s=4.0)
    table = LeaseTable(settings)
    table.start(0)
    assert not table.due_renewal(0)
    table._renewed[0] -= 5.0       # past the renewal interval: due
    assert table.due_renewal(0)
    table.renewed(0)
    assert not table.due_renewal(0)
    # An *expired* point is never renewed — it is reclaimed instead.
    table._beat[0] -= settings.lease_s + 1.0
    table._renewed[0] -= 50.0
    assert not table.due_renewal(0)


# ------------------------------------------------------- pool validation


def test_pool_rejects_bad_liveness_params():
    from repro.farm.pool import run_tasks

    def fn(x):
        return x

    with pytest.raises(ConfigurationError, match="timeout"):
        run_tasks(fn, [1], jobs=2, timeout=0.0)
    with pytest.raises(ConfigurationError, match="retries"):
        run_tasks(fn, [1], jobs=2, retries=-1)
    with pytest.raises(ConfigurationError, match="heartbeat_s"):
        run_tasks(fn, [1], jobs=2, heartbeat_s=0.0)
    with pytest.raises(ConfigurationError, match="lease_s"):
        run_tasks(fn, [1], jobs=2, lease_s=-2.0, heartbeat_s=1.0)
    with pytest.raises(ConfigurationError, match="heartbeat"):
        run_tasks(fn, [1], jobs=2, lease_s=5.0)     # lease needs beats
    with pytest.raises(ConfigurationError, match="half"):
        run_tasks(fn, [1], jobs=2, lease_s=5.0, heartbeat_s=4.0)


# ---------------------------------------------- grid / serve validation


@pytest.mark.parametrize("kwargs,match", [
    (dict(readmit_after_s=0.0), "readmit_after_s"),
    (dict(probe_interval_s=-1.0), "probe_interval_s"),
    (dict(probe_timeout_s=0.0), "probe_timeout_s"),
    (dict(request_timeout_s=0.0), "request_timeout_s"),
    (dict(deadline_s=0.0), "deadline_s"),
    (dict(attempt_budget_s=-3.0), "attempt_budget_s"),
    (dict(quarantine_after=0), "quarantine_after"),
    (dict(max_remote_attempts=0), "max_remote_attempts"),
    (dict(inflight_per_node=0), "inflight_per_node"),
])
def test_grid_settings_validation(kwargs, match):
    from repro.grid.dispatcher import GridSettings

    GridSettings()   # defaults are valid
    with pytest.raises(ConfigurationError, match=match):
        GridSettings(**kwargs)


@pytest.mark.parametrize("kwargs,match", [
    (dict(queue_depth=0), "queue_depth"),
    (dict(workers=0), "workers"),
    (dict(retries=-1), "retries"),
    (dict(default_deadline_s=0.0), "default_deadline_s"),
    (dict(max_deadline_s=-1.0), "max_deadline_s"),
    (dict(drain_grace_s=0.0), "drain_grace_s"),
])
def test_serve_settings_validation(kwargs, match):
    from repro.serve.server import ServeSettings

    ServeSettings()   # defaults are valid
    with pytest.raises(ConfigurationError, match=match):
        ServeSettings(**kwargs)


def test_serve_client_validation():
    from repro.serve.client import RetryPolicy

    RetryPolicy()
    with pytest.raises(ConfigurationError, match="max_attempts"):
        RetryPolicy(max_attempts=0)
    with pytest.raises(ConfigurationError, match="base_delay_s"):
        RetryPolicy(base_delay_s=-0.1)
    with pytest.raises(ConfigurationError, match="max_delay_s"):
        RetryPolicy(base_delay_s=2.0, max_delay_s=1.0)
