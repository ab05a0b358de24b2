"""repro.grid: fault-tolerant sweep dispatch over a pool of serve nodes.

The farm parallelizes on one box; the grid scales *out*: a
:class:`~repro.grid.dispatcher.GridDispatcher` schedules
:class:`~repro.farm.points.PointSpec`s across a pool of
``repro.serve`` backends over the validated ``/v1/simulate`` wire
protocol — one front door, N backends, bit-identical to a serial
``run_sweep`` either way.  It is an executor only:
:func:`~repro.farm.points.run_points` keeps the content-addressed result
cache, the run journal and telemetry around it, exactly as around the
local pool.

Robustness is the headline, not an afterthought:

* :mod:`repro.grid.nodes` — health-checked node registry: periodic
  ``/readyz`` probing, quarantine after consecutive failures, automatic
  re-admission, per-node circuit breakers (shared with the transport via
  :class:`~repro.serve.client.BreakerPool`), least-loaded placement;
* :mod:`repro.grid.dispatcher` — per-node retry/timeout/backoff,
  straggler detection with **hedged re-dispatch** (duplicate completions
  reconciled first-valid-wins; the simulator's determinism makes the
  outcome bit-identical regardless of which copy wins), and graceful
  degradation down to local in-process execution when every backend is
  lost — a sweep never loses a point;
* :mod:`repro.grid.backends` — local backend launcher (real server
  subprocesses) for benchmarks, chaos, and CI;
* :mod:`repro.grid.chaos` — the multi-node storm: SIGKILL one backend
  mid-sweep, SIGSTOP another, corrupt a third's cache — the sweep must
  still complete with zero lost points and CPI bit-identical to serial;
* :mod:`repro.grid.cli` — the ``repro-grid`` command (``status``,
  ``chaos``).

Quickstart::

    repro-serve start --port 8031 &
    repro-serve start --port 8032 &
    repro-experiments fig5 --nodes 127.0.0.1:8031,127.0.0.1:8032

or programmatically::

    from repro.farm import farm_session
    with farm_session(nodes=["http://127.0.0.1:8031",
                             "http://127.0.0.1:8032"]):
        run_experiment("fig5")      # every point dispatched to the pool
"""

from repro.grid.dispatcher import GridDispatcher, GridSettings
from repro.grid.nodes import GridNode, NodeRegistry, normalize_node_url

__all__ = [
    "GridDispatcher",
    "GridSettings",
    "GridNode",
    "NodeRegistry",
    "normalize_node_url",
]
