"""Ambient farm configuration: one context, every sweep point sees it.

The experiment modules call :func:`repro.analysis.sweep.run_point` from
deep inside their own loops; threading pool/cache handles through every
one of those signatures would smear farm plumbing across the whole
codebase.  Instead the runner (or any caller) opens a session::

    with farm_session(jobs=4, cache_dir="~/.cache/repro-farm") as ctx:
        run_experiment("fig5")          # every point inside is cached

and ``run_point`` / ``run_sweep`` consult :func:`current_context` for the
active cache, telemetry sink, and default job count.  Sessions nest; the
innermost wins.

:func:`render_all` gives the runner one point-level fan-out per run;
pool workers run single points and open no session.
"""

from __future__ import annotations

import sys
from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import Any, Callable, Dict, List, Optional, Sequence, TypeVar

from repro.core.engine import DEFAULT_ENGINE
from repro.core.stats import SimStats
from repro.farm.cache import ResultCache
from repro.farm.points import PointSpec, run_points
from repro.farm.telemetry import RunTelemetry

T = TypeVar("T")


@dataclass
class FarmContext:
    """The active execution policy for sweep points."""

    #: Default worker count for ``run_sweep``-style batch calls.
    jobs: int = 1
    cache: Optional[ResultCache] = None
    telemetry: Optional[RunTelemetry] = None
    #: Per-task wall-clock limit (seconds); ``None`` disables.
    task_timeout: Optional[float] = None
    #: Re-runs granted to a crashed or timed-out worker.
    retries: int = 1
    #: Simulation engine every point in the session runs under.
    engine: str = DEFAULT_ENGINE
    #: Energy technology every point accounts under (``None`` = disabled).
    energy: Optional[str] = None
    #: Distributed dispatcher (:class:`repro.grid.GridDispatcher`); when
    #: set, sweep points go to the serve-node pool instead of local
    #: workers.  Typed loosely so ``repro.farm`` never imports
    #: ``repro.grid`` at module load.
    dispatcher: Optional[Any] = None
    #: Write-ahead run journal: a :class:`repro.durable.RunJournal`, a
    #: journal file path, or a journal *directory* (each sweep inside the
    #: session then gets its own content-addressed journal file, which is
    #: what makes auto-resume work).  ``None`` = journaling off (the one
    #: sweep-point path runs with no journal hooks).  Typed loosely so
    #: ``repro.farm`` never imports ``repro.durable`` at module load.
    journal: Optional[Any] = None
    #: Optional :class:`repro.durable.DurableSettings` for the session.
    durable: Optional[Any] = None
    #: ``scenario_sha256`` of the resolved scenario document driving the
    #: session (``None`` = no scenario).  Joins every point's cache key.
    scenario: Optional[str] = None


_STACK: List[FarmContext] = []


def current_context() -> Optional[FarmContext]:
    """The innermost active :class:`FarmContext`, or ``None``."""
    return _STACK[-1] if _STACK else None


@contextmanager
def farm_session(jobs: int = 1,
                 cache: Optional[ResultCache] = None,
                 cache_dir=None,
                 no_cache: bool = False,
                 telemetry: Optional[RunTelemetry] = None,
                 quiet: bool = False,
                 task_timeout: Optional[float] = None,
                 retries: int = 1,
                 engine: str = DEFAULT_ENGINE,
                 energy: Optional[str] = None,
                 nodes: Optional[Sequence[str]] = None,
                 journal=None,
                 durable=None,
                 scenario: Optional[str] = None):
    """Activate a :class:`FarmContext` for the duration of the block.

    Args:
        jobs: default parallelism for batched point execution.
        cache: an existing :class:`ResultCache` to use.
        cache_dir: build a cache rooted here (ignored if ``cache`` given).
        no_cache: disable result caching entirely.
        telemetry: an existing telemetry sink; one is created if omitted.
        quiet: create the default telemetry without a progress stream.
        task_timeout: per-point wall-clock limit in seconds.
        retries: crash/timeout re-run budget per point.
        engine: simulation engine for every point in the session
            (``repro.core.engine.ENGINE_NAMES``); part of each point's
            cache key.
        energy: energy technology name for every point in the session
            (``repro.energy.ENERGY_TECHNOLOGIES``); ``None`` disables
            accounting.  The derived model joins each point's cache key.
        nodes: serve-backend URLs; when given, a
            :class:`repro.grid.GridDispatcher` over those nodes executes
            every uncached point in the session (with local in-process
            fallback), and its health poller is stopped when the session
            closes.  The session's cache, journal and telemetry still
            wrap every point (see :func:`repro.farm.points.run_points`).
        journal: write-ahead run journal (path, directory, or
            :class:`repro.durable.RunJournal`): every sweep in the
            session becomes crash-resumable exactly-once (see
            :mod:`repro.durable`).  Requires caching to stay enabled.
        durable: optional :class:`repro.durable.DurableSettings`
            overriding lease/heartbeat/retry-budget timing.
        scenario: ``scenario_sha256`` of the resolved scenario document
            this session runs (see :mod:`repro.scenario`); joins every
            point's cache key.
    """
    if journal is not None and no_cache:
        from repro.errors import JournalError

        raise JournalError(
            "journal= requires the result cache: the journal records "
            "digests, the cache holds the results (drop no_cache)")
    if no_cache:
        cache = None
    elif cache is None:
        cache = ResultCache(cache_dir)  # cache_dir=None -> default root
    if telemetry is None:
        telemetry = RunTelemetry(stream=None if quiet else sys.stderr)
    dispatcher = None
    if nodes:
        from repro.grid import GridDispatcher  # deferred: optional layer

        dispatcher = GridDispatcher(nodes)
    ctx = FarmContext(jobs=jobs, cache=cache, telemetry=telemetry,
                      task_timeout=task_timeout, retries=retries,
                      engine=engine, energy=energy, dispatcher=dispatcher,
                      journal=journal, durable=durable, scenario=scenario)
    _STACK.append(ctx)
    try:
        yield ctx
    finally:
        _STACK.pop()
        if dispatcher is not None:
            dispatcher.close()


@contextmanager
def scenario_scope(scenario: Optional[str]):
    """Bind a scenario identity to the ambient farm policy.

    Pushes a copy of the innermost context (or a bare one, outside any
    session) with ``scenario`` set, so every point executed inside runs —
    and is cached — under that scenario's ``scenario_sha256``.  The
    experiment registry wraps each experiment in this scope, which is
    how ``repro-experiments fig5`` and ``repro-experiments run
    scenarios/fig5.toml`` land on identical cache keys.  ``scenario=None``
    is a no-op (the ambient context, whatever it is, stays active).
    """
    if scenario is None:
        yield current_context()
        return
    base = current_context()
    ctx = (replace(base, scenario=scenario) if base is not None
           else FarmContext(scenario=scenario))
    _STACK.append(ctx)
    try:
        yield ctx
    finally:
        _STACK.pop()


class _AnswerTable:
    """The executor of a rendering pass: it answers each point it holds a
    result for and records every other one, answering it with zero stats."""

    def __init__(self) -> None:
        self.answers: Dict[str, SimStats] = {}
        #: Points not yet run, by key, in the order they were first asked.
        self.unknown: Dict[str, PointSpec] = {}
        self.guessed = False

    def run_points(self, specs: Sequence[PointSpec], on_result,
                   stop_event=None) -> None:
        for index, spec in enumerate(specs):
            key = spec.key()
            stats = self.answers.get(key)
            if stats is None:
                self.unknown.setdefault(key, spec)
                self.guessed = True
                stats = SimStats()
            on_result(index, {"stats": stats.to_dict(), "wall_s": 0.0})


def render_all(renders: Sequence[Callable[[], T]],
               stop_event=None) -> List[T]:
    """Call every render, with all of their sweep points in one fan-out.

    Each pass calls the pending renders under a copy of the innermost
    session with no cache, telemetry or journal, whose dispatcher is an
    answer table: it records each point it cannot answer and answers it
    with zero stats.  The recorded points then run once, in one
    :func:`~repro.farm.points.run_points` call with the session's own
    settings, and each render that got a zero answer is called again,
    until none does: a render whose points depend on earlier results
    still returns real statistics, and one that runs no point is called
    once.  ``stop_event`` cancels the point pass (see ``run_points``).
    """
    session = current_context() or FarmContext()
    table = _AnswerTable()
    plan = replace(session, cache=None, telemetry=None, journal=None,
                   dispatcher=table)
    results: List[Any] = [None] * len(renders)
    pending = list(range(len(renders)))
    while pending:
        guessed = []
        _STACK.append(plan)
        try:
            for index in pending:
                table.guessed = False
                results[index] = renders[index]()
                if table.guessed:
                    guessed.append(index)
        finally:
            _STACK.pop()
        if table.unknown:
            stats = run_points(list(table.unknown.values()),
                               jobs=session.jobs, cache=session.cache,
                               telemetry=session.telemetry,
                               timeout=session.task_timeout,
                               retries=session.retries,
                               stop_event=stop_event,
                               dispatcher=session.dispatcher,
                               journal=session.journal,
                               durable=session.durable)
            table.answers.update(zip(table.unknown, stats))
            table.unknown.clear()
        pending = guessed
    return results
