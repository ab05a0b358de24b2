"""Wire protocol for ``POST /v1/simulate``: parse, validate, render.

A request body is JSON::

    {
      "config":   { ...SystemConfig dict (repro.core.serialization)... },
      "workload": {"profiles": [ {...BenchmarkProfile dict...}, ... ]}
                  | {"suite": {"instructions_per_benchmark": N,
                               "level": L}},
      "time_slice": 30000,            // optional, cycles
      "level": 2,                     // optional, multiprogramming level
      "warmup_instructions": 0,       // optional
      "max_instructions": null,       // optional budget
      "deadline_s": 10.0,             // optional, clamped to the server max
      "engine": "reference",          // optional simulation engine
      "scenario": "ab12…",            // optional scenario_sha256 (64 hex);
                                      //   joins the content-address key
      "obs_trace": "8f3a…"            // optional caller trace ID (out of
    }                                 //   band: never part of the cache key)

Validation is the same machinery the simulator itself trusts —
:func:`repro.core.serialization.config_from_dict` (which calls
``SystemConfig.validate``) and ``profile_from_dict`` (which calls
``BenchmarkProfile.validate``) — so a request that parses here is exactly
a request the simulator accepts, and anything else raises
:class:`~repro.errors.ConfigurationError`/:class:`~repro.errors.ServeError`
which the server maps to a 400 with the message, never a traceback.

A successful response is also defined here (:func:`render_result`):
the full :class:`~repro.core.stats.SimStats` snapshot, the derived CPI,
the content-address ``key`` of the point, and whether the answer came
from the cache.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Dict, Optional, Tuple

from repro.core.engine import DEFAULT_ENGINE, ENGINE_NAMES
from repro.core.serialization import config_from_dict, profile_from_dict
from repro.core.stats import SimStats
from repro.errors import ConfigurationError, ServeError
from repro.farm.points import PointSpec
from repro.params import DEFAULT_TIME_SLICE

#: Protocol version; appears in every response body.
PROTOCOL_VERSION = 1

_TOP_KEYS = {"config", "workload", "time_slice", "level",
             "warmup_instructions", "max_instructions", "deadline_s",
             "engine", "energy", "scenario", "obs_trace"}

#: Ceiling on a client-supplied trace ID; generous next to the 32-hex
#: IDs :func:`repro.obs.tracing.new_trace_id` mints.
_MAX_TRACE_ID_LEN = 128


def _require_int(body: Dict[str, Any], key: str, default: int,
                 minimum: int) -> int:
    value = body.get(key, default)
    if not isinstance(value, int) or isinstance(value, bool):
        raise ServeError(f"{key} must be an integer", status=400)
    if value < minimum:
        raise ServeError(f"{key} must be >= {minimum}", status=400)
    return value


def _parse_workload(spec: Any) -> Tuple:
    if not isinstance(spec, dict):
        raise ServeError("workload must be an object", status=400)
    has_profiles = "profiles" in spec
    has_suite = "suite" in spec
    if has_profiles == has_suite:
        raise ServeError(
            "workload needs exactly one of 'profiles' or 'suite'",
            status=400)
    if has_profiles:
        raw = spec["profiles"]
        if not isinstance(raw, list) or not raw:
            raise ServeError("workload.profiles must be a non-empty list",
                             status=400)
        return tuple(profile_from_dict(p) for p in raw)
    suite = spec["suite"]
    if not isinstance(suite, dict):
        raise ServeError("workload.suite must be an object", status=400)
    unknown = set(suite) - {"instructions_per_benchmark", "level"}
    if unknown:
        raise ServeError(
            f"unknown workload.suite key(s): {', '.join(sorted(unknown))}",
            status=400)
    instructions = suite.get("instructions_per_benchmark", 0)
    if not isinstance(instructions, int) or instructions < 0:
        raise ServeError(
            "workload.suite.instructions_per_benchmark must be a "
            "non-negative integer", status=400)
    level = suite.get("level")
    from repro.trace.benchmarks import default_suite, replicate_suite

    profiles = default_suite(instructions)
    if level is not None:
        if not isinstance(level, int) or level < 1:
            raise ServeError("workload.suite.level must be a positive "
                             "integer", status=400)
        profiles = (profiles[:level] if level <= len(profiles)
                    else replicate_suite(profiles, level))
    return tuple(profiles)


def parse_simulate_request(raw: bytes,
                           max_body_bytes: int = 1 << 20
                           ) -> Tuple[PointSpec, Optional[float],
                                      Optional[str]]:
    """Parse and validate a simulate request body.

    Returns the fully validated :class:`PointSpec`, the client's
    requested ``deadline_s`` (or ``None``), and the client's ``obs_trace``
    ID (or ``None``) — the caller's trace handle, propagated so one
    logical dispatch keeps one trace ID across the grid → serve → worker
    hops.  Raises :class:`~repro.errors.ServeError` (status 400) or
    :class:`~repro.errors.ConfigurationError` for every malformed input.
    """
    if len(raw) > max_body_bytes:
        raise ServeError(
            f"request body exceeds {max_body_bytes} bytes", status=400)
    try:
        body = json.loads(raw.decode("utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ServeError(f"invalid JSON: {exc}", status=400) from exc
    if not isinstance(body, dict):
        raise ServeError("request body must be a JSON object", status=400)
    unknown = set(body) - _TOP_KEYS
    if unknown:
        raise ServeError(
            f"unknown request key(s): {', '.join(sorted(unknown))}",
            status=400)
    if "config" not in body or "workload" not in body:
        raise ServeError("request needs 'config' and 'workload'", status=400)
    if not isinstance(body["config"], dict):
        raise ServeError("config must be an object", status=400)
    config = config_from_dict(body["config"])  # ConfigurationError on junk
    profiles = _parse_workload(body["workload"])

    time_slice = _require_int(body, "time_slice", DEFAULT_TIME_SLICE, 1)
    warmup = _require_int(body, "warmup_instructions", 0, 0)
    level = body.get("level")
    if level is not None:
        if not isinstance(level, int) or isinstance(level, bool) or level < 1:
            raise ServeError("level must be a positive integer", status=400)
        if level > len(profiles):
            raise ServeError(
                f"level {level} exceeds the {len(profiles)}-process "
                "workload", status=400)
    max_instructions = body.get("max_instructions")
    if max_instructions is not None:
        if (not isinstance(max_instructions, int)
                or isinstance(max_instructions, bool)
                or max_instructions < 1):
            raise ServeError("max_instructions must be a positive integer",
                             status=400)
    deadline_s = body.get("deadline_s")
    if deadline_s is not None:
        if not isinstance(deadline_s, (int, float)) \
                or isinstance(deadline_s, bool) or deadline_s <= 0:
            raise ServeError("deadline_s must be a positive number",
                             status=400)
        deadline_s = float(deadline_s)
    engine = body.get("engine", DEFAULT_ENGINE)
    if not isinstance(engine, str) or engine not in ENGINE_NAMES:
        raise ServeError(
            f"unknown engine {engine!r} "
            f"(available: {', '.join(ENGINE_NAMES)})", status=400)
    energy = body.get("energy")
    if energy is not None:
        from repro.energy import ENERGY_TECHNOLOGIES

        if not isinstance(energy, str) or energy not in ENERGY_TECHNOLOGIES:
            raise ServeError(
                f"unknown energy technology {energy!r} "
                f"(available: {', '.join(sorted(ENERGY_TECHNOLOGIES))})",
                status=400)
    scenario = body.get("scenario")
    if scenario is not None:
        if (not isinstance(scenario, str) or len(scenario) != 64
                or any(c not in "0123456789abcdef" for c in scenario)):
            raise ServeError(
                "scenario must be a 64-character lowercase hex "
                "scenario_sha256", status=400)
    obs_trace = body.get("obs_trace")
    if obs_trace is not None:
        if not isinstance(obs_trace, str) or not obs_trace \
                or len(obs_trace) > _MAX_TRACE_ID_LEN:
            raise ServeError(
                "obs_trace must be a non-empty string of at most "
                f"{_MAX_TRACE_ID_LEN} characters", status=400)

    spec = PointSpec(label=config.name, config=config, profiles=profiles,
                     time_slice=time_slice, level=level,
                     warmup_instructions=warmup,
                     max_instructions=max_instructions, engine=engine,
                     energy=energy, scenario=scenario)
    return spec, deadline_s, obs_trace


def stats_digest(snapshot: Dict[str, Any]) -> str:
    """Integrity digest of a stats snapshot: SHA-256 over its canonical
    JSON encoding (sorted keys, no whitespace).

    The content-address ``key`` authenticates *which point* a response
    answers; this digest authenticates *the answer itself*.  A response
    whose stats were damaged in flight — or forwarded from a corrupted
    cache — still carries the right key, but cannot carry a matching
    digest unless every field survived bit-exactly.  The grid dispatcher
    rejects any response where the two disagree.
    """
    canonical = json.dumps(snapshot, sort_keys=True,
                           separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def render_result(spec: PointSpec, stats: SimStats, key: str,
                  cached: bool, wall_s: float) -> Dict[str, Any]:
    """The JSON body of a 200 response.

    Energy-free requests get the historical shape; when the request
    selected an energy technology the response adds the EPI figure and
    the per-class breakdown next to CPI (the raw femtojoule fields ride
    inside ``stats`` either way).
    """
    snapshot = stats.to_dict()
    body = {
        "version": PROTOCOL_VERSION,
        "key": key,
        "cached": cached,
        "engine": spec.engine,
        "wall_s": round(wall_s, 6),
        "cpi": stats.cpi(spec.config.cpu_stall_cpi),
        "stats": snapshot,
        "stats_sha256": stats_digest(snapshot),
    }
    if spec.energy is not None:
        body["energy"] = spec.energy
        body["epi_pj"] = round(stats.epi_pj, 4)
        body["energy_pj"] = {cls: round(pj, 1) for cls, pj
                             in stats.energy_breakdown_pj().items()}
    return body


def error_body(status: int, message: str, **extra: Any) -> Dict[str, Any]:
    """The JSON body of every non-200 response: explicit, never a
    traceback."""
    return {"version": PROTOCOL_VERSION, "status": status,
            "error": message, **extra}
