"""repro.serve: a fault-tolerant simulation service.

The cache-exploration workflows this reproduction supports are
interactive: many small configuration→CPI queries over a shared result
cache.  ``repro.serve`` turns the batch farm into that service:

* :mod:`repro.serve.server` — threaded HTTP server with a bounded
  admission queue (429 + ``Retry-After`` load shedding), per-request
  deadlines (504, enforced by the farm pool's kill machinery), health/
  readiness/metrics endpoints, and graceful SIGTERM/SIGINT drain that
  finishes or checkpoints in-flight simulations and exits 0;
* :mod:`repro.serve.client` — a client with exponential-backoff +
  full-jitter retries honoring ``Retry-After`` and a total deadline
  budget;
* :mod:`repro.serve.protocol` — the validated request/response wire
  format (a bad request is a 400 with a message, never a traceback);
* :mod:`repro.serve.cli` — the ``repro-serve`` command.

``repro-chaos serve`` (:func:`repro.chaos.serve_storm`) proves all of the
above under injected cache corruption, worker crashes, and worker stalls.

Quickstart::

    repro-serve start --port 8023 &
    repro-serve simulate --config machine.json --instructions 200000
    kill -TERM %1      # graceful drain, exit 0
"""

from repro.serve.client import RetryPolicy, ServeClient
from repro.serve.protocol import (
    PROTOCOL_VERSION,
    parse_simulate_request,
    render_result,
    stats_digest,
)
from repro.serve.server import Metrics, ServeSettings, SimServer

__all__ = [
    "Metrics",
    "PROTOCOL_VERSION",
    "RetryPolicy",
    "ServeClient",
    "ServeSettings",
    "SimServer",
    "parse_simulate_request",
    "render_result",
    "stats_digest",
]
