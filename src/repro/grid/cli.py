"""``repro-grid``: inspect a pool of serve backends.

Usage::

    repro-grid status --nodes 127.0.0.1:8031,127.0.0.1:8032

``status`` probes every backend's ``/readyz`` and prints one line per
node (plus ``--json`` for the full payloads).  Distributed *sweeps* are
driven from the experiments CLI: ``repro-experiments fig5 --nodes ...``;
the multi-node fault storm is ``repro-chaos grid`` (:mod:`repro.chaos`).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from repro.errors import cli_errors


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-grid",
        description="Fault-tolerant sweep dispatch over a pool of "
                    "repro-serve backends.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    status = sub.add_parser("status",
                            help="probe every backend's readiness")
    status.add_argument("--nodes", required=True,
                        metavar="URL[,URL...]",
                        help="comma-separated backend URLs "
                             "(host:port accepted)")
    status.add_argument("--timeout", type=float, default=3.0,
                        help="per-probe timeout, seconds")
    status.add_argument("--json", action="store_true",
                        help="print the full readiness payloads")
    return parser


def _parse_nodes(raw: str) -> List[str]:
    from repro.errors import GridError

    nodes = [u.strip() for u in raw.split(",") if u.strip()]
    if not nodes:
        raise GridError("--nodes needs at least one backend URL")
    return nodes


def _cmd_status(args) -> int:
    from repro.grid.nodes import normalize_node_url
    from repro.serve.client import RetryPolicy, ServeClient

    payloads = {}
    worst = 0
    for url in _parse_nodes(args.nodes):
        url = normalize_node_url(url)
        client = ServeClient(url, retry=RetryPolicy(max_attempts=1),
                             timeout_s=args.timeout)
        ready, body = client.readiness(timeout_s=args.timeout)
        payloads[url] = {"ready": ready, **body}
        if not ready:
            worst = 1
        if not args.json:
            if ready:
                print(f"{url}  ready  queue={body.get('queue_depth')}/"
                      f"{body.get('queue_capacity')}  "
                      f"in_flight={body.get('in_flight')}  "
                      f"engines={','.join(body.get('engines', []))}")
            else:
                detail = body.get("error", "unreachable")
                print(f"{url}  DOWN   {detail}")
    if args.json:
        print(json.dumps(payloads, indent=2, sort_keys=True))
    return worst


@cli_errors
def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "status":
        return _cmd_status(args)
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
