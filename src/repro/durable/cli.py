"""``repro-durable``: inspect run journals.

Usage::

    repro-durable inspect RUN.wal            # record-by-record dump
    repro-durable inspect RUN.wal --json     # machine-readable state

``inspect`` verifies the journal the same way a resuming coordinator
does — per-record checksums, contiguous sequence numbers, a torn final
line tolerated and reported — then prints the replayed state: what is
done, what is still leased, whether the run sealed.  The kill-anywhere
storm that crashes a live coordinator at every journal offset is
``repro-chaos durable`` (:mod:`repro.chaos`).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional

from repro.errors import cli_errors


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-durable",
        description="Inspect write-ahead run journals.")
    sub = parser.add_subparsers(dest="command", required=True)

    inspect = sub.add_parser(
        "inspect", help="verify and dump one run journal")
    inspect.add_argument("journal", type=Path, help="journal file (.wal)")
    inspect.add_argument("--json", action="store_true",
                         help="emit machine-readable JSON")
    inspect.add_argument("--records", action="store_true",
                         help="also dump every record")
    return parser


def _cmd_inspect(args) -> int:
    from repro.durable.journal import read_records, replay_records

    records, torn = read_records(args.journal)
    state = replay_records(records)
    # Replay keeps done, claimed and failed disjoint; todo is the rest.
    todo = [i for i in state.todo()
            if i not in state.claims and i not in state.failed]
    summary = {
        "journal": str(args.journal),
        "run_id": state.run_id,
        "sweep_sha256": state.sweep_sha256,
        "records": len(records),
        "torn_trailing_lines": torn,
        "points": len(state.point_keys),
        "done": len(state.done),
        "claimed": len(state.claims),
        "failed": len(state.failed),
        "todo": len(todo),
        "sealed": state.sealed,
        "resumes": state.resumes,
    }
    if args.json:
        if args.records:
            summary["record_list"] = records
        print(json.dumps(summary, indent=1))
        return 0
    print(f"journal  : {summary['journal']}")
    print(f"run      : {summary['run_id']}  "
          f"(sweep {summary['sweep_sha256'][:16]}…)")
    print(f"records  : {summary['records']}"
          + (f"  (+{torn} torn trailing line)" if torn else ""))
    print(f"points   : {summary['points']}  "
          f"done={summary['done']} claimed={summary['claimed']} "
          f"failed={summary['failed']} todo={summary['todo']}")
    print(f"sealed   : {summary['sealed']}   resumes: {summary['resumes']}")
    if args.records:
        for rec in records:
            extras = {k: v for k, v in rec.items()
                      if k not in ("seq", "rec", "t", "sha256", "points")}
            print(f"  [{rec['seq']:4d}] {rec['rec']:16s} {extras}")
    return 0


@cli_errors
def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    if args.command == "inspect":
        return _cmd_inspect(args)
    return 2  # pragma: no cover - argparse enforces the choices


if __name__ == "__main__":  # pragma: no cover - exercised via CLI
    sys.exit(main())
