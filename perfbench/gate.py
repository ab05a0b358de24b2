"""Correctness gate: every simulated result is hashed and checked.

* Each point's inputs (the resolved scenario without its engine, which
  must not matter, the seed, and the point's label) hash to an *input
  digest*, and its full ``SimStats`` to a *stats digest*.
* ``digests.json`` records the stats digest for the inputs of seed 0 and
  of held-out seeds.  A point whose inputs have a record must match it;
  inputs with no record (another seed, a smoke overlay) leave the check
  *skipped*, never passed.
* Independently of the records, every sample of one run must produce the
  same digests (the simulator is deterministic), and every point must
  satisfy the cycle-accounting identity.

An operation that raised, crashed, or failed any check counts as one
failed operation out of those attempted.  A set-up-only sample counts
as an attempt too, failed only if it raised or crashed.
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

DIGESTS_PATH = Path(__file__).resolve().parent / "digests.json"


def _sha256(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True,
                                     separators=(",", ":")).encode()
                          ).hexdigest()


def stats_digest(stats) -> str:
    """SHA-256 of the full statistics of one point."""
    return _sha256(stats.to_dict())


def input_digest(document: dict, seed: int, label: str) -> str:
    """SHA-256 of what defines one point's inputs: the resolved scenario
    document without its engine (engines must agree), the seed, and the
    point's label within the workload."""
    scenario = {k: v for k, v in document.items() if k != "engine"}
    return _sha256({"scenario": scenario, "seed": seed, "label": label})


def combined(digests: Sequence[str]) -> str:
    """One digest for an operation: SHA-256 over its points' digests."""
    return hashlib.sha256("".join(digests).encode()).hexdigest()


def check_stats(stats, energy: Optional[str]) -> List[str]:
    """Self-consistency checks that need no recorded digest."""
    errors = []
    if stats.instructions <= 0:
        errors.append("no instructions counted after warm-up")
    expected = (stats.instructions + stats.memory_stall_cycles
                + stats.stall_tlb)
    if stats.cycles != expected:
        errors.append(f"cycles {stats.cycles} != instructions + stalls "
                      f"{expected}")
    if (stats.energy_total_fj > 0) != (energy is not None):
        errors.append(f"energy total {stats.energy_total_fj} fJ with "
                      f"energy={energy!r}")
    return errors


def load_recorded(path: Path = DIGESTS_PATH) -> Dict[str, dict]:
    if not path.exists():
        return {}
    return json.loads(path.read_text(encoding="utf-8"))["points"]


def gate(samples: Sequence[dict], recorded: Dict[str, dict]
         ) -> Tuple[int, int, str, List[str]]:
    """Judge every sample of one run.

    Each sample is a worker result: ``ok``, ``error``, ``inputs`` and
    ``digests`` (one per point), ``check_errors``; or, with
    ``setup_only``, just ``ok`` and ``error``.  Returns ``(attempted,
    failed, digest_status, reasons)``; ``digest_status`` is ``failed`` on
    any mismatch with a record, else ``passed`` when every point had a
    record, ``skipped`` when none had, or ``partial (k of n ...)``.
    """
    reasons: List[str] = []
    ok = [s for s in samples if s.get("ok") and not s.get("setup_only")]
    modal = Counter(tuple(s["digests"]) for s in ok).most_common(1)
    reference = list(modal[0][0]) if modal else []
    failed = 0
    mismatched = False
    for index, sample in enumerate(samples):
        why = None
        if not sample.get("ok"):
            why = f"raised: {sample.get('error')}"
        elif sample.get("setup_only"):
            continue
        elif sample["check_errors"]:
            why = "; ".join(sample["check_errors"])
        else:
            for inputs, digest in zip(sample["inputs"], sample["digests"]):
                want = recorded.get(inputs, {}).get("stats")
                if want is not None and digest != want:
                    mismatched = True
                    why = f"stats digest {digest[:12]} != recorded " \
                          f"{want[:12]} for inputs {inputs[:12]}"
                    break
            if why is None and sample["digests"] != reference:
                why = "digests differ from the other samples of this run"
        if why is not None:
            failed += 1
            reasons.append(f"sample {index}: {why}")
    inputs = ok[0]["inputs"] if ok else []
    known = sum(1 for i in inputs if i in recorded)
    if mismatched:
        status = "failed (stats differ from the recorded digests)"
    elif not inputs or known == 0:
        status = "skipped (no recorded digest for these inputs)"
    elif known == len(inputs):
        status = "passed"
    else:
        status = f"partial ({known} of {len(inputs)} points recorded)"
    return len(samples), failed, status, reasons
