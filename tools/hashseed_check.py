#!/usr/bin/env python
"""Hash-seed independence check for the repo benchmark's fingerprints.

Every perfbench workload fingerprints its outputs (replay results,
adaptive decisions, live runs, fleet outcomes).  None of them may
depend on Python's string-hash randomisation: a set or dict iterated
in hash order on a fingerprint path would make the same run disagree
with itself across interpreter launches.  This tool runs each workload
in quick mode (``--seconds 0``, one cycle) under two ``PYTHONHASHSEED``
values and compares the ``meta.fingerprints`` objects the runs print.

Usage::

    python tools/hashseed_check.py

It only invokes ``perfbench/run.py``.  Exits 1 when any workload's
fingerprints differ between the hash seeds (or a run fails), else 0.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = REPO_ROOT / "perfbench" / "run.py"
WORKLOADS = ("replay", "adaptive", "live", "fleet")
HASH_SEEDS = ("0", "5")


def fingerprints(workload: str, hash_seed: str) -> dict:
    """``meta.fingerprints`` of one quick perfbench run."""
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    proc = subprocess.run(
        [sys.executable, str(PERFBENCH), "--workload", workload,
         "--seed", "1", "--seconds", "0"],
        cwd=REPO_ROOT, env=env, capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(
            f"perfbench {workload} under PYTHONHASHSEED={hash_seed} "
            f"exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    # The line before the result object holds the run metadata.
    return json.loads(lines[-2])["meta"]["fingerprints"]


def main() -> int:
    low, high = HASH_SEEDS
    drifted = 0
    for workload in WORKLOADS:
        try:
            first, second = (fingerprints(workload, s) for s in HASH_SEEDS)
        except RuntimeError as exc:
            print(f"FAIL {workload}: {exc}")
            drifted += 1
            continue
        cases = sorted(set(first) | set(second))
        bad = [case for case in cases
               if first.get(case) != second.get(case)]
        for case in bad:
            print(f"DRIFT {workload}/{case}: "
                  f"PYTHONHASHSEED={low} {first.get(case)} != "
                  f"PYTHONHASHSEED={high} {second.get(case)}")
        print(f"{'FAIL' if bad else 'ok'} {workload}: {len(cases)} "
              f"case(s), {len(bad)} differ under PYTHONHASHSEED "
              f"{low} vs {high}")
        drifted += bool(bad)
    return 1 if drifted else 0


if __name__ == "__main__":
    sys.exit(main())
