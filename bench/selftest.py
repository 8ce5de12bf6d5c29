"""Self-test of the benchmark itself.

    python3 bench/selftest.py

For every workload: two traced runs at the default seed must report
identical counts, and must pass their correctness checks; an untraced run
at a held-out seed must pass its checks too.  Each run is a short one
(--seconds 1, so the minimum number of solves).  Exits 1 on any problem.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

from run import LAYER_COUNTS, NAMES

RUN = Path(__file__).resolve().with_name("run.py")
DEFAULT_SEED = 1
HELD_OUT_SEED = 2027


def run(workload: str, seed: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed",
         str(seed), "--seconds", "1", "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def main() -> int:
    problems = []
    for name in NAMES:
        traced = [run(name, DEFAULT_SEED, 1) for _ in range(2)]
        for metric in LAYER_COUNTS:
            a, b = (r["metrics"][metric]["value"] for r in traced)
            if a != b:
                problems.append(f"{name}: {metric} {a} then {b}")
        held_out = run(name, HELD_OUT_SEED, 0)
        for label, result in (("traced, default seed", traced[0]),
                              ("traced, default seed", traced[1]),
                              ("held-out seed", held_out)):
            if not result["correct"] or result["failed"]:
                problems.append(f"{name} ({label}): {result['failed']} of "
                                f"{result['attempted']} solves failed")
        print(f"{name}: counts repeat, checks pass"
              if not any(p.startswith(name) for p in problems)
              else f"{name}: FAILED", flush=True)
    for problem in problems:
        print("  " + problem)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
