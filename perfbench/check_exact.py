"""Check that the exact per-layer counts repeat across two traced runs.

Usage, from the root of a checkout::

    python3 perfbench/check_exact.py --seed 7 [--workload cli-cold ...]

Runs ``run.py --trace 1`` twice per workload at the same seed and
compares every metric named in ``layers.EXACT``.  Exits 1 on any
difference, printing it.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from layers import EXACT  # noqa: E402
from run import WORKLOADS  # noqa: E402


def traced_metrics(workload: str, seed: int) -> dict[str, float]:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, check=True, timeout=600,
    )
    result = json.loads(out.stdout.strip().splitlines()[-1])
    return {name: m["value"] for name, m in result["metrics"].items()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workload", action="append", choices=WORKLOADS)
    args = parser.parse_args()
    status = 0
    for workload in args.workload or WORKLOADS:
        first, second = traced_metrics(workload, args.seed), traced_metrics(workload, args.seed)
        differ = {n: (first[n], second[n]) for n in EXACT if first[n] != second[n]}
        nonzero = sum(1 for n in EXACT if first[n])
        print(f"{workload}: {len(EXACT)} exact counts, {nonzero} non-zero, "
              f"{'all equal' if not differ else f'{len(differ)} differ: {differ}'}")
        status |= bool(differ)
    return status


if __name__ == "__main__":
    sys.exit(main())
