"""Exact per-layer work counts of every perfbench workload at seed 7.

Runs ``perfbench/run.py --trace 1 --seed 7`` once per workload and
writes the counts named in ``perfbench/layers.EXACT`` to
``BENCH_exact.json`` at the repository root.  Run it from there:

    python benchmarks/bench_exact_counts.py

The counts do not depend on the host (``perfbench/check_exact.py``
shows they repeat run to run), so the committed file is a gate: the
script prints every count that differs from the committed value and
exits 1 if any did.  A change that alters the work done re-runs the
script, commits the rewritten file and explains the difference.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

from check_exact import traced_metrics  # noqa: E402
from layers import EXACT  # noqa: E402
from run import WORKLOADS  # noqa: E402

SEED = 7
OUT_PATH = ROOT / "BENCH_exact.json"


def main() -> int:
    counts = {}
    for workload in WORKLOADS:
        metrics = traced_metrics(workload, SEED)
        counts[workload] = {name: metrics[name] for name in EXACT}
    record = {"seed": SEED, "counts": counts}
    committed = json.loads(OUT_PATH.read_text()) if OUT_PATH.is_file() else None
    OUT_PATH.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    if committed is None:
        print(f"recorded {OUT_PATH.name} (no committed counts to compare)")
        return 0
    differ = []
    for workload, now in counts.items():
        old = committed["counts"].get(workload, {})
        differ += [
            f"{workload} {name}: committed {old.get(name)} -> now {value}"
            for name, value in now.items()
            if old.get(name) != value
        ]
    print("\n".join(differ) or f"{OUT_PATH.name}: every exact count equals the committed value")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
