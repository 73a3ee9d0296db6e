"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload cli-cold --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with no wrappers installed;
``--trace 1`` runs the workload's fixed traced work and prints the
per-layer ledger instead.  The next-to-last stdout line is a summary
(host stamp, sample counts, workload-specific figures); the last line is
the result object ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

WORKLOADS = ("cli-cold", "fleet-validate", "serve-ring")


def metric_units(root: Path, trace: bool) -> dict[str, str]:
    """name -> unit of every metric the mode must print, from BENCHMARK.json."""
    spec = json.loads((root / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def stamp(root: Path, seed: int) -> dict:
    """Host class and inputs: comparable only between equal stamps."""
    import numpy

    # The ceiling keeps git from reporting an enclosing repository's commit.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=root,
            env=env,
            capture_output=True,
            text=True,
            timeout=10,
        ).stdout.strip()
    except OSError:
        commit = ""
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": commit or "unknown (not a git checkout)",
        "seed": seed,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print("perfbench: run from the root of a checkout (src/repro not found)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    workdir = root / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    os.environ["MT4G_CACHE_DIR"] = str(workdir / "cli-cache")

    from serve_ring import serve_ring
    from workloads import Context, cli_cold, fleet_validate, rss_mb

    run = {"cli-cold": cli_cold, "fleet-validate": fleet_validate, "serve-ring": serve_ring}
    ctx = Context(root, workdir, args.seed, args.seconds, bool(args.trace))
    try:
        result = run[args.workload](ctx)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run still uses it

    tally = result.tally
    metrics = dict(result.metrics)
    if not args.trace:
        metrics.setdefault("rss_mb", rss_mb())
        metrics["success_rate"] = 1.0 - tally.error_rate
    units = metric_units(root, bool(args.trace))
    summary = {
        "workload": args.workload,
        "trace": args.trace,
        "stamp": stamp(root, args.seed),
        "error_rate": tally.error_rate,
        "failures": tally.reasons,
        **result.notes,
    }
    if args.trace:
        from layers import EXACT

        summary["exact_counts"] = EXACT
        # Layer self-times plus unattributed time partition the traced wall.
        attributed = sum(v for k, v in metrics.items() if k.endswith(".self_s"))
        summary["ledger_residual_s"] = (
            metrics["ledger.wall_s"] - attributed - metrics["unattributed_s"]
        )
    print(json.dumps(summary, default=str))
    print(
        json.dumps(
            {
                "correct": tally.failed == 0,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
