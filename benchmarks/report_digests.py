"""SHA-256 of every preset's JSON report: the byte-identity check.

Discovers every registered preset (paper and testing) at each seed, with
validation off and on, and prints one JSON object mapping
``preset/seed/validate`` to the SHA-256 of :func:`to_json` of the report.
Run it from the repository root, once on each of two trees, and compare
the outputs to see exactly which reports a change moves:

    PYTHONPATH=src python benchmarks/report_digests.py > before.json
    PYTHONPATH=src python benchmarks/report_digests.py --seeds 0 42 7

The digests cover floats, so they are only comparable between runs on
the same host with the same numpy; they are a review aid, not a gate.
"""

from __future__ import annotations

import argparse
import hashlib
import json

from repro import MT4G, SimulatedGPU
from repro.core.output.json_out import to_json
from repro.gpuspec.presets import available_presets


def digests(seeds: list[int]) -> dict[str, str]:
    out = {}
    for preset in available_presets(include_testing=True):
        for seed in seeds:
            for validate in (False, True):
                tool = MT4G(SimulatedGPU.from_preset(preset, seed=seed))
                text = to_json(tool.discover(validate=validate))
                key = f"{preset}/{seed}/{'validate' if validate else 'raw'}"
                out[key] = hashlib.sha256(text.encode()).hexdigest()
    return out


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[0, 42])
    args = parser.parse_args()
    print(json.dumps(digests(args.seeds), indent=1))


if __name__ == "__main__":
    main()
