"""Regenerate ``reference.json``: expected simulated outputs per workload and seed.

Usage, from the repository root::

    PYTHONPATH=src:. python3 -m floorbench.make_reference --seeds 0-15

Every run must pass the seed-independent invariant checks before its outputs
are recorded.  Seed 0 is the default seed and seed 1 the held-out seed; the
rest widen coverage for whatever seeds a benchmark run is given.  Only
regenerate at a commit whose simulated outputs are known good.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile

from floorbench import checks
from floorbench.workloads import WORKLOADS, prepare


def _seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=_seeds, default=_seeds("0-15"))
    parser.add_argument("--workloads", nargs="*", default=sorted(WORKLOADS))
    args = parser.parse_args(argv)
    try:
        expected = checks.load_reference()
    except FileNotFoundError:
        expected = {}
    with tempfile.TemporaryDirectory() as scratch:
        for name in args.workloads:
            for seed in args.seeds:
                prepared = prepare(WORKLOADS[name], seed, scratch_dir=scratch)
                try:
                    trace = prepared.run()
                    problems = checks.invariant_problems(trace, prepared)
                finally:
                    prepared.close()
                if problems:
                    print(f"{name} seed {seed}: {problems}", file=sys.stderr)
                    return 1
                outputs = checks.simulated_outputs(trace)
                expected.setdefault(name, {})[str(seed)] = outputs
                print(name, seed, outputs, flush=True)
    document = {
        "default_seed": 0,
        "held_out_seed": 1,
        "energy_rtol": checks.ENERGY_RTOL,
        "peak_atol_c": checks.PEAK_ATOL_C,
        "expected": {
            name: dict(sorted(by_seed.items(), key=lambda item: int(item[0])))
            for name, by_seed in sorted(expected.items())
        },
    }
    with open(checks.REFERENCE_PATH, "w") as handle:
        json.dump(document, handle, indent=1)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
