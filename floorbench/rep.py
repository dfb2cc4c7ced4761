"""One benchmark repetition in a fresh interpreter.

``python3 -m floorbench.rep --workload W --seed N --trace 0|1 --scratch DIR``
times one set-up and one cold ``session.run``, checks the simulated outputs
and prints a single JSON line.  The calibration kernel is timed right before
and right after the run, so the harness can rescale the set-up and run times
to the reference machine (``floorbench.calibration``).  A fresh process per
repetition makes ``peak_rss_mb`` that repetition's alone (``ru_maxrss`` only
ever grows within a process).  Exit code 1 means the run raised or its
outputs were wrong.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback

from repro import obs

from floorbench import calibration, checks
from floorbench.layers import install, layer_metrics, predicted_zero_problems
from floorbench.tracer import LayerTracer
from floorbench.workloads import WORKLOADS, prepare

SETUP_SAMPLES = 25
SETUP_BUDGET_S = 0.5


def _store_counts(model) -> tuple[int, int] | None:
    store = model.warm_store
    return None if store is None else (store.stats.hits, store.stats.misses)


def run_once(workload, seed: int, *, trace: bool, scratch_dir: str) -> dict:
    """Set up, run and check one repetition; the record :func:`main` prints."""
    obs.disable()
    record: dict = {"trace": trace, "setup_s": []}
    # Set-up is short and noisy next to a run, so it is repeated (fresh
    # objects each time) until enough samples or time; the last one runs.
    while True:
        start = time.perf_counter()
        prepared = prepare(workload, seed, scratch_dir=scratch_dir)
        record["setup_s"].append(time.perf_counter() - start)
        if (
            len(record["setup_s"]) >= SETUP_SAMPLES
            or sum(record["setup_s"]) >= SETUP_BUDGET_S
        ):
            break
        prepared.close()
    tracer = LayerTracer() if trace else None
    try:
        record["kernel_s"] = [calibration.kernel_s()]
        if tracer is not None:
            install(tracer)
        store_before = _store_counts(prepared.model)
        start = time.perf_counter()
        result = prepared.run()
        record["run_s"] = time.perf_counter() - start
        if tracer is not None:
            tracer.uninstall()
        record["kernel_s"].append(calibration.kernel_s())
        problems = []
        if tracer is not None:
            store_delta = None
            if store_before is not None:
                after = _store_counts(prepared.model)
                store_delta = (after[0] - store_before[0], after[1] - store_before[1])
            record["layers"] = layer_metrics(
                tracer.summary(), result, store_delta, record["run_s"]
            )
            problems += predicted_zero_problems(workload.name, record["layers"])
        outputs = checks.simulated_outputs(result)
        record["outputs"] = outputs
        record["server_periods"] = result.n_periods * result.n_servers
        problems += checks.invariant_problems(result, prepared)
        expected = checks.load_reference().get(workload.name, {}).get(str(seed))
        record["reference"] = expected is not None
        if expected is not None:
            problems += checks.reference_problems(outputs, expected)
        record["problems"] = problems
    finally:
        if tracer is not None:
            tracer.uninstall()
        prepared.close()
    record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    record["ok"] = not record["problems"]
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scratch", required=True)
    args = parser.parse_args(argv)
    try:
        record = run_once(
            WORKLOADS[args.workload],
            args.seed,
            trace=bool(args.trace),
            scratch_dir=args.scratch,
        )
    except Exception as error:  # a failed operation: report it, keep the harness up
        traceback.print_exc()
        record = {"ok": False, "problems": [f"{type(error).__name__}: {error}"]}
    print(json.dumps(record))
    return 0 if record["ok"] else 1


if __name__ == "__main__":
    sys.exit(main())
