"""Run one benchmark workload and print its metrics as JSON.

Usage, from the repository root::

    python3 floorbench/run.py --workload coarse_day --seed 0 --seconds 25 --trace 0

Repetitions run one after another, each in a fresh interpreter
(``floorbench.rep``) with a fixed hash seed, one BLAS thread and, where
``setarch`` allows, no address randomization, until ``--seconds`` of wall time
have passed.  Each repetition's set-up and run times are rescaled to the
reference machine by the calibration kernel timed around its run
(``floorbench.calibration``), which takes out most of a shared host's speed
drift; the raw times stay in the metadata line.  ``--trace 0`` needs at least
two repetitions and reports the end-to-end metrics as medians over them;
``--trace 1`` alternates untraced and traced repetitions (at least two each)
and reports the per-layer metrics (medians over the traced ones) plus the
tracing overhead.  The line before the result holds the machine metadata and
every repetition's raw record; the last line is the result:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Scratch space inside the checkout (warm stores); removed after each run.
SCRATCH = ROOT / ".floorbench"
#: Whole-run wall-clock cap; a repetition still running then is killed.
DEADLINE_S = 170.0
MIN_REPS = 2

END_TO_END_UNITS = {
    "server_periods_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "plant_energy_kj": "kJ",
    "compliant_period_pct": "%",
}


def _child_env() -> dict:
    env = dict(os.environ)
    env.pop("REPRO_WARM_STORE", None)
    # glibc's default mmap threshold, held fixed: left adaptive, it grows on
    # the first free of a large block and later large arrays land in the heap
    # wherever freed space happens to be, so peak RSS swung 15% between seeds
    # doing identical work.  Fixed, peak RSS follows the live memory.
    env["MALLOC_MMAP_THRESHOLD_"] = str(128 * 1024)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(ROOT)])
    env["PYTHONHASHSEED"] = "0"
    # One BLAS thread: the engine's own group pool is the only parallelism
    # measured, and results do not depend on the machine's core count.
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = "1"
    return env


def _no_aslr_prefix() -> list[str]:
    """``setarch <machine> -R`` when it works here, else nothing.

    Some of the engine's bookkeeping iterates in object-address order, which
    makes a repetition's peak RSS bimodal (about 10 MB apart) under address
    randomization; with it off, peak RSS repeats exactly.
    """
    setarch = shutil.which("setarch")
    if setarch is None:
        return []
    prefix = [setarch, platform.machine(), "-R"]
    try:
        probe = subprocess.run([*prefix, "true"], capture_output=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return []
    return prefix if probe.returncode == 0 else []


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def machine_metadata() -> dict:
    import numpy
    import scipy

    from floorbench import calibration

    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "git_commit": _git_commit(),
        "source_digest": _source_digest(),
        "calibration_s": calibration.kernel_s(),
        "calibration_reference_s": calibration.REFERENCE_S,
        "blas_threads": 1,
    }


def run_rep(
    workload: str, seed: int, trace: bool, scratch: Path, timeout_s: float, prefix: list[str]
) -> dict:
    """One repetition in a fresh interpreter; a crash or timeout is a failure."""
    command = [
        *prefix, sys.executable, "-m", "floorbench.rep",
        "--workload", workload, "--seed", str(seed),
        "--trace", str(int(trace)), "--scratch", str(scratch),
    ]
    try:
        done = subprocess.run(
            command, cwd=ROOT, env=_child_env(), capture_output=True, text=True,
            timeout=timeout_s,
        )
    except subprocess.TimeoutExpired:
        return {"ok": False, "trace": trace, "problems": [f"timed out after {timeout_s:.0f} s"]}
    lines = done.stdout.strip().splitlines()
    try:
        record = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        record = {"ok": False, "problems": [f"exit {done.returncode}, no record"]}
    if not record.get("ok"):
        sys.stderr.write(done.stderr[-4000:])
    record["trace"] = trace
    return record


def _speed(rep: dict) -> float:
    from floorbench import calibration

    return calibration.speed(rep["kernel_s"])


def aggregate(reps: list[dict], trace: bool) -> dict:
    """The reported metrics: medians over the successful repetitions.

    Times are divided by the ``speed`` of the repetition they come from (its
    calibration kernel time over the reference one), i.e. rescaled to the
    reference machine.
    """
    good = [rep for rep in reps if rep.get("ok")]
    plain = [rep for rep in good if not rep["trace"]]
    metrics: dict[str, dict] = {}
    if trace:
        traced = [rep for rep in good if rep["trace"]]
        if not traced or not plain:
            return metrics
        from floorbench.layers import LAYER_METRICS

        units = {metric.name: metric.unit for metric in LAYER_METRICS}
        for name in traced[0]["layers"]:
            scaled = units[name] == "s"
            metrics[name] = statistics.median(
                rep["layers"][name] / (_speed(rep) if scaled else 1.0) for rep in traced
            )
        metrics["trace.overhead"] = statistics.median(
            rep["run_s"] / _speed(rep) for rep in traced
        ) / statistics.median(rep["run_s"] / _speed(rep) for rep in plain)
    else:
        if not plain:
            return metrics
        median = statistics.median
        metrics = {
            "server_periods_per_s": median(
                r["server_periods"] * _speed(r) / r["run_s"] for r in plain
            ),
            "setup_s": median(sample / _speed(r) for r in plain for sample in r["setup_s"]),
            "peak_rss_mb": median(r["peak_rss_mb"] for r in plain),
            "plant_energy_kj": median(r["outputs"]["plant_energy_kj"] for r in plain),
            "compliant_period_pct": median(
                100.0 * (1.0 - r["outputs"]["thermal_violations"] / r["server_periods"])
                for r in plain
            ),
        }
        units = END_TO_END_UNITS
    return {name: {"value": value, "unit": units[name]} for name, value in metrics.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # A terminated run still kills its running repetition (subprocess.run
    # kills the child on any exception) and removes its scratch directory.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    sys.path[:0] = [str(SRC), str(ROOT)]
    try:
        import repro.datacenter

        from floorbench.workloads import WORKLOADS
    except ImportError as error:
        print(f"cannot import the simulator from {SRC}: {error}", file=sys.stderr)
        return 2
    if SRC not in Path(repro.datacenter.__file__).resolve().parents:
        print(f"the simulator must come from {SRC}, not {repro.datacenter.__file__}",
              file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; known: {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    metadata = machine_metadata()
    prefix = _no_aslr_prefix()
    metadata["address_randomization"] = not prefix

    trace = bool(args.trace)
    reps: list[dict] = []
    SCRATCH.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="run-", dir=SCRATCH))
    start = time.perf_counter()
    try:
        longest = 0.0
        while True:
            elapsed = time.perf_counter() - start
            untraced = sum(1 for rep in reps if not rep["trace"])
            done_min = (
                min(untraced, len(reps) - untraced) if trace else untraced
            ) >= MIN_REPS
            if (elapsed >= args.seconds and done_min) or elapsed + longest > DEADLINE_S - 10:
                break
            # Traced runs alternate untraced and traced repetitions.
            rep_trace = trace and len(reps) % 2 == 1
            rep_start = time.perf_counter()
            reps.append(
                run_rep(
                    args.workload, args.seed, rep_trace, scratch, DEADLINE_S - elapsed, prefix
                )
            )
            longest = max(longest, time.perf_counter() - rep_start)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            SCRATCH.rmdir()
        except OSError:
            pass

    failed = sum(1 for rep in reps if not rep.get("ok"))
    metrics = aggregate(reps, trace)
    print(json.dumps({
        "metadata": metadata,
        "floor": workload.describe(args.seed),
        "seconds": args.seconds,
        "reps": reps,
    }))
    print(json.dumps({
        "correct": failed == 0 and bool(metrics),
        "attempted": len(reps),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
