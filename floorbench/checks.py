"""Correctness of one run's simulated outputs.

Two layers of checks, both returning a list of problems (empty = correct):

* :func:`reference_problems` compares against the committed expected outputs
  of a workload and seed (``reference.json``): period count and thermal
  violations exactly, plant energy to :data:`ENERGY_RTOL`, the peak period
  case temperature within :data:`PEAK_ATOL_C` (the coarse-lane contract).
* :func:`invariant_problems` holds for any seed: the period count, plant
  energy equal to the sum of the per-rack chiller powers, finite physical
  temperatures, setpoints inside the controller's range, and a warm replay
  bit-identical to the cold run that filled its store.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

REFERENCE_PATH = Path(__file__).with_name("reference.json")
ENERGY_RTOL = 1e-4
PEAK_ATOL_C = 0.1
#: Sum-of-rack-powers energy identity; only summation order differs.
LEDGER_RTOL = 1e-9
#: Physical sanity range of a case temperature on this hardware.
CASE_RANGE_C = (0.0, 150.0)


def simulated_outputs(trace) -> dict:
    """The outputs a run is judged on, as plain JSON numbers."""
    return {
        "periods": trace.n_periods,
        "thermal_violations": trace.thermal_violations,
        "plant_energy_kj": trace.plant_energy_j / 1e3,
        "peak_case_c": trace.peak_period_case_temperature_c,
    }


def load_reference() -> dict:
    """``{workload: {seed (str): outputs}}`` from the committed file."""
    with open(REFERENCE_PATH) as handle:
        return json.load(handle)["expected"]


def reference_problems(outputs: dict, expected: dict) -> list[str]:
    """Mismatches of ``outputs`` against one expected-outputs record."""
    problems = []
    for key in ("periods", "thermal_violations"):
        if outputs[key] != expected[key]:
            problems.append(f"{key} {outputs[key]} != expected {expected[key]}")
    energy, want = outputs["plant_energy_kj"], expected["plant_energy_kj"]
    if not math.isclose(energy, want, rel_tol=ENERGY_RTOL, abs_tol=0.0):
        problems.append(f"plant_energy_kj {energy!r} != expected {want!r}")
    peak, want = outputs["peak_case_c"], expected["peak_case_c"]
    if not abs(peak - want) <= PEAK_ATOL_C:
        problems.append(f"peak_case_c {peak!r} off expected {want!r} by > {PEAK_ATOL_C}")
    return problems


def invariant_problems(trace, prepared) -> list[str]:
    """Seed-independent checks of a finished run."""
    workload = prepared.workload
    model = prepared.model
    problems = []
    expected_periods = _expected_periods(model)
    if trace.n_periods != expected_periods:
        problems.append(f"periods {trace.n_periods} != {expected_periods}")
    if trace.n_servers != workload.n_servers:
        problems.append(f"servers {trace.n_servers} != {workload.n_servers}")
    rack_energy_j = sum(
        sum(rack.chiller_power_w) for rack in trace.racks
    ) * trace.control_period_s
    if not (trace.plant_energy_j > 0.0 and math.isfinite(trace.plant_energy_j)):
        problems.append(f"plant energy {trace.plant_energy_j!r} J is not positive")
    elif not math.isclose(rack_energy_j, trace.plant_energy_j, rel_tol=LEDGER_RTOL):
        problems.append(
            f"plant energy {trace.plant_energy_j!r} J != sum of rack chiller "
            f"energy {rack_energy_j!r} J"
        )
    low, high = CASE_RANGE_C
    peak = trace.peak_period_case_temperature_c
    if not low < peak < high:
        problems.append(f"peak case temperature {peak!r} outside {CASE_RANGE_C}")
    supervisory = prepared.supervisory
    if supervisory is not None:
        outside = [
            s
            for s in trace.setpoint_c
            if not supervisory.setpoint_min_c <= s <= supervisory.setpoint_max_c
        ]
        if outside:
            problems.append(f"{len(outside)} setpoints outside the controller range")
    elif len(set(trace.setpoint_c)) != 1:
        problems.append("fixed-setpoint run moved its setpoint")
    if prepared.fill_trace is not None:
        cold = simulated_outputs(prepared.fill_trace)
        warm = simulated_outputs(trace)
        if cold != warm:
            problems.append(f"warm replay {warm} differs from cold fill {cold}")
    return problems


def _expected_periods(model) -> int:
    """Control periods ``DatacenterSession.run`` must commit for the model."""
    duration = model.duration_s
    periods, time_s = 0, 0.0
    while time_s < duration:
        time_s += model.control_period_s
        periods += 1
    return periods
