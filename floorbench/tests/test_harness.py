"""Tests of the benchmark harness itself: tracer, checks, workload set-up."""

from __future__ import annotations

import json
import os
import threading
import time
import types
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

from floorbench import checks, workloads
from floorbench.layers import LAYER_METRICS, predicted_zero_problems
from floorbench.rep import run_once
from floorbench.run import END_TO_END_UNITS, _child_env
from floorbench.tracer import LayerTracer

ROOT = Path(__file__).resolve().parents[2]


class FakeClock:
    """Deterministic nanosecond clock advanced explicitly by the code under test."""

    def __init__(self) -> None:
        self.now = 0

    def __call__(self) -> int:
        return self.now

    def spend(self, ns: int) -> None:
        self.now += ns


def test_nested_self_time_is_exact():
    clock = FakeClock()

    class Layers:
        def outer(self):
            clock.spend(10)
            self.inner()
            clock.spend(5)
            self.inner()
            return "done"

        def inner(self):
            clock.spend(7)
            self.leaf()

        def leaf(self):
            clock.spend(3)

    tracer = LayerTracer(clock=clock)
    for name in ("outer", "inner", "leaf"):
        tracer.wrap(Layers, name)
    assert Layers().outer() == "done"
    tracer.uninstall()

    summary = tracer.summary()
    assert summary.total_s("Layers.outer") * 1e9 == pytest.approx(35)
    assert summary.self_s("Layers.outer") * 1e9 == pytest.approx(15)
    assert summary.calls("Layers.inner", parent="Layers.outer") == 2
    assert summary.self_s("Layers.inner") * 1e9 == pytest.approx(14)
    assert summary.total_s("Layers.leaf", parent="Layers.inner") * 1e9 == pytest.approx(6)
    assert summary.all_self_s() * 1e9 == pytest.approx(35)


def test_recursion_counts_inclusive_time_once():
    clock = FakeClock()

    class Walker:
        def walk(self, depth):
            clock.spend(2)
            if depth:
                self.walk(depth - 1)

    tracer = LayerTracer(clock=clock)
    tracer.wrap(Walker, "walk")
    Walker().walk(3)
    tracer.uninstall()

    summary = tracer.summary()
    assert summary.calls("Walker.walk") == 4
    assert summary.total_s("Walker.walk") * 1e9 == pytest.approx(8)
    assert summary.self_s("Walker.walk") * 1e9 == pytest.approx(8)


def test_uninstall_restores_own_and_inherited_methods():
    class Base:
        def step(self):
            return "base"

    class Child(Base):
        pass

    original = Base.__dict__["step"]
    tracer = LayerTracer()
    tracer.wrap(Child, "step")
    tracer.wrap(Base, "step")
    assert Child().step() == "base"
    tracer.uninstall()
    assert "step" not in Child.__dict__
    assert Base.__dict__["step"] is original


def test_threaded_tasks_are_adopted_and_self_times_sum_exactly():
    pool_module = types.ModuleType("pool_module")
    pool_module.ThreadPoolExecutor = ThreadPoolExecutor
    barrier = threading.Barrier(2, timeout=10)

    def solve(rows):
        time.sleep(0.02)
        return rows

    def task(rows):
        barrier.wait()  # both tasks in flight at once: real overlap
        time.sleep(0.01)
        return pool_module.solve(rows)

    def fan_out():
        time.sleep(0.005)
        with pool_module.ThreadPoolExecutor(max_workers=2) as pool:
            return sum(pool.map(task, (1, 2)))

    pool_module.solve = solve
    pool_module.fan_out = fan_out
    tracer = LayerTracer()
    tracer.wrap(pool_module, "fan_out")
    tracer.wrap(pool_module, "solve")
    tracer.adopt_pool(pool_module)
    assert pool_module.fan_out() == 3
    tracer.uninstall()
    assert pool_module.ThreadPoolExecutor is ThreadPoolExecutor

    summary = tracer.summary()
    # Calls inside pool tasks keep the submitting call as their parent.
    assert summary.calls("solve", parent="fan_out") == 2
    assert summary.calls("solve", parent=None) == 0
    # Two concurrent tasks: task time exceeds the interval fan_out waited.
    assert summary.task_s > summary.waited_s > 0.0
    wall = summary.total_s("fan_out")
    assert summary.all_self_s() == pytest.approx(wall + summary.parallel_excess_s, abs=1e-9)
    # fan_out's own thread time excludes the wait but keeps its own sleep.
    assert 0.004 < summary.self_s("fan_out") - (summary.task_s - summary.self_s("solve")) < wall


def _outputs(**changes):
    outputs = {
        "periods": 200,
        "thermal_violations": 3,
        "plant_energy_kj": 1234.5,
        "peak_case_c": 81.2,
    }
    outputs.update(changes)
    return outputs


def test_reference_check_accepts_matching_outputs():
    expected = _outputs()
    assert checks.reference_problems(_outputs(), expected) == []
    assert checks.reference_problems(_outputs(plant_energy_kj=1234.5 * (1 + 1e-6)), expected) == []
    assert checks.reference_problems(_outputs(peak_case_c=81.25), expected) == []


@pytest.mark.parametrize(
    "changes",
    [
        {"plant_energy_kj": 1234.5 * 1.001},
        {"thermal_violations": 4},
        {"periods": 201},
        {"peak_case_c": 81.35},
    ],
)
def test_reference_check_rejects_perturbed_outputs(changes):
    problems = checks.reference_problems(_outputs(**changes), _outputs())
    assert len(problems) == 1
    assert next(iter(changes)) in problems[0]


def test_committed_reference_has_every_workload_on_default_and_held_out_seed():
    reference = checks.load_reference()
    for name in workloads.WORKLOADS:
        assert {"0", "1"} <= set(reference[name])


def test_warm_store_environment_never_reaches_a_workload(tmp_path, monkeypatch):
    user_store = tmp_path / "user-store"
    monkeypatch.setenv(workloads.WARM_STORE_ENV, str(user_store))
    assert workloads.WARM_STORE_ENV not in _child_env()
    prepared = workloads.prepare(
        workloads.WORKLOADS["fine_flash"], 0, scratch_dir=str(tmp_path)
    )
    try:
        assert prepared.model.warm_store is None
        assert workloads.WARM_STORE_ENV not in os.environ
    finally:
        prepared.close()
    assert not user_store.exists()


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_seed_reaches_build_scenario(name, monkeypatch):
    seen = []
    real = workloads.build_scenario

    def recording(kind, **kwargs):
        seen.append((kind, kwargs["seed"]))
        return real(kind, **kwargs)

    monkeypatch.setattr(workloads, "build_scenario", recording)
    workload = workloads.WORKLOADS[name]
    _, racks = workloads._racks(workload, 1234)
    assert seen == [(workload.scenario, 1234)]
    assert len(racks) == workload.n_racks


def test_benchmark_json_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        w.name: w.why for w in workloads.WORKLOADS.values()
    }
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END_UNITS
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        (m.name, m.unit, m.better) for m in LAYER_METRICS
    ]


def test_traced_fine_flash_run_is_correct_and_fully_attributed(tmp_path):
    record = run_once(
        workloads.WORKLOADS["fine_flash"], 0, trace=True, scratch_dir=str(tmp_path)
    )
    assert record["ok"], record["problems"]
    assert record["reference"]
    layers = record["layers"]
    assert {m.name for m in LAYER_METRICS} - set(layers) == {"trace.overhead"}
    assert layers["trace.coverage"] == pytest.approx(1.0, abs=0.05)
    assert layers["session.periods_per_call"] == 1.0
    assert layers["thermal.steps"] > 0
    # The record is ok only when every predicted zero held; a stray one fails.
    assert predicted_zero_problems("fine_flash", layers) == []
    assert predicted_zero_problems("fine_flash", {**layers, "rom.builds": 1}) == [
        "rom.builds is 1 where predicted zero"
    ]


def test_aggregate_rescales_times_to_the_reference_machine():
    from floorbench.calibration import REFERENCE_S
    from floorbench.run import aggregate

    def rep(run_s, kernel_s):
        return {
            "ok": True, "trace": False, "kernel_s": kernel_s, "run_s": run_s,
            "setup_s": [1.0, 1.2], "server_periods": 100, "peak_rss_mb": 90.0,
            "outputs": {"plant_energy_kj": 10.0, "thermal_violations": 1},
        }

    # Each repetition is rescaled by the mean of its own two kernel times:
    # 5 s on a machine four times as slow as the reference reads as 1.25 s.
    slow = 2 * REFERENCE_S
    metrics = aggregate(
        [rep(4.0, [slow, slow]), rep(5.0, [slow, 3 * slow]), rep(1.0, [slow, slow])],
        trace=False,
    )
    assert metrics["server_periods_per_s"]["value"] == pytest.approx(100 / 1.25)
    # Set-up samples 1.0 and 1.2 s of each: /2, /4 and /2.
    assert metrics["setup_s"]["value"] == pytest.approx(0.5)
    assert metrics["compliant_period_pct"]["value"] == pytest.approx(99.0)
