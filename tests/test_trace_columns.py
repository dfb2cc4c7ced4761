"""The columnar trace against the eager golden model.

``RackTrace`` stores decisions as NumPy columns and a coarse span commits
column slices; ``tests/reference_trace.py`` keeps the list-of-objects trace
that materialized every held period.  Over coarse diurnal and flash-crowd
floors, a fine reactive floor, MPC over a chiller bank with a maintenance
window and a threaded mixed-SKU floor, every decoded decision, list,
aggregate and summary must equal the reference's.  The aggregates must not
decode periods at all, and a finished trace must stay small.
"""

from __future__ import annotations

import gc
import tracemalloc
from dataclasses import replace

import pytest

from reference_trace import reference_advance_span, run_reference_trace
from repro.core.runtime_controller import DecisionPolicy, RackTrace
from repro.datacenter.model import CoarseningConfig, DatacenterModel, DatacenterSpan
from repro.datacenter.scenarios import build_scenario
from repro.datacenter.supervisory import (
    MpcSupervisoryController,
    SupervisoryController,
)
from repro.floorplan.xeon_e5_v4 import build_xeon_e5_v4_floorplan
from repro.thermal.simulator import ThermalSimulator
from repro.thermosyphon.chiller import ChillerBank, ChillerPlant

CELL_SIZE_MM = 4.0
CONTROL_PERIOD_S = 2.0
PHASE_DT_S = 60.0
#: Low enough that valves and DVFS act on the fine reactive floor.
LOW_CASE_LIMIT_C = 60.0
#: Bytes a finished trace may retain per (period, server) pair.
TRACE_BYTES_PER_SERVER_PERIOD = 64

_DECISION_FIELDS = (
    "time_s",
    "case_temperature_c",
    "die_hot_spot_c",
    "package_power_w",
    "water_flow_kg_h",
    "frequency_ghz",
    "action",
    "settle_residual_c",
    "period_peak_case_c",
)


def _coarse_floor(floorplan, kind, duration_s, **kwargs):
    scenario = build_scenario(
        kind,
        n_racks=2,
        servers_per_rack=2,
        duration_s=duration_s,
        seed=3,
        phase_dt_s=PHASE_DT_S,
        floorplan=floorplan,
    )
    return DatacenterModel(
        scenario.racks,
        floorplan=floorplan,
        thermal_simulator=ThermalSimulator(floorplan, cell_size_mm=CELL_SIZE_MM),
        control_period_s=CONTROL_PERIOD_S,
        coarsening=CoarseningConfig(),
        **kwargs,
    )


def _fine_reactive(floorplan):
    scenario = build_scenario(
        "flash_crowd", n_racks=2, servers_per_rack=2, duration_s=48.0, seed=5,
        floorplan=floorplan,
    )
    model = DatacenterModel(
        scenario.racks,
        plant=ChillerPlant(free_cooling_outdoor_c=18.0),
        floorplan=floorplan,
        thermal_simulator=ThermalSimulator(floorplan, cell_size_mm=CELL_SIZE_MM),
        control_period_s=CONTROL_PERIOD_S,
        policy=DecisionPolicy(t_case_max_c=LOW_CASE_LIMIT_C),
    )
    return model, SupervisoryController(period_s=8.0, setpoint_max_c=40.0)


def _mpc_bank(floorplan):
    bank = ChillerBank.uniform(
        3, 160.0, maintenance_windows=[((16.0, 48.0),)]
    )
    model = _coarse_floor(floorplan, "diurnal", 96.0, plant=bank)
    return model, MpcSupervisoryController(period_s=16.0, setpoint_max_c=40.0, horizon=2)


def _mixed_sku(floorplan):
    wide = build_xeon_e5_v4_floorplan(spreader_size_mm=42.0)
    racks = []
    for index, rack_floorplan in enumerate((floorplan, wide)):
        scenario = build_scenario(
            "diurnal", n_racks=1, servers_per_rack=2, duration_s=240.0,
            seed=3 + index, phase_dt_s=PHASE_DT_S, floorplan=rack_floorplan,
        )
        racks.append(
            replace(
                scenario.racks[0],
                name=f"sku{index}",
                floorplan=None if index == 0 else rack_floorplan,
            )
        )
    model = DatacenterModel(
        racks,
        floorplan=floorplan,
        thermal_simulator=ThermalSimulator(floorplan, cell_size_mm=CELL_SIZE_MM),
        control_period_s=CONTROL_PERIOD_S,
        coarsening=CoarseningConfig(),
        parallel_groups=2,
    )
    return model, None


CASES = {
    "coarse_diurnal": lambda fp: (_coarse_floor(fp, "diurnal", 240.0), None),
    "coarse_flash_crowd": lambda fp: (_coarse_floor(fp, "flash_crowd", 240.0), None),
    "fine_reactive": _fine_reactive,
    "mpc_bank_maintenance": _mpc_bank,
    "mixed_sku_threaded": _mixed_sku,
}


def _run_pair(floorplan, build):
    """The same floor twice from cold: columnar run, then the golden run."""
    model, supervisory = build(floorplan)
    session = model.session()
    try:
        trace = session.run(supervisory=supervisory)
    finally:
        session.close()
    model, supervisory = build(floorplan)
    session = model.session()
    try:
        reference = run_reference_trace(session, supervisory=supervisory)
    finally:
        session.close()
    return trace, reference


def _assert_identical(trace, reference):
    assert trace.n_periods == reference.n_periods
    assert trace.n_servers == reference.n_servers
    assert trace.setpoint_c == reference.setpoint_c
    assert trace.plant_power_w == reference.plant_power_w
    assert trace.staging == reference.staging
    assert trace.supervisory_decisions == reference.supervisory_decisions
    assert trace.coarse_spans == reference.coarse_spans
    assert trace.coarse_periods == reference.coarse_periods
    for rack, golden in zip(trace.racks, reference.racks, strict=True):
        assert rack.chiller_power_w == golden.chiller_power_w
        assert rack.n_periods == golden.n_periods
        assert rack.n_servers == golden.n_servers
        for t, golden_period in enumerate(golden.periods):
            period = rack.periods[t]
            assert len(period) == len(golden_period)
            for s, expected in enumerate(golden_period):
                for name in _DECISION_FIELDS:
                    assert getattr(period[s], name) == getattr(expected, name), (
                        t, s, name,
                    )
        assert rack.periods == golden.periods
        for server in range(golden.n_servers):
            assert rack.server_decisions(server) == golden.server_decisions(server)
        for name in (
            "emergencies",
            "flow_increases",
            "frequency_reductions",
            "peak_case_temperature_c",
            "peak_period_case_temperature_c",
            "mean_chiller_power_w",
            "chiller_energy_j",
        ):
            assert getattr(rack, name) == getattr(golden, name), name
    for name in (
        "thermal_violations",
        "emergencies",
        "peak_case_temperature_c",
        "peak_period_case_temperature_c",
        "plant_energy_j",
    ):
        assert getattr(trace, name) == getattr(reference, name), name
    assert trace.summary() == reference.summary()


@pytest.mark.parametrize("case", sorted(CASES))
def test_columnar_trace_equals_eager_reference(floorplan, case):
    trace, reference = _run_pair(floorplan, CASES[case])
    if case.startswith("coarse") or case in ("mixed_sku_threaded", "mpc_bank_maintenance"):
        assert trace.coarse_spans > 0, "no span formed: the comparison is vacuous"
    if case == "mpc_bank_maintenance":
        assert len(trace.staging) == trace.n_periods
        assert len({s.units_on for s in trace.staging}) > 1
    if case == "fine_reactive":
        assert trace.supervisory_decisions
        assert any(
            rack.flow_increases + rack.frequency_reductions for rack in trace.racks
        )
    _assert_identical(trace, reference)


def test_advance_span_periods_equal_eager_materialization(floorplan):
    model = _coarse_floor(
        floorplan, "diurnal", 240.0, plant=ChillerBank.uniform(2, 200.0)
    )
    session = model.session()
    session.reset()
    for index in range(4):
        session._note_period(session.advance_period(index * CONTROL_PERIOD_S))
    snapshot = session.snapshot()
    span = session.advance_span(4 * CONTROL_PERIOD_S, 8)
    session.restore(snapshot)
    eager = reference_advance_span(session, 4 * CONTROL_PERIOD_S, 8)
    assert isinstance(span, DatacenterSpan)
    assert len(span) == len(eager) == 8
    assert list(span) == eager
    assert span[-1] == eager[-1]
    assert span.worst_period_peak_case_c == max(
        period.worst_period_peak_case_c for period in eager
    )
    with pytest.raises(IndexError):
        span[8]


def test_long_trace_aggregates_read_columns_only(floorplan, monkeypatch):
    """A 1,000-period coarse trace: aggregates equal the golden loops', and
    none of them decodes a single period."""
    trace, reference = _run_pair(
        floorplan, lambda fp: (_coarse_floor(fp, "diurnal", 2000.0), None)
    )
    assert trace.n_periods == 1000
    assert trace.coarse_periods > trace.n_periods // 2

    def no_decoding(self):
        raise AssertionError("aggregate decoded RackTrace.periods")

    monkeypatch.setattr(RackTrace, "periods", property(no_decoding))
    assert trace.thermal_violations == reference.thermal_violations
    assert trace.peak_case_temperature_c == reference.peak_case_temperature_c
    assert (
        trace.peak_period_case_temperature_c
        == reference.peak_period_case_temperature_c
    )
    assert trace.emergencies == reference.emergencies
    for rack, golden in zip(trace.racks, reference.racks):
        assert rack.flow_increases == golden.flow_increases
        assert rack.frequency_reductions == golden.frequency_reductions
        assert rack.n_servers == golden.n_servers
    assert trace.summary() == reference.summary()
    # No period of this floor reaches the thermal limit; recount against a
    # limit 1 C below the peak, where some do.
    low = replace(trace, t_case_max_c=trace.peak_period_case_temperature_c - 1.0)
    low_reference = replace(
        reference, t_case_max_c=reference.peak_period_case_temperature_c - 1.0
    )
    assert low.thermal_violations == low_reference.thermal_violations > 0


def test_finished_trace_memory_per_server_period(floorplan):
    """A finished coarse trace retains at most 64 B per (period, server)."""
    scenario = build_scenario(
        "diurnal", n_racks=2, servers_per_rack=4, duration_s=1200.0, seed=0,
        phase_dt_s=300.0, envelope_period_s=4800.0, floorplan=floorplan,
    )
    model = DatacenterModel(
        scenario.racks,
        floorplan=floorplan,
        thermal_simulator=ThermalSimulator(floorplan, cell_size_mm=CELL_SIZE_MM),
        control_period_s=CONTROL_PERIOD_S,
        coarsening=CoarseningConfig(),
    )
    session = model.session()
    session.run()  # warm-up: caches, reduced bases and memos fill here
    gc.collect()
    tracemalloc.start()
    try:
        trace = session.run()
        server_periods = trace.n_periods * trace.n_servers
        coarse_fraction = trace.coarse_periods / trace.n_periods
        gc.collect()
        with_trace = tracemalloc.get_traced_memory()[0]
        del trace
        gc.collect()
        without_trace = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert coarse_fraction > 0.5  # the trace really is coarsened
    per_server_period = (with_trace - without_trace) / server_periods
    print(f"finished trace: {per_server_period:.1f} B per server-period")
    assert 0 < per_server_period <= TRACE_BYTES_PER_SERVER_PERIOD
