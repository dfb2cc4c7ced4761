"""Long-trace benchmark: adaptive coarsening + ROM lane vs fine stepping.

The tentpole claim of the long-trace engine: a fig10-style diurnal
datacenter trace advances through quasi-steady stretches in dyadic
macro-spans with the reduced-order thermal lane, so simulated time
scales far better than the PR 7 engine's period-at-a-time stepping —
while reproducing the fine engine's per-server within-period peak case
temperatures to 0.1 C with zero missed or spurious thermal violations
(the golden contract; see ``tests/test_longtrace.py``).

``test_coarse_engine_speedup_vs_fine`` is the hard gate (also run by the
CI ``--quick`` smoke step): >= 3x at reduced scale, golden-checked in the
same breath.  ``test_closed_form_span_speedup_vs_loop`` gates the reduced
lane's inner kernel the same way: the closed-form span evaluation must
beat the substep loop kept in ``tests/reference_rom_march.py`` by >= 4x
on a full 64-period span, agreeing with it to 1e-12.
``test_bench_longtrace_100k_periods`` is the headline demonstration — a
>= 100k-period diurnal trace (a simulated season of compressed days) at
>= 5x over the fine engine, with the fine baseline measured on a slice
and extrapolated linearly (its per-period cost is constant by
construction).  It runs only when ``RUN_LONGTRACE`` is set:
minutes of wall clock buy nothing in CI that the reduced-scale gate does
not already pin.
"""

from __future__ import annotations

import os
import time
import timeit

import numpy as np
import pytest

from repro.datacenter.model import CoarseningConfig, DatacenterModel
from repro.datacenter.scenarios import build_scenario
from repro.floorplan.xeon_e5_v4 import build_xeon_e5_v4_floorplan
from repro.power.power_model import ServerPowerModel
from repro.thermal.rom import RomConfig, build_reduced_operator
from repro.thermal.simulator import ThermalSimulator, case_cell_row_column
from repro.thermosyphon.design import PAPER_OPTIMIZED_DESIGN
from repro.thermosyphon.loop import ThermosyphonLoop
from tests.reference_rom_march import reference_rom_march

CELL_SIZE_MM = 4.0
CONTROL_PERIOD_S = 2.0
N_RACKS = 2
SERVERS_PER_RACK = 2
#: Reduced scale for the gate: 1200 periods with 150-period flat envelope
#: phases — long enough for 64-period dyadic spans, short enough for CI.
GATE_DURATION_S = 2400.0
GATE_PHASE_DT_S = 300.0
#: Headline scale: 100k periods of compressed days (envelope repeats every
#: 12 simulated hours, sampled every 30 envelope-minutes).
HEADLINE_DURATION_S = 200_000.0
HEADLINE_PHASE_DT_S = 1800.0
HEADLINE_ENVELOPE_PERIOD_S = 43_200.0


def _setup(duration_s, phase_dt_s, envelope_period_s=None):
    floorplan = build_xeon_e5_v4_floorplan()
    power_model = ServerPowerModel(floorplan)
    scenario = build_scenario(
        "diurnal",
        n_racks=N_RACKS,
        servers_per_rack=SERVERS_PER_RACK,
        duration_s=duration_s,
        seed=3,
        phase_dt_s=phase_dt_s,
        envelope_period_s=envelope_period_s,
        floorplan=floorplan,
    )
    return floorplan, power_model, scenario


def _run(floorplan, power_model, scenario, duration_s, coarsening):
    floor = DatacenterModel(
        scenario.racks,
        floorplan=floorplan,
        power_model=power_model,
        thermal_simulator=ThermalSimulator(floorplan, cell_size_mm=CELL_SIZE_MM),
        control_period_s=CONTROL_PERIOD_S,
        coarsening=coarsening,
    )
    return floor.run_trace(duration_s=duration_s)


def _peak_grid(trace):
    return np.array(
        [
            [[d.period_peak_case_c for d in period] for period in rack.periods]
            for rack in trace.racks
        ]
    )


def test_bench_longtrace_coarse(benchmark):
    """pytest-benchmark entry: the coarse engine over a 600-period trace."""
    floorplan, power_model, scenario = _setup(1200.0, GATE_PHASE_DT_S)
    trace = benchmark(
        lambda: _run(floorplan, power_model, scenario, 1200.0, CoarseningConfig())
    )
    assert trace.n_periods == int(1200.0 / CONTROL_PERIOD_S)
    assert trace.coarse_spans > 0


def test_coarse_engine_speedup_vs_fine(capsys):
    """Acceptance gate: coarsening + ROM >= 3x the fine engine, golden-checked.

    Same scenario, same floor, same fine warm-up periods — the coarse run
    differs only in replacing quasi-steady stretches with macro-spans
    through the reduced lane.  Observed ratio is ~5x at this scale; 3x is
    the gate so CI noise cannot flake it while a regression to fine
    stepping (or a ROM that always falls back) fails loudly.
    """
    floorplan, power_model, scenario = _setup(GATE_DURATION_S, GATE_PHASE_DT_S)

    start = time.perf_counter()
    fine = _run(floorplan, power_model, scenario, GATE_DURATION_S, None)
    fine_s = time.perf_counter() - start

    timings = []
    coarse = None
    for _ in range(3):
        start = time.perf_counter()
        coarse = _run(
            floorplan, power_model, scenario, GATE_DURATION_S, CoarseningConfig()
        )
        timings.append(time.perf_counter() - start)
    coarse_s = min(timings)

    assert coarse is not None
    assert coarse.n_periods == fine.n_periods
    assert coarse.coarse_spans > 0
    assert coarse.rom_stats is not None and coarse.rom_stats.rom_periods > 0
    # The golden contract travels with the perf gate: a fast-but-wrong
    # coarse engine must fail here, not in a separate suite.
    diff = float(np.max(np.abs(_peak_grid(coarse) - _peak_grid(fine))))
    assert diff < 0.1
    assert coarse.thermal_violations == fine.thermal_violations

    speedup = fine_s / coarse_s
    with capsys.disabled():
        print(
            f"\n[longtrace @ {CELL_SIZE_MM} mm, {N_RACKS}x{SERVERS_PER_RACK} "
            f"servers, {fine.n_periods} periods] fine {fine_s * 1e3:.0f} ms, "
            f"coarse {coarse_s * 1e3:.0f} ms, speedup {speedup:.1f}x "
            f"(spans {coarse.coarse_spans}, coarse periods "
            f"{coarse.coarse_periods}, max peak diff {diff:.1e} C)"
        )
    assert speedup >= 3.0


def _span_operator(n_rows: int, dt_s: float):
    """A reduced operator as the coarse lane builds one, with its rows.

    The 4 mm grid of the gate, the paper design's thermosyphon boundary
    and ``n_rows`` servers of distinct load entering a span 90% of the way
    to their steady state.
    """
    floorplan = build_xeon_e5_v4_floorplan()
    simulator = ThermalSimulator(floorplan, cell_size_mm=CELL_SIZE_MM)
    grid = simulator.grid
    maps = np.stack(
        [
            simulator.power_map(
                {f"core{i}": 6.0 + 0.5 * row + 0.25 * i for i in range(8)}
            )
            for row in range(n_rows)
        ]
    )
    boundary = ThermosyphonLoop(PAPER_OPTIMIZED_DESIGN).cooling_boundary(
        maps.mean(axis=0), grid.cell_pitch_mm()
    ).boundary
    steady = simulator.steady_state_many_from_maps(maps, boundary)
    fields = 0.9 * steady + 0.1 * steady.min()
    row, column = case_cell_row_column(
        floorplan, simulator.grid_mapper.outline, grid.n_rows, grid.n_columns
    )
    case_cell = (
        simulator.stack.index_of("heat_spreader") * grid.cells_per_layer
        + row * grid.n_columns
        + column
    )
    power_vectors = simulator.network.power_vectors(maps)
    operator = build_reduced_operator(
        simulator.network, simulator.solver_cache, boundary, dt_s, fields,
        power_vectors, case_cell, RomConfig(),
    )
    return operator, fields, power_vectors


def _best_of_interleaved(first, second, repeats=60, calls=4):
    """Fastest per-call time of each function over ``repeats`` alternating
    short batches.  Alternating exposes both to the same drift in host
    speed, and the minimum discards batches a shared host interrupted."""
    best = [float("inf"), float("inf")]
    for _ in range(repeats):
        for index, function in enumerate((first, second)):
            elapsed = timeit.timeit(function, number=calls) / calls
            best[index] = min(best[index], elapsed)
    return best


def test_closed_form_span_speedup_vs_loop(capsys):
    """Acceptance gate: closed-form reduced span >= 4x the substep loop.

    One solve group of 8 rows through a full 64-period span of 4 substeps
    (256 reduced substeps), every check included on both sides: the
    three sampled error-bound evaluations, the guard-band test and the
    end-of-span lift.  The two must agree to 1e-12 and make identical
    fallback decisions — a fast-but-different span kernel fails here.

    Those checks run the same ``O(n)`` code on both sides and take about
    half of the closed form's time on this 500-cell operator, which caps
    the ratio: 6.2-8.3x on a 2-vCPU x86 container.  A regression to a
    per-substep loop reads about 1x.
    """
    span, n_substeps = 64, 4
    config = RomConfig()
    operator, fields, power_vectors = _span_operator(8, CONTROL_PERIOD_S / n_substeps)
    coords, entry_error = operator.project(fields)
    args = (coords, entry_error, power_vectors, span, n_substeps, 95.0, config)

    closed = operator.march_span(*args)
    loop = reference_rom_march(operator, *args)
    for name in ("case_hist", "peak_hist", "end_fields", "residuals"):
        diff = float(np.max(np.abs(getattr(closed, name) - getattr(loop, name))))
        assert diff <= 1e-12, name
    per_step = np.abs(closed.error - loop.error) / (span * n_substeps)
    assert float(per_step.max()) <= 1e-12
    assert np.array_equal(closed.ok, loop.ok)

    closed_s, loop_s = _best_of_interleaved(
        lambda: operator.march_span(*args),
        lambda: reference_rom_march(operator, *args),
    )
    speedup = loop_s / closed_s
    with capsys.disabled():
        print(
            f"\n[reduced span @ {CELL_SIZE_MM} mm, k={operator.order}, "
            f"{fields.shape[0]} rows, {span}x{n_substeps} substeps] loop "
            f"{loop_s * 1e6:.0f} us, closed form {closed_s * 1e6:.0f} us, "
            f"speedup {speedup:.1f}x"
        )
    assert speedup >= 4.0


@pytest.mark.skipif(
    not os.environ.get("RUN_LONGTRACE"),
    reason="headline-scale demonstration; set RUN_LONGTRACE=1 to run",
)
def test_bench_longtrace_100k_periods(capsys):
    """Headline: a >= 100k-period simulated-season diurnal trace at >= 5x.

    The fine baseline is measured on a 1200-period slice of the same
    scenario and extrapolated linearly — the fine engine's per-period cost
    is constant (one stacked multi-RHS solve per substep, no
    span-dependent state), so the extrapolation is exact up to noise and
    avoids an hour-long control run.
    """
    floorplan, power_model, scenario = _setup(
        HEADLINE_DURATION_S, HEADLINE_PHASE_DT_S, HEADLINE_ENVELOPE_PERIOD_S
    )
    n_periods = int(HEADLINE_DURATION_S / CONTROL_PERIOD_S)
    assert n_periods >= 100_000

    slice_s = 2400.0
    start = time.perf_counter()
    fine_slice = _run(floorplan, power_model, scenario, slice_s, None)
    fine_slice_wall = time.perf_counter() - start
    fine_estimate = fine_slice_wall * (HEADLINE_DURATION_S / slice_s)

    start = time.perf_counter()
    coarse = _run(
        floorplan, power_model, scenario, HEADLINE_DURATION_S, CoarseningConfig()
    )
    coarse_wall = time.perf_counter() - start

    assert coarse.n_periods == n_periods
    assert coarse.thermal_violations == fine_slice.thermal_violations == 0
    assert coarse.coarse_periods > n_periods // 2

    speedup = fine_estimate / coarse_wall
    with capsys.disabled():
        print(
            f"\n[longtrace headline] {n_periods} periods: coarse "
            f"{coarse_wall:.1f} s, fine estimated {fine_estimate:.0f} s "
            f"(measured {fine_slice_wall:.1f} s over {fine_slice.n_periods} "
            f"periods), speedup {speedup:.1f}x; spans {coarse.coarse_spans}, "
            f"rom stats {coarse.rom_stats}"
        )
    assert speedup >= 5.0
