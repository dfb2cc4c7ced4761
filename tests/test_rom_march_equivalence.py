"""Golden-model equivalence: closed-form reduced span vs the substep loop.

:meth:`ReducedOperator.march_span` evaluates a whole coarse span from the
operator's modal decomposition; the original per-substep loop, kept in
``tests/reference_rom_march.py``, is the golden model.  Every case requires
the per-period case temperatures and peaks, the end fields, the residuals
and the per-substep charge of the accumulated error bound to match the loop
to <= 1e-12 absolute, and every fallback decision (projection, error bound,
guard band) to be identical — across span lengths, substep counts and
solve-group sizes.
"""

from __future__ import annotations

import numpy as np
import pytest

from reference_rom_march import reference_rom_march
from repro.floorplan.grid_mapper import GridMapper
from repro.thermal.boundary import BottomBoundary, uniform_cooling_boundary
from repro.thermal.grid import ThermalGrid
from repro.thermal.layers import standard_thermosyphon_stack
from repro.thermal.network import ThermalNetwork
from repro.thermal.rom import RomConfig, build_reduced_operator
from repro.thermal.solver_cache import FactorizationCache

DT_S = 0.5
CASE_CELL = 0
N_ROWS = 8
ATOL = 1e-12
CONFIG = RomConfig()


@pytest.fixture(scope="module")
def operator_setup(floorplan):
    """A real operator seeded by eight near-steady servers of distinct load."""
    stack = standard_thermosyphon_stack()
    outline = floorplan.spreader_outline
    grid = ThermalGrid(outline, stack, 13, 13)
    mapper = GridMapper(floorplan, outline, 13, 13)
    network = ThermalNetwork(grid, mapper.die_mask(), BottomBoundary())
    cache = FactorizationCache(network)
    boundary = uniform_cooling_boundary(grid.n_rows, grid.n_columns, 1.5e4, 40.0)
    power_maps = np.stack(
        [
            mapper.power_map({f"core{i}": 3.0 + row + 0.5 * i for i in range(row + 1)})
            for row in range(N_ROWS)
        ]
    )
    power_vectors = network.power_vectors(power_maps)
    steady = cache.steady_operator(boundary)
    targets = np.asarray(
        steady.solve((steady.boundary_rhs[np.newaxis, :] + power_vectors).T)
    ).T
    # Entry fields part of the way to steady state, each row differently, so
    # the span still carries a decaying transient.
    fields = 40.0 + np.linspace(0.6, 0.95, N_ROWS)[:, np.newaxis] * (targets - 40.0)
    op = build_reduced_operator(
        network, cache, boundary, DT_S, fields, power_vectors, CASE_CELL, CONFIG
    )
    return op, fields, power_vectors


def _compare(op, fields, power_vectors, span, n_substeps, t_case_max_c=None):
    coords, entry_error = op.project(fields)
    args = (coords, entry_error, power_vectors, span, n_substeps, t_case_max_c, CONFIG)
    closed = op.march_span(*args)
    loop = reference_rom_march(op, *args)
    for name in ("case_hist", "peak_hist", "end_fields", "residuals"):
        np.testing.assert_allclose(
            getattr(closed, name), getattr(loop, name), rtol=0.0, atol=ATOL,
            err_msg=name,
        )
    # The accumulated bound charges the sampled per-substep bound to every
    # one of the span's substeps; the contract holds per charged substep.
    n_steps = span * n_substeps
    np.testing.assert_allclose(
        (closed.error - entry_error) / n_steps,
        (loop.error - entry_error) / n_steps,
        rtol=0.0, atol=ATOL, err_msg="error",
    )
    for name in ("projection_fail", "error_fail", "guard_fail", "ok"):
        assert np.array_equal(getattr(closed, name), getattr(loop, name)), name
    assert closed.case_hist.shape == (span, fields.shape[0])
    return closed


@pytest.mark.parametrize("rows", [1, N_ROWS])
@pytest.mark.parametrize("n_substeps", [1, 4])
@pytest.mark.parametrize("span", [4, 16, 64])
def test_closed_form_matches_loop(operator_setup, span, n_substeps, rows):
    op, fields, power_vectors = operator_setup
    _compare(op, fields[:rows], power_vectors[:rows], span, n_substeps)


def test_projection_fallback_matches_loop(operator_setup):
    op, fields, power_vectors = operator_setup
    rng = np.random.default_rng(7)
    drifted = fields.copy()
    drifted[::2] += rng.uniform(-0.5, 0.5, size=drifted[::2].shape)
    result = _compare(op, drifted, power_vectors, 16, 4)
    assert np.array_equal(result.projection_fail, np.arange(N_ROWS) % 2 == 0)


def test_guard_band_matches_loop(operator_setup):
    op, fields, power_vectors = operator_setup
    coords, entry_error = op.project(fields)
    unguarded = op.march_span(
        coords, entry_error, power_vectors, 16, 4, None, CONFIG
    )
    # A limit that puts the guard band between the coolest and hottest rows.
    row_peaks = unguarded.peak_hist.max(axis=0) + unguarded.error
    t_case_max_c = float(np.median(row_peaks)) + CONFIG.guard_band_c
    result = _compare(op, fields, power_vectors, 16, 4, t_case_max_c)
    assert result.guard_fail.any() and not result.guard_fail.all()
