"""Golden-model reduced span march (pre-closed-form reference).

This preserves the original substep loop of the reduced-order lane
verbatim: the span is marched one backward-Euler substep at a time through
the affine step map ``c+ = S c + a`` with ``S = K_r^{-1} C_r`` and
``a = K_r^{-1} rhs_r``, reading the case cell after every substep and
sampling the a-posteriori bound at substeps ``0``, ``N // 2`` and
``N - 1``.  ``S`` and ``a`` are rebuilt here from the operator's basis
``V`` and its ``K V`` / ``(C/dt) V`` factors through a dense LU, so the
reference never reads the modal arrays the production path evaluates.
:meth:`ReducedOperator.march_span` must agree with it to <= 1e-12 and
make identical fallback decisions.
"""

from __future__ import annotations

import numpy as np
from scipy import linalg as dense_linalg

from repro.thermal.rom import ReducedOperator, RomConfig, RomSpan


def _reduced_pair(op: ReducedOperator) -> tuple[tuple, np.ndarray]:
    """LU of ``K_r = V^T (K V + (C/dt) V)`` and ``C_r = V^T (C/dt) V``."""
    reduced_system = op.basis.T @ (op.conductance_basis + op.capacitance_basis)
    reduced_capacitance = op.basis.T @ op.capacitance_basis
    return dense_linalg.lu_factor(reduced_system), reduced_capacitance


def reference_step(
    op: ReducedOperator, coords: np.ndarray, reduced_rhs: np.ndarray
) -> np.ndarray:
    """One backward-Euler step in reduced space: ``K_r c+ = rhs_r + C_r c``."""
    reduced_lu, reduced_capacitance = _reduced_pair(op)
    return dense_linalg.lu_solve(reduced_lu, reduced_rhs + reduced_capacitance @ coords)


def reference_rom_march(
    op: ReducedOperator,
    coords: np.ndarray,
    entry_error: np.ndarray,
    power_vecs: np.ndarray,
    span: int,
    n_substeps: int,
    t_case_max_c: float | None,
    config: RomConfig,
) -> RomSpan:
    """March ``span`` periods of ``n_substeps`` reduced substeps, one by one."""
    m = coords.shape[1]
    reduced_lu, reduced_capacitance = _reduced_pair(op)

    full_rhs = op.boundary_rhs[np.newaxis, :] + power_vecs
    reduced_rhs = op.reduce_rhs(power_vecs)
    affine = dense_linalg.lu_solve(reduced_lu, reduced_rhs)
    step_matrix = dense_linalg.lu_solve(reduced_lu, reduced_capacitance)
    case_readout = op.basis[op.case_cell_index]
    total_substeps = span * n_substeps
    sampled_bound = np.zeros(m, dtype=float)
    case_hist = np.empty((span, m), dtype=float)
    peak_hist = np.empty((span, m), dtype=float)
    previous_end = coords
    step_index = 0
    for j in range(span):
        if j == span - 1:
            previous_end = coords.copy()
        peak = np.full(m, float("-inf"))
        for _ in range(n_substeps):
            new_coords = step_matrix @ coords + affine
            if step_index in (0, total_substeps // 2, total_substeps - 1):
                np.maximum(
                    sampled_bound,
                    op.step_error_bound(new_coords, coords, full_rhs),
                    out=sampled_bound,
                )
            coords = new_coords
            step_index += 1
            case = case_readout @ coords
            np.maximum(peak, case, out=peak)
        case_hist[j] = case
        peak_hist[j] = peak
    error = entry_error + sampled_bound * total_substeps
    guard_fail = np.zeros(m, dtype=bool)
    if t_case_max_c is not None:
        guard_fail = (
            np.max(peak_hist, axis=0) + error >= t_case_max_c - config.guard_band_c
        )

    return RomSpan(
        end_fields=op.lift(coords),
        case_hist=case_hist,
        peak_hist=peak_hist,
        residuals=np.max(np.abs(op.lift(coords - previous_end)), axis=1),
        error=error,
        projection_fail=~(entry_error <= config.projection_tol_c),
        error_fail=error > config.step_error_tol_c,
        guard_fail=guard_fail,
    )
