"""Rack-scale simulation: every server batched through one operator.

Section V evaluates whole racks — many thermosyphon-cooled servers behind
one chiller — and rack hardware is homogeneous: every server carries the
same CPU, the same thermosyphon design and therefore the *same thermal
network*.  :class:`RackSession` exploits that: instead of solving
``n_servers`` independent :class:`~repro.core.session.SimulationSession`
pipelines (each paying its own operator factorization, lane march and
loop-convergence iteration), it batches every layer of a rack's
evaluation:

1. **Loop layer** — servers are grouped by ``(water loop, total power)``;
   each group converges the thermosyphon operating point once.
2. **Thermosyphon layer** — servers sharing an operating point march their
   evaporator lanes as one stacked ``(n_servers * n_lanes, n_cells)`` array
   through :meth:`ThermosyphonLoop.cooling_boundaries`.
3. **Solver layer** — servers are grouped by cooling-boundary content
   (:meth:`CoolingBoundary.cache_token`); each group is solved through one
   cached factorization with a single multi-column back-substitution
   (:meth:`ThermalSimulator.steady_state_many_from_maps` /
   :meth:`~ThermalSimulator.transient_step_many_from_maps`).

On a homogeneous rack the whole rack costs *one* factorization where
independent sessions pay ``n_servers``; the batched steady lane
(:meth:`RackSession.solve_steady`) matches independent per-server sessions
to <= 1e-12.

On the transient lane a rack session holds one cooling-boundary state per
server (operating point + per-cell HTC/fluid maps), refreshed under the
drift policy of :func:`power_drift_exceeds` and :func:`adaptive_refresh_tol`,
plus each server's last settle residual.  The temperature fields themselves
belong to :class:`~repro.datacenter.floor.FloorEngine`, which advances every
rack of a floor — a single rack is a one-rack floor, a single server a
one-server rack — and hands each rack its row block through
:meth:`RackSession.finish_advance`.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Sequence

import numpy as np

from repro.core.mapping import ThreadMapper, WorkloadMapping
from repro.core.session import EvaluationResult, build_evaluation_result
from repro.exceptions import ConfigurationError, ValidationError
from repro.floorplan.floorplan import Floorplan
from repro.floorplan.xeon_e5_v4 import build_xeon_e5_v4_floorplan
from repro.power.power_model import PowerBreakdown, ServerPowerModel
from repro.thermal.simulator import ThermalSimulator, case_cell_row_column
from repro.thermal.solver_cache import CacheStats
from repro.thermosyphon.design import PAPER_OPTIMIZED_DESIGN, ThermosyphonDesign
from repro.thermosyphon.loop import BoundaryResult, LoopOperatingPoint, ThermosyphonLoop
from repro.thermosyphon.water_loop import WaterLoop
from repro.utils.validation import check_non_negative, check_positive
from repro.workloads.benchmark import BenchmarkCharacteristics


def adaptive_refresh_tol(
    tol: float, adaptive: bool, residual_c: float | None, reference_c: float
) -> float:
    """The boundary-refresh tolerance effective at a given settle residual.

    The single source of the adaptive policy: in the static mode (or with
    no residual yet, or a settled field) the tolerance is ``tol``; above
    ``reference_c`` it tightens proportionally (``tol * reference /
    residual``), so mid-transient periods refresh sooner.
    """
    if not adaptive or residual_c is None or residual_c <= reference_c:
        return tol
    return tol * reference_c / residual_c


def power_drift_exceeds(total_power_w: float, reference_w: float, tol: float) -> bool:
    """True when the power drifted beyond the tolerance of its reference.

    The drift test every server holds its cooling boundary against
    (relative to the power the boundary was built at, with a floor guarding
    the zero-power case).
    """
    return abs(total_power_w - reference_w) > tol * max(abs(reference_w), 1e-9)


@dataclass(frozen=True)
class ServerLoad:
    """The resolved work one server carries during a rack step.

    ``water_loop`` is the server's condenser water condition (``None`` uses
    the design default — the shared-chiller case where every server sees the
    same inlet temperature and flow).
    """

    benchmark: BenchmarkCharacteristics
    mapping: WorkloadMapping
    activity_factor: float = 1.0
    water_loop: WaterLoop | None = None


@dataclass(frozen=True)
class _HeldBoundary:
    """One server's held cooling-boundary state on the transient lane."""

    operating_point: LoopOperatingPoint
    boundary_result: BoundaryResult
    water_loop: WaterLoop
    total_power_w: float


@dataclass(frozen=True)
class RackSessionSnapshot:
    """Frozen copy of a :class:`RackSession`'s mutable state.

    The held cooling boundaries and the last settle residuals; the boundary
    entries are themselves frozen dataclasses, so no copy is needed.  The
    temperature fields are snapshotted by the floor engine that owns them.
    """

    boundaries: tuple[_HeldBoundary | None, ...]
    last_residuals: tuple[float | None, ...]


@dataclass(frozen=True)
class ServerAdvance:
    """Per-server outcome of one transient control period."""

    result: EvaluationResult
    settle_residual_c: float
    period_peak_case_c: float
    boundary_refreshed: bool


@dataclass(frozen=True)
class RackAdvance:
    """Outcome of one rack-wide transient control period."""

    servers: tuple[ServerAdvance, ...]
    dt_s: float
    n_substeps: int

    @property
    def boundary_refreshes(self) -> int:
        """How many servers rebuilt their cooling boundary this period."""
        return sum(1 for server in self.servers if server.boundary_refreshed)

    @property
    def worst_case_temperature_c(self) -> float:
        """Highest period-end case temperature across the rack."""
        return max(server.result.case_temperature_c for server in self.servers)

    @property
    def worst_period_peak_case_c(self) -> float:
        """Highest within-period case temperature across the rack."""
        return max(server.period_peak_case_c for server in self.servers)


class RackSession:
    """Many identical servers simulated through one shared thermal operator.

    Parameters
    ----------
    n_servers:
        Number of servers in the rack.  Every :meth:`solve_steady` call and
        every floor advance must provide exactly this many loads.
    floorplan, design, power_model, thermal_simulator, cell_size_mm:
        The shared hardware substrate, as for
        :class:`~repro.core.session.SimulationSession`.  One thermal
        simulator (network + factorization cache) serves the whole rack.
    boundary_refresh_tol:
        Relative total-power drift that triggers a server's cooling-boundary
        rebuild on the transient lane.  The boundary (per-cell HTC and fluid
        temperature) varies weakly with power, so small workload jitter does
        not warrant a new operator factorization; actuator changes always
        refresh regardless of this tolerance.
    adaptive_boundary_refresh, adaptive_residual_reference_c:
        Settle-residual-driven adaptive mode: while a server's previous
        period left its field changing by more than
        ``adaptive_residual_reference_c`` per substep, its effective
        tolerance shrinks proportionally, relaxing back to
        ``boundary_refresh_tol`` once the field has settled.
    """

    def __init__(
        self,
        n_servers: int,
        *,
        floorplan: Floorplan | None = None,
        design: ThermosyphonDesign = PAPER_OPTIMIZED_DESIGN,
        power_model: ServerPowerModel | None = None,
        thermal_simulator: ThermalSimulator | None = None,
        cell_size_mm: float = 1.0,
        boundary_refresh_tol: float = 0.15,
        adaptive_boundary_refresh: bool = False,
        adaptive_residual_reference_c: float = 0.5,
    ) -> None:
        if n_servers < 1:
            raise ConfigurationError(f"n_servers must be >= 1, got {n_servers}")
        self.n_servers = int(n_servers)
        self.floorplan = floorplan if floorplan is not None else build_xeon_e5_v4_floorplan()
        self.design = design
        self.power_model = (
            power_model if power_model is not None else ServerPowerModel(self.floorplan)
        )
        self.thermal_simulator = (
            thermal_simulator
            if thermal_simulator is not None
            else ThermalSimulator(self.floorplan, cell_size_mm=cell_size_mm)
        )
        self.loop = ThermosyphonLoop(design)
        self.boundary_refresh_tol = check_non_negative(
            boundary_refresh_tol, "boundary_refresh_tol"
        )
        self.adaptive_boundary_refresh = bool(adaptive_boundary_refresh)
        self.adaptive_residual_reference_c = check_positive(
            adaptive_residual_reference_c, "adaptive_residual_reference_c"
        )
        self._mapper = ThreadMapper(self.floorplan, orientation=design.orientation)
        self._boundaries: list[_HeldBoundary | None] = [None] * self.n_servers
        self._last_residuals: list[float | None] = [None] * self.n_servers
        # Case temperature is one cell of the heat-spreader plane; resolve
        # its flat index once so the substep peak scan is a single gather.
        self._case_cell_index = self._resolve_case_cell_index()

    # ------------------------------------------------------------------ #
    # Introspection and state management
    # ------------------------------------------------------------------ #
    def reset(self) -> None:
        """Forget every server's boundary state and settle residual."""
        self._boundaries = [None] * self.n_servers
        self._last_residuals = [None] * self.n_servers

    def snapshot(self) -> RackSessionSnapshot:
        """Copy the session's mutable state for a later :meth:`restore`.

        The hardware substrate (simulator, factorization cache, mapper) is
        shared, not copied — a restored session replays through the same
        cached factorizations, so a speculative rollout pays only
        back-substitutions.
        """
        return RackSessionSnapshot(
            boundaries=tuple(self._boundaries),
            last_residuals=tuple(self._last_residuals),
        )

    def restore(self, snapshot: RackSessionSnapshot) -> None:
        """Rewind the session to a :meth:`snapshot`'s state."""
        if len(snapshot.boundaries) != self.n_servers:
            raise ValidationError(
                f"snapshot holds {len(snapshot.boundaries)} servers, "
                f"session has {self.n_servers}"
            )
        self._boundaries = list(snapshot.boundaries)
        self._last_residuals = list(snapshot.last_residuals)

    def cache_stats(self) -> CacheStats:
        """Factorization-cache counters of the shared thermal simulator.

        :class:`CacheStats` is additive, so rack studies spanning several
        sessions (for example the per-server golden loop next to this
        engine) can merge their counters with ``sum(..., CacheStats.zero())``.
        """
        cache = self.thermal_simulator.solver_cache
        if cache is None:
            return CacheStats.zero()
        return cache.stats

    def _resolve_case_cell_index(self) -> int:
        simulator = self.thermal_simulator
        grid = simulator.grid
        row, column = case_cell_row_column(
            self.floorplan, simulator.grid_mapper.outline, grid.n_rows, grid.n_columns
        )
        spreader = simulator.stack.index_of("heat_spreader")
        return spreader * grid.cells_per_layer + row * grid.n_columns + column

    # ------------------------------------------------------------------ #
    # Shared batched stages
    # ------------------------------------------------------------------ #
    def _check_loads(self, loads: Sequence[ServerLoad]) -> list[ServerLoad]:
        loads = list(loads)
        if len(loads) != self.n_servers:
            raise ValidationError(
                f"expected {self.n_servers} server loads, got {len(loads)}"
            )
        return loads

    def _evaluate_power(
        self, loads: Sequence[ServerLoad], *, memo: dict | None = None
    ) -> tuple[list[PowerBreakdown], np.ndarray, list[WaterLoop]]:
        """Per-server power models; returns breakdowns, stacked maps, loops.

        ``memo`` optionally caches ``(breakdown, power_map)`` pairs keyed by
        the load's (benchmark, mapping, activity) identity — the power model
        is a deterministic pure function of those, so servers carrying the
        same workload at the same activity share one evaluation.  The floor
        engine passes one memo per hardware group (mapper and power model
        are fixed per group, so the key never crosses models).
        """
        breakdowns: list[PowerBreakdown] = []
        maps: list[np.ndarray] = []
        water_loops: list[WaterLoop] = []
        for load in loads:
            key = (
                (id(load.benchmark), id(load.mapping), load.activity_factor)
                if memo is not None
                else None
            )
            cached = memo.get(key) if memo is not None else None
            if cached is None:
                activities = self._mapper.activities(
                    load.benchmark, load.mapping, activity_factor=load.activity_factor
                )
                breakdown = self.power_model.evaluate(
                    activities,
                    load.mapping.configuration.frequency_ghz,
                    memory_intensity=load.benchmark.memory_intensity,
                )
                power_map = self.thermal_simulator.power_map(
                    breakdown.component_power_w
                )
                if memo is not None:
                    memo[key] = (breakdown, power_map)
            else:
                breakdown, power_map = cached
            breakdowns.append(breakdown)
            maps.append(power_map)
            water_loops.append(
                load.water_loop if load.water_loop is not None else self.design.water_loop()
            )
        return breakdowns, np.stack(maps), water_loops

    def _operating_points(
        self,
        power_maps: np.ndarray,
        water_loops: Sequence[WaterLoop],
        server_indices: Sequence[int],
    ) -> dict[int, LoopOperatingPoint]:
        """Converge the loop once per distinct (water loop, total power).

        Identical hardware at the same heat load and water condition reaches
        the same operating point, so a homogeneous rack converges the
        condenser/circulation iteration once instead of ``n_servers`` times.
        """
        points: dict[int, LoopOperatingPoint] = {}
        groups: dict[tuple, LoopOperatingPoint] = {}
        for index in server_indices:
            total_power = float(power_maps[index].sum())
            key = (water_loops[index], total_power)
            point = groups.get(key)
            if point is None:
                point = self.loop.operating_point(total_power, water_loops[index])
                groups[key] = point
            points[index] = point
        return points

    def _cooling_boundaries(
        self,
        power_maps: np.ndarray,
        operating_points: dict[int, LoopOperatingPoint],
    ) -> dict[int, BoundaryResult]:
        """Batched lane march, grouped by shared operating point."""
        pitch = self.thermal_simulator.grid.cell_pitch_mm()
        by_point: dict[int, list[int]] = {}
        for index in operating_points:
            by_point.setdefault(id(operating_points[index]), []).append(index)
        boundaries: dict[int, BoundaryResult] = {}
        for indices in by_point.values():
            point = operating_points[indices[0]]
            results = self.loop.cooling_boundaries(
                power_maps[indices], pitch, point
            )
            for index, result in zip(indices, results):
                boundaries[index] = result
        return boundaries

    def _group_by_boundary(
        self, boundaries: Sequence[BoundaryResult]
    ) -> list[list[int]]:
        """Server indices grouped by cooling-boundary content."""
        groups: dict[tuple, list[int]] = {}
        for index, boundary in enumerate(boundaries):
            groups.setdefault(boundary.boundary.cache_token(), []).append(index)
        return list(groups.values())

    def _steady_fields(
        self, power_maps: np.ndarray, boundaries: Sequence[BoundaryResult]
    ) -> np.ndarray:
        """Equilibrium fields for every server, one solve per boundary group."""
        fields = np.empty(
            (len(boundaries), self.thermal_simulator.grid.n_cells), dtype=float
        )
        for indices in self._group_by_boundary(boundaries):
            fields[indices] = self.thermal_simulator.steady_state_many_from_maps(
                power_maps[indices], boundaries[indices[0]].boundary
            )
        return fields

    def _build_results(
        self,
        loads: Sequence[ServerLoad],
        breakdowns: Sequence[PowerBreakdown],
        fields: np.ndarray,
        operating_points: Sequence[LoopOperatingPoint],
        boundaries: Sequence[BoundaryResult],
        water_loops: Sequence[WaterLoop],
    ) -> list[EvaluationResult]:
        results = []
        for index, load in enumerate(loads):
            results.append(
                build_evaluation_result(
                    benchmark_name=load.benchmark.name,
                    configuration=load.mapping.configuration,
                    mapping=load.mapping,
                    breakdown=breakdowns[index],
                    thermal_result=self.thermal_simulator.result_from_vector(
                        fields[index]
                    ),
                    operating_point=operating_points[index],
                    boundary_result=boundaries[index],
                    water_loop=water_loops[index],
                )
            )
        return results

    # ------------------------------------------------------------------ #
    # Quasi-static lane
    # ------------------------------------------------------------------ #
    def solve_steady(self, loads: Sequence[ServerLoad]) -> list[EvaluationResult]:
        """Equilibrium evaluation of every server, batched per boundary.

        Results are identical to running each load through a fresh
        :meth:`SimulationSession.solve_steady_mapping`, but servers sharing a
        cooling boundary (a homogeneous rack) cost one factorization and one
        multi-column back-substitution for the whole group.
        """
        loads = self._check_loads(loads)
        breakdowns, power_maps, water_loops = self._evaluate_power(loads)
        operating_points = self._operating_points(
            power_maps, water_loops, range(len(loads))
        )
        boundary_map = self._cooling_boundaries(power_maps, operating_points)
        points = [operating_points[index] for index in range(len(loads))]
        boundaries = [boundary_map[index] for index in range(len(loads))]
        fields = self._steady_fields(power_maps, boundaries)
        return self._build_results(
            loads, breakdowns, fields, points, boundaries, water_loops
        )

    # ------------------------------------------------------------------ #
    # Transient lane
    # ------------------------------------------------------------------ #
    def _effective_refresh_tol(self, server: int) -> float:
        return adaptive_refresh_tol(
            self.boundary_refresh_tol,
            self.adaptive_boundary_refresh,
            self._last_residuals[server],
            self.adaptive_residual_reference_c,
        )

    def _needs_refresh(
        self, server: int, total_power: float, water_loop: WaterLoop, force: bool
    ) -> bool:
        state = self._boundaries[server]
        if force or state is None or state.water_loop != water_loop:
            return True
        return power_drift_exceeds(
            total_power, state.total_power_w, self._effective_refresh_tol(server)
        )

    def normalize_force_flags(
        self, force_boundary_refresh: bool | Sequence[bool]
    ) -> list[bool]:
        """One refresh flag per server from a scalar or per-server sequence."""
        if isinstance(force_boundary_refresh, bool):
            return [force_boundary_refresh] * self.n_servers
        force = [bool(flag) for flag in force_boundary_refresh]
        if len(force) != self.n_servers:
            raise ValidationError(
                f"expected {self.n_servers} refresh flags, got {len(force)}"
            )
        return force

    def plan_refresh(
        self,
        power_maps: np.ndarray,
        water_loops: Sequence[WaterLoop],
        force: Sequence[bool],
    ) -> list[bool]:
        """Which servers must rebuild their cooling boundary this period.

        Pure planning — nothing is rebuilt yet.  The floor engine collects
        every flagged server on the floor and batches the loop convergence
        and lane marches across racks before handing each boundary back
        through :meth:`store_boundary`.
        """
        return [
            self._needs_refresh(
                index, float(power_maps[index].sum()), water_loops[index], force[index]
            )
            for index in range(self.n_servers)
        ]

    def store_boundary(
        self,
        index: int,
        operating_point: LoopOperatingPoint,
        boundary_result: BoundaryResult,
        water_loop: WaterLoop,
        total_power_w: float,
    ) -> None:
        """Hold one server's freshly converged cooling-boundary state."""
        self._boundaries[index] = _HeldBoundary(
            operating_point=operating_point,
            boundary_result=boundary_result,
            water_loop=water_loop,
            total_power_w=total_power_w,
        )

    def held_boundaries(self) -> list[_HeldBoundary]:
        """Every server's held boundary state (raises before the first hold)."""
        held = [state for state in self._boundaries if state is not None]
        if len(held) != self.n_servers:
            raise ValidationError(
                "not every server holds a cooling boundary yet; refresh first"
            )
        return held

    @property
    def case_cell_index(self) -> int:
        """Flat cell index of the ``T_CASE`` measurement point."""
        return self._case_cell_index

    def finish_advance(
        self,
        loads: Sequence[ServerLoad],
        breakdowns: Sequence[PowerBreakdown],
        water_loops: Sequence[WaterLoop],
        fields: np.ndarray,
        residuals: np.ndarray,
        peak_case: np.ndarray,
        refreshed: Sequence[bool],
        dt_s: float,
        n_substeps: int,
    ) -> RackAdvance:
        """Record settle residuals and build the per-server results.

        ``fields`` is the rack's row block of the floor engine's stacked
        group array after the period; the session reads it without keeping
        it — the floor owns the temperature state.
        """
        held = self.held_boundaries()
        results = self._build_results(
            loads,
            breakdowns,
            fields,
            [state.operating_point for state in held],
            [state.boundary_result for state in held],
            water_loops,
        )
        self._last_residuals = [float(residual) for residual in residuals]
        servers = tuple(
            ServerAdvance(
                result=result,
                settle_residual_c=self._last_residuals[index],
                period_peak_case_c=float(peak_case[index]),
                boundary_refreshed=bool(refreshed[index]),
            )
            for index, result in enumerate(results)
        )
        return RackAdvance(servers=servers, dt_s=dt_s, n_substeps=n_substeps)
