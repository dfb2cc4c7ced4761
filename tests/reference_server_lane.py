"""Golden-model reference: the single-server warm-start transient lane.

Before single-server controller traces ran on a one-server
:class:`~repro.datacenter.floor.FloorEngine`, :class:`SimulationSession`
carried a second transient engine of its own: ``advance`` held one cooling
boundary (refreshed on an actuator event, a water-loop change or a power
drift beyond ``boundary_refresh_tol``, optionally tightened by the settle
residual), initialized its field from a steady solve and marched it with
backward-Euler substeps; ``advance_activities``/``advance_mapping`` wrapped
that step in the power model and the :class:`EvaluationResult` build, and
``ThermosyphonController.run_trace(mode="transient")`` drove it period by
period.

This module preserves that lane verbatim as the golden model, in the
pattern of ``reference_rack_lane.py``: :class:`ReferenceServerLane` is the
old session's transient lane on top of today's steady lane, and
:func:`reference_run_trace` is the old transient ``run_trace`` loop.  The
production one-server floor must reproduce it bit for bit
(``tests/test_runtime_controller.py``, ``tests/test_rack_session.py``).

Do not "improve" this file — its value is that it advances one server with
its own boundary state, field and refresh policy, exactly the way the
single-server lane was first written.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.mapping import ThreadMapper, WorkloadMapping
from repro.core.rack_session import adaptive_refresh_tol, power_drift_exceeds
from repro.core.runtime_controller import (
    ACTUATOR_ACTIONS,
    ControllerDecision,
    ControllerTrace,
    ThermosyphonController,
    mapping_at_frequency,
)
from repro.core.session import (
    EvaluationResult,
    SimulationSession,
    build_evaluation_result,
)
from repro.floorplan.floorplan import Floorplan
from repro.power.power_model import CoreActivity, ServerPowerModel
from repro.thermal.simulator import ThermalResult, ThermalSimulator
from repro.thermosyphon.design import PAPER_OPTIMIZED_DESIGN, ThermosyphonDesign
from repro.thermosyphon.loop import BoundaryResult, LoopOperatingPoint
from repro.thermosyphon.water_loop import WaterLoop
from repro.utils.validation import check_non_negative, check_positive
from repro.workloads.benchmark import BenchmarkCharacteristics
from repro.workloads.configuration import Configuration
from repro.workloads.qos import QoSConstraint
from repro.workloads.trace import PhasedTrace


@dataclass(frozen=True)
class _BoundaryState:
    """The cooling boundary currently driving the transient lane."""

    operating_point: LoopOperatingPoint
    boundary_result: BoundaryResult
    water_loop: WaterLoop
    total_power_w: float


@dataclass(frozen=True)
class SessionAdvance:
    """Outcome of one low-level :meth:`SimulationSession.advance` call."""

    thermal_result: ThermalResult
    operating_point: LoopOperatingPoint
    boundary_result: BoundaryResult
    dt_s: float
    n_substeps: int
    #: Largest per-cell temperature change over the final substep; a small
    #: value means the field has settled at the current power.
    settle_residual_c: float
    #: Highest case temperature observed across the substeps of this call.
    period_peak_case_c: float
    #: True when this call rebuilt the cooling boundary (actuator event,
    #: first step, or power drift beyond the refresh tolerance).
    boundary_refreshed: bool


@dataclass(frozen=True)
class TransientStepResult:
    """One transient control period: full evaluation plus step diagnostics."""

    result: EvaluationResult
    dt_s: float
    n_substeps: int
    settle_residual_c: float
    period_peak_case_c: float
    boundary_refreshed: bool


class ReferenceServerLane(SimulationSession):
    """One server with the old warm-start transient lane on its session.

    Parameters
    ----------
    floorplan, design, power_model, thermal_simulator, cell_size_mm:
        As for :class:`SimulationSession`.
    boundary_refresh_tol:
        Relative total-power drift that triggers a cooling-boundary rebuild
        on the transient lane.  The boundary (per-cell HTC and fluid
        temperature) varies weakly with power, so small workload jitter does
        not warrant a new operator factorization; actuator changes always
        refresh regardless of this tolerance.
    adaptive_boundary_refresh:
        Settle-residual-driven adaptive mode: while the previous advance
        left the field changing by more than
        ``adaptive_residual_reference_c`` per step, the effective tolerance
        shrinks proportionally (a field mid-transient sees its boundary
        refreshed sooner), and it relaxes back to ``boundary_refresh_tol``
        once the field has settled.
    adaptive_residual_reference_c:
        Settle residual (degC per substep) at which the adaptive mode
        starts tightening the tolerance.
    """

    def __init__(
        self,
        floorplan: Floorplan | None = None,
        *,
        design: ThermosyphonDesign = PAPER_OPTIMIZED_DESIGN,
        power_model: ServerPowerModel | None = None,
        thermal_simulator: ThermalSimulator | None = None,
        cell_size_mm: float = 1.0,
        boundary_refresh_tol: float = 0.15,
        adaptive_boundary_refresh: bool = False,
        adaptive_residual_reference_c: float = 0.5,
    ) -> None:
        super().__init__(
            floorplan,
            design=design,
            power_model=power_model,
            thermal_simulator=thermal_simulator,
            cell_size_mm=cell_size_mm,
        )
        self.boundary_refresh_tol = check_non_negative(
            boundary_refresh_tol, "boundary_refresh_tol"
        )
        self.adaptive_boundary_refresh = bool(adaptive_boundary_refresh)
        self.adaptive_residual_reference_c = check_positive(
            adaptive_residual_reference_c, "adaptive_residual_reference_c"
        )
        self._temperatures: np.ndarray | None = None
        self._boundary_state: _BoundaryState | None = None
        self._last_settle_residual_c: float | None = None

    def _build_result(
        self,
        *,
        benchmark_name: str,
        configuration: Configuration,
        mapping: WorkloadMapping | None,
        breakdown: PowerBreakdown,
        thermal_result: ThermalResult,
        operating_point: LoopOperatingPoint,
        boundary_result: BoundaryResult,
        water_loop: WaterLoop,
    ) -> EvaluationResult:
        return build_evaluation_result(
            benchmark_name=benchmark_name,
            configuration=configuration,
            mapping=mapping,
            breakdown=breakdown,
            thermal_result=thermal_result,
            operating_point=operating_point,
            boundary_result=boundary_result,
            water_loop=water_loop,
        )

    # ------------------------------------------------------------------ #
    # Transient lane
    # ------------------------------------------------------------------ #
    @property
    def temperatures(self) -> np.ndarray | None:
        """Current flat temperature field, or None before the first advance."""
        if self._temperatures is None:
            return None
        return self._temperatures.copy()

    @property
    def boundary_state_age_power_w(self) -> float | None:
        """Total power the current boundary was built at (None if unset)."""
        state = self._boundary_state
        return state.total_power_w if state is not None else None

    def reset(self) -> None:
        """Forget the temperature field and boundary state.

        The next :meth:`advance` re-initializes from a fresh steady solve,
        exactly like the first call of a new trace.
        """
        self._temperatures = None
        self._boundary_state = None
        self._last_settle_residual_c = None

    def effective_boundary_refresh_tol(self) -> float:
        """The refresh tolerance the next :meth:`advance` will apply.

        Equal to :attr:`boundary_refresh_tol` in the static mode.  In the
        adaptive mode the tolerance scales with how settled the field was
        after the previous advance: a residual above
        ``adaptive_residual_reference_c`` tightens it proportionally
        (``tol * reference / residual``), so mid-transient periods refresh
        the boundary sooner while settled stretches keep the static policy.
        """
        return adaptive_refresh_tol(
            self.boundary_refresh_tol,
            self.adaptive_boundary_refresh,
            self._last_settle_residual_c,
            self.adaptive_residual_reference_c,
        )

    def _ensure_boundary(
        self, power_map_w: np.ndarray, water_loop: WaterLoop, *, force: bool
    ) -> bool:
        """Rebuild the cooling boundary when needed; True if rebuilt."""
        total_power = float(power_map_w.sum())
        state = self._boundary_state
        if not force and state is not None and state.water_loop == water_loop:
            if not power_drift_exceeds(
                total_power, state.total_power_w, self.effective_boundary_refresh_tol()
            ):
                return False
        operating_point = self.loop.operating_point(total_power, water_loop)
        boundary_result = self.loop.cooling_boundary(
            power_map_w, self.thermal_simulator.grid.cell_pitch_mm(), operating_point
        )
        self._boundary_state = _BoundaryState(
            operating_point=operating_point,
            boundary_result=boundary_result,
            water_loop=water_loop,
            total_power_w=total_power,
        )
        return True

    def advance(
        self,
        power_map_w: np.ndarray,
        water_loop: WaterLoop | None = None,
        dt_s: float = 1.0,
        *,
        n_substeps: int = 1,
        force_boundary_refresh: bool = False,
    ) -> SessionAdvance:
        """Advance the temperature field by ``dt_s`` at the given power map.

        The first call (or the first after :meth:`reset`) initializes the
        field from a steady solve at the current conditions, so traces start
        at thermal equilibrium like the quasi-static path.  Subsequent calls
        warm-start from the stored field and take ``n_substeps`` backward-
        Euler steps of ``dt_s / n_substeps`` each; at a held boundary every
        substep is one cached back-substitution.
        """
        power_map_w = np.asarray(power_map_w, dtype=float)
        check_positive(dt_s, "dt_s")
        if n_substeps < 1:
            raise ValueError(f"n_substeps must be >= 1, got {n_substeps}")
        if water_loop is None:
            water_loop = self.design.water_loop()
        refreshed = self._ensure_boundary(
            power_map_w, water_loop, force=force_boundary_refresh
        )
        state = self._boundary_state
        assert state is not None
        boundary = state.boundary_result.boundary
        simulator = self.thermal_simulator

        if self._temperatures is None:
            steady = simulator.steady_state_from_map(power_map_w, boundary)
            self._temperatures = steady.temperatures_c.ravel().copy()

        field = self._temperatures
        sub_dt = dt_s / n_substeps
        residual = 0.0
        peak_case = float("-inf")
        thermal_result: ThermalResult | None = None
        for _ in range(n_substeps):
            new_field = simulator.transient_step_from_map(field, power_map_w, boundary, sub_dt)
            residual = float(np.max(np.abs(new_field - field)))
            field = new_field
            thermal_result = simulator.result_from_vector(field)
            peak_case = max(peak_case, thermal_result.case_temperature_c())
        assert thermal_result is not None
        self._temperatures = field
        self._last_settle_residual_c = residual
        return SessionAdvance(
            thermal_result=thermal_result,
            operating_point=state.operating_point,
            boundary_result=state.boundary_result,
            dt_s=dt_s,
            n_substeps=n_substeps,
            settle_residual_c=residual,
            period_peak_case_c=peak_case,
            boundary_refreshed=refreshed,
        )

    def advance_activities(
        self,
        activities: list[CoreActivity],
        frequency_ghz: float,
        dt_s: float,
        *,
        memory_intensity: float = 0.5,
        water_loop: WaterLoop | None = None,
        n_substeps: int = 1,
        force_boundary_refresh: bool = False,
        benchmark_name: str = "custom",
        configuration: Configuration | None = None,
        mapping: WorkloadMapping | None = None,
    ) -> TransientStepResult:
        """One transient control period for a per-core activity pattern.

        The returned :class:`EvaluationResult` carries the fresh package
        power and the *transient* thermal field; the operating point and
        channel diagnostics come from the held boundary state (refreshed per
        the session's tolerance), which is what the field was advanced with.
        """
        if water_loop is None:
            water_loop = self.design.water_loop()
        breakdown, power_map = self._evaluate_power(
            activities, frequency_ghz, memory_intensity
        )
        advance = self.advance(
            power_map,
            water_loop,
            dt_s,
            n_substeps=n_substeps,
            force_boundary_refresh=force_boundary_refresh,
        )
        if configuration is None:
            configuration = self._default_configuration(activities, frequency_ghz)
        result = self._build_result(
            benchmark_name=benchmark_name,
            configuration=configuration,
            mapping=mapping,
            breakdown=breakdown,
            thermal_result=advance.thermal_result,
            operating_point=advance.operating_point,
            boundary_result=advance.boundary_result,
            water_loop=water_loop,
        )
        return TransientStepResult(
            result=result,
            dt_s=advance.dt_s,
            n_substeps=advance.n_substeps,
            settle_residual_c=advance.settle_residual_c,
            period_peak_case_c=advance.period_peak_case_c,
            boundary_refreshed=advance.boundary_refreshed,
        )

    def advance_mapping(
        self,
        benchmark: BenchmarkCharacteristics,
        mapping: WorkloadMapping,
        dt_s: float,
        *,
        mapper: ThreadMapper | None = None,
        water_loop: WaterLoop | None = None,
        activity_factor: float = 1.0,
        n_substeps: int = 1,
        force_boundary_refresh: bool = False,
    ) -> TransientStepResult:
        """One transient control period for a resolved workload mapping."""
        mapper = self._mapper(mapper)
        activities = mapper.activities(benchmark, mapping, activity_factor=activity_factor)
        return self.advance_activities(
            activities,
            mapping.configuration.frequency_ghz,
            dt_s,
            memory_intensity=benchmark.memory_intensity,
            water_loop=water_loop,
            n_substeps=n_substeps,
            force_boundary_refresh=force_boundary_refresh,
            benchmark_name=benchmark.name,
            configuration=mapping.configuration,
            mapping=mapping,
        )


def reference_run_trace(
    controller: ThermosyphonController,
    benchmark: BenchmarkCharacteristics,
    mapping: WorkloadMapping,
    constraint: QoSConstraint,
    trace: PhasedTrace,
    *,
    initial_water_loop: WaterLoop | None = None,
    transient_substeps: int = 4,
) -> ControllerTrace:
    """The old ``run_trace(mode="transient")`` loop on a :class:`ReferenceServerLane`.

    The lane is built on the controller simulation's floorplan, design,
    power model and thermal simulator (so it shares the factorization
    cache, as the old session did) and takes the controller's refresh
    overrides, as the old ``_apply_refresh_policy`` pushed them.
    """
    simulation = controller.simulation
    session = ReferenceServerLane(
        simulation.floorplan,
        design=simulation.design,
        power_model=simulation.power_model,
        thermal_simulator=simulation.thermal_simulator,
    )
    if controller.boundary_refresh_tol is not None:
        session.boundary_refresh_tol = controller.boundary_refresh_tol
    if controller.adaptive_boundary_refresh is not None:
        session.adaptive_boundary_refresh = controller.adaptive_boundary_refresh
    mapper = ThreadMapper(
        simulation.floorplan, orientation=simulation.design.orientation
    )
    water_loop = (
        initial_water_loop
        if initial_water_loop is not None
        else simulation.design.water_loop()
    )
    frequency = mapping.configuration.frequency_ghz
    record = ControllerTrace(mode="transient")
    session.reset()
    cache = simulation.thermal_simulator.solver_cache
    misses_before = cache.stats.misses if cache is not None else None

    current_mapping = mapping_at_frequency(mapping, frequency)
    force_refresh = False
    time_s = 0.0
    while time_s < trace.duration_s:
        phase = trace.phase_at(time_s)
        if current_mapping.configuration.frequency_ghz != frequency:
            # Only rebuild configuration/mapping when DVFS actually acted.
            current_mapping = mapping_at_frequency(mapping, frequency)
        step = session.advance_mapping(
            benchmark,
            current_mapping,
            controller.control_period_s,
            mapper=mapper,
            water_loop=water_loop,
            activity_factor=phase.activity_factor,
            n_substeps=transient_substeps,
            force_boundary_refresh=force_refresh,
        )
        result = step.result
        settle_residual = step.settle_residual_c
        period_peak = step.period_peak_case_c
        # Capture the actuator settings this period actually ran with
        # before decide() computes the next period's settings.
        evaluated_flow_kg_h = water_loop.flow_rate_kg_h
        evaluated_frequency_ghz = frequency
        action, water_loop, frequency = controller.decide(
            result, water_loop, benchmark, constraint
        )
        force_refresh = action in ACTUATOR_ACTIONS
        record.decisions.append(
            ControllerDecision(
                time_s=time_s,
                case_temperature_c=result.case_temperature_c,
                die_hot_spot_c=result.die_metrics.theta_max_c,
                package_power_w=result.package_power_w,
                water_flow_kg_h=evaluated_flow_kg_h,
                frequency_ghz=evaluated_frequency_ghz,
                action=action,
                settle_residual_c=settle_residual,
                period_peak_case_c=period_peak,
            )
        )
        time_s += controller.control_period_s
    if misses_before is not None and cache is not None:
        record.factorizations = cache.stats.misses - misses_before
    return record
