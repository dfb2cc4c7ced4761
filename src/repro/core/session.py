"""Single-server simulation session: the quasi-static (steady) lane.

:class:`SimulationSession` owns the four substrates for one server
(floorplan -> power model -> thermosyphon loop -> thermal simulator) and
solves a workload to equilibrium: ``solve_steady`` evaluates a per-core
activity pattern, ``solve_steady_mapping`` a resolved workload mapping.
Every call solves from scratch through the shared
:class:`FactorizationCache`, so repeated cooling boundaries cost one
back-substitution each.  :class:`repro.core.pipeline.CooledServerSimulation`
is a thin facade over this class.

The session holds no state between calls.  Transient (time-stepped) state
of a server, a rack or a floor belongs to one engine,
:class:`~repro.datacenter.floor.FloorEngine`; a single-server controller
trace (``ThermosyphonController.run_trace(mode="transient")``) runs on a
one-server floor.  :func:`build_evaluation_result` is shared with the rack
session, so both report identical derived metrics.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.mapping import ThreadMapper, WorkloadMapping
from repro.floorplan.floorplan import Floorplan
from repro.floorplan.xeon_e5_v4 import build_xeon_e5_v4_floorplan
from repro.power.power_model import CoreActivity, PowerBreakdown, ServerPowerModel
from repro.thermal.metrics import ThermalMetrics
from repro.thermal.simulator import ThermalResult, ThermalSimulator
from repro.thermosyphon.chiller import ChillerModel
from repro.thermosyphon.design import PAPER_OPTIMIZED_DESIGN, ThermosyphonDesign
from repro.thermosyphon.loop import BoundaryResult, LoopOperatingPoint, ThermosyphonLoop
from repro.thermosyphon.water_loop import WaterLoop
from repro.workloads.benchmark import BenchmarkCharacteristics
from repro.workloads.configuration import Configuration

#: Maximum allowed case (heat-spreader centre) temperature, Section VI-B.
T_CASE_MAX_C = 85.0


@dataclass
class EvaluationResult:
    """Everything the experiments report about one evaluated operating point."""

    benchmark_name: str
    configuration: Configuration
    mapping: WorkloadMapping | None
    package_power_w: float
    die_metrics: ThermalMetrics
    package_metrics: ThermalMetrics
    case_temperature_c: float
    operating_point: LoopOperatingPoint
    max_channel_quality: float
    dryout: bool
    water_delta_t_c: float
    water_loop: WaterLoop
    thermal_result: ThermalResult

    @property
    def within_case_limit(self) -> bool:
        """True if the case temperature respects ``T_CASE_MAX``."""
        return self.case_temperature_c <= T_CASE_MAX_C

    def chiller_power_w(self, chiller: ChillerModel | None = None, water_loop: WaterLoop | None = None) -> float:
        """Chiller electrical power for this operating point (Eq. 1).

        Uses the water loop the evaluation actually ran with; pass
        ``water_loop`` only to ask "what would the chiller draw at a
        different water condition for the same heat load".
        """
        chiller = chiller if chiller is not None else ChillerModel()
        loop = water_loop if water_loop is not None else self.water_loop
        return chiller.cooling_power_w(loop, self.package_power_w)


def build_evaluation_result(
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
    """Assemble the :class:`EvaluationResult` of one evaluated server.

    Shared by :class:`SimulationSession` (one server) and
    :class:`repro.core.rack_session.RackSession` (many servers through one
    operator), so both report identical derived metrics.
    """
    return EvaluationResult(
        benchmark_name=benchmark_name,
        configuration=configuration,
        mapping=mapping,
        package_power_w=breakdown.package_power_w,
        die_metrics=thermal_result.die_metrics(),
        package_metrics=thermal_result.package_metrics(),
        case_temperature_c=thermal_result.case_temperature_c(),
        operating_point=operating_point,
        max_channel_quality=boundary_result.max_quality,
        dryout=boundary_result.dryout,
        water_delta_t_c=water_loop.delta_t_c(breakdown.package_power_w),
        water_loop=water_loop,
        thermal_result=thermal_result,
    )


class SimulationSession:
    """One server CPU cooled by one thermosyphon, solved to equilibrium.

    Parameters
    ----------
    floorplan, design, power_model, thermal_simulator, cell_size_mm:
        As for :class:`repro.core.pipeline.CooledServerSimulation`.
    """

    def __init__(
        self,
        floorplan: Floorplan | None = None,
        *,
        design: ThermosyphonDesign = PAPER_OPTIMIZED_DESIGN,
        power_model: ServerPowerModel | None = None,
        thermal_simulator: ThermalSimulator | None = None,
        cell_size_mm: float = 1.0,
    ) -> None:
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

    # ------------------------------------------------------------------ #
    # Shared helpers
    # ------------------------------------------------------------------ #
    def _evaluate_power(
        self,
        activities: list[CoreActivity],
        frequency_ghz: float,
        memory_intensity: float,
    ) -> tuple[PowerBreakdown, np.ndarray]:
        breakdown = self.power_model.evaluate(
            activities, frequency_ghz, memory_intensity=memory_intensity
        )
        power_map = self.thermal_simulator.power_map(breakdown.component_power_w)
        return breakdown, power_map

    @staticmethod
    def _default_configuration(
        activities: list[CoreActivity], frequency_ghz: float
    ) -> Configuration:
        n_active = sum(1 for activity in activities if activity.active)
        threads = max(
            (activity.threads_on_core for activity in activities if activity.active),
            default=1,
        )
        return Configuration(
            n_cores=max(n_active, 1),
            threads_per_core=threads,
            frequency_ghz=frequency_ghz,
        )

    def _mapper(self, mapper: ThreadMapper | None) -> ThreadMapper:
        if mapper is not None:
            return mapper
        return ThreadMapper(self.floorplan, orientation=self.design.orientation)

    # ------------------------------------------------------------------ #
    # Quasi-static lane
    # ------------------------------------------------------------------ #
    def solve_steady(
        self,
        activities: list[CoreActivity],
        frequency_ghz: float,
        *,
        memory_intensity: float = 0.5,
        water_loop: WaterLoop | None = None,
        benchmark_name: str = "custom",
        configuration: Configuration | None = None,
        mapping: WorkloadMapping | None = None,
    ) -> EvaluationResult:
        """Equilibrium evaluation of an arbitrary per-core activity pattern."""
        if water_loop is None:
            water_loop = self.design.water_loop()
        breakdown, power_map = self._evaluate_power(
            activities, frequency_ghz, memory_intensity
        )
        operating_point = self.loop.operating_point(float(power_map.sum()), water_loop)
        boundary_result = self.loop.cooling_boundary(
            power_map, self.thermal_simulator.grid.cell_pitch_mm(), operating_point
        )
        thermal_result = self.thermal_simulator.steady_state_from_map(
            power_map, boundary_result.boundary
        )
        if configuration is None:
            configuration = self._default_configuration(activities, frequency_ghz)
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

    def solve_steady_mapping(
        self,
        benchmark: BenchmarkCharacteristics,
        mapping: WorkloadMapping,
        *,
        mapper: ThreadMapper | None = None,
        water_loop: WaterLoop | None = None,
        activity_factor: float = 1.0,
    ) -> EvaluationResult:
        """Equilibrium evaluation of a resolved workload mapping."""
        mapper = self._mapper(mapper)
        activities = mapper.activities(benchmark, mapping, activity_factor=activity_factor)
        return self.solve_steady(
            activities,
            mapping.configuration.frequency_ghz,
            memory_intensity=benchmark.memory_intensity,
            water_loop=water_loop,
            benchmark_name=benchmark.name,
            configuration=mapping.configuration,
            mapping=mapping,
        )
