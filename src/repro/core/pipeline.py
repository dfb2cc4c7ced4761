"""End-to-end evaluation pipeline.

``CooledServerSimulation`` wires the four substrates together for one
server: floorplan -> power model -> thermosyphon loop -> thermal simulator.
It is a thin facade over the steady lane of
:class:`repro.core.session.SimulationSession`, where ``EvaluationResult``
and ``T_CASE_MAX_C`` also live.  ``ThermalAwarePipeline`` adds the paper's
decision layer on top: QoS-aware configuration selection (Algorithm 1),
C-state-aware thread mapping, and the resulting thermal evaluation.
"""

from __future__ import annotations

from repro.core.config_selection import ConfigurationSelection, QoSAwareConfigSelector
from repro.core.mapping import ThreadMapper, WorkloadMapping
from repro.core.mapping_policies import MappingPolicy, ProposedThermalAwareMapping
from repro.core.session import EvaluationResult, SimulationSession
from repro.floorplan.floorplan import Floorplan
from repro.power.power_model import CoreActivity, ServerPowerModel
from repro.thermal.simulator import ThermalSimulator
from repro.thermosyphon.design import PAPER_OPTIMIZED_DESIGN, ThermosyphonDesign
from repro.thermosyphon.water_loop import WaterLoop
from repro.workloads.benchmark import BenchmarkCharacteristics
from repro.workloads.configuration import Configuration
from repro.workloads.profiler import WorkloadProfiler
from repro.workloads.qos import QoSConstraint


class CooledServerSimulation:
    """One server CPU cooled by one thermosyphon.

    A facade over :class:`SimulationSession`: the quasi-static
    ``simulate_*`` methods delegate to the session, which is exposed as
    :attr:`session`.  Time-stepped studies take the substrates from here
    (``ThermosyphonController`` runs them on a one-server floor engine).
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
        self.session = SimulationSession(
            floorplan,
            design=design,
            power_model=power_model,
            thermal_simulator=thermal_simulator,
            cell_size_mm=cell_size_mm,
        )

    # ------------------------------------------------------------------ #
    # Substrate access (facade attributes)
    # ------------------------------------------------------------------ #
    @property
    def floorplan(self) -> Floorplan:
        """The die/package floorplan the session simulates."""
        return self.session.floorplan

    @property
    def design(self) -> ThermosyphonDesign:
        """The thermosyphon design attached to the CPU."""
        return self.session.design

    @property
    def power_model(self) -> ServerPowerModel:
        """The server power model."""
        return self.session.power_model

    @property
    def thermal_simulator(self) -> ThermalSimulator:
        """The shared thermal simulator (and its factorization cache)."""
        return self.session.thermal_simulator

    @property
    def loop(self):
        """The thermosyphon loop model."""
        return self.session.loop

    # ------------------------------------------------------------------ #
    # Low-level evaluation (quasi-static lane)
    # ------------------------------------------------------------------ #
    def simulate_activities(
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
        """Evaluate an arbitrary per-core activity pattern."""
        return self.session.solve_steady(
            activities,
            frequency_ghz,
            memory_intensity=memory_intensity,
            water_loop=water_loop,
            benchmark_name=benchmark_name,
            configuration=configuration,
            mapping=mapping,
        )

    def simulate_mapping(
        self,
        benchmark: BenchmarkCharacteristics,
        mapping: WorkloadMapping,
        *,
        mapper: ThreadMapper | None = None,
        water_loop: WaterLoop | None = None,
        activity_factor: float = 1.0,
    ) -> EvaluationResult:
        """Evaluate a resolved workload mapping."""
        return self.session.solve_steady_mapping(
            benchmark,
            mapping,
            mapper=mapper,
            water_loop=water_loop,
            activity_factor=activity_factor,
        )


class ThermalAwarePipeline:
    """The paper's full flow: configuration selection, mapping, evaluation."""

    def __init__(
        self,
        simulation: CooledServerSimulation,
        *,
        profiler: WorkloadProfiler | None = None,
        policy: MappingPolicy | None = None,
        configurations: tuple[Configuration, ...] | None = None,
    ) -> None:
        self.simulation = simulation
        self.profiler = (
            profiler if profiler is not None else WorkloadProfiler(simulation.power_model)
        )
        self.policy = policy if policy is not None else ProposedThermalAwareMapping()
        self.selector = QoSAwareConfigSelector(self.profiler, configurations)
        self.mapper = ThreadMapper(
            simulation.floorplan, orientation=simulation.design.orientation
        )

    # ------------------------------------------------------------------ #
    # Individual steps
    # ------------------------------------------------------------------ #
    def select_configuration(
        self, benchmark: BenchmarkCharacteristics, constraint: QoSConstraint
    ) -> ConfigurationSelection:
        """Algorithm 1 configuration-selection step."""
        return self.selector.select(benchmark, constraint)

    def map_threads(
        self,
        benchmark: BenchmarkCharacteristics,
        configuration: Configuration,
    ) -> WorkloadMapping:
        """Thread-mapping step under the pipeline's policy."""
        return self.mapper.map(benchmark, configuration, self.policy)

    # ------------------------------------------------------------------ #
    # End-to-end
    # ------------------------------------------------------------------ #
    def run(
        self,
        benchmark: BenchmarkCharacteristics,
        constraint: QoSConstraint,
        *,
        water_loop: WaterLoop | None = None,
    ) -> EvaluationResult:
        """Select, map and thermally evaluate one application."""
        selection = self.select_configuration(benchmark, constraint)
        mapping = self.map_threads(benchmark, selection.configuration)
        return self.simulation.simulate_mapping(
            benchmark, mapping, mapper=self.mapper, water_loop=water_loop
        )

    def run_with_configuration(
        self,
        benchmark: BenchmarkCharacteristics,
        configuration: Configuration,
        *,
        water_loop: WaterLoop | None = None,
    ) -> EvaluationResult:
        """Map and evaluate a caller-chosen configuration (skip selection)."""
        mapping = self.map_threads(benchmark, configuration)
        return self.simulation.simulate_mapping(
            benchmark, mapping, mapper=self.mapper, water_loop=water_loop
        )
