"""End-to-end pipeline tests (CooledServerSimulation + ThermalAwarePipeline)."""

import pytest

from repro.core.pipeline import CooledServerSimulation, ThermalAwarePipeline
from repro.core.session import T_CASE_MAX_C
from repro.baselines.coskun_balancing import CoskunBalancingMapping
from repro.power.power_model import CoreActivity
from repro.thermosyphon.design import PAPER_OPTIMIZED_DESIGN
from repro.workloads.configuration import Configuration
from repro.workloads.qos import QoSConstraint


@pytest.fixture(scope="module")
def simulation(floorplan, power_model, coarse_thermal_simulator):
    return CooledServerSimulation(
        floorplan,
        design=PAPER_OPTIMIZED_DESIGN,
        power_model=power_model,
        thermal_simulator=coarse_thermal_simulator,
    )


@pytest.fixture(scope="module")
def pipeline(simulation, profiler):
    return ThermalAwarePipeline(simulation, profiler=profiler)


class TestSimulation:
    def test_full_load_result_consistency(self, simulation, x264):
        activities = [
            CoreActivity.running(i, x264.core_power_parameters(), 2) for i in range(8)
        ]
        result = simulation.simulate_activities(
            activities, 3.2, memory_intensity=x264.memory_intensity, benchmark_name="x264"
        )
        assert result.die_metrics.theta_max_c > result.package_metrics.theta_max_c
        assert result.package_power_w > 60.0
        assert result.operating_point.total_heat_w == pytest.approx(result.package_power_w, rel=1e-6)
        assert result.water_delta_t_c > 0.0
        assert result.within_case_limit
        assert result.case_temperature_c < T_CASE_MAX_C

    def test_configuration_inferred_from_activities(self, simulation, x264):
        activities = [
            CoreActivity.running(i, x264.core_power_parameters(), 2) if i < 3 else CoreActivity.idle(i)
            for i in range(8)
        ]
        result = simulation.simulate_activities(activities, 2.9, benchmark_name="x264")
        assert result.configuration.n_cores == 3
        assert result.configuration.frequency_ghz == 2.9

    def test_chiller_power_positive(self, simulation, x264):
        activities = [
            CoreActivity.running(i, x264.core_power_parameters(), 2) for i in range(4)
        ]
        result = simulation.simulate_activities(activities, 3.2, benchmark_name="x264")
        assert result.chiller_power_w() > 0.0

    def test_result_carries_the_evaluated_water_loop(self, simulation, x264):
        """Regression: chiller power must reflect the actual operating point,
        not a hardcoded 7 kg/h reconstruction."""
        from repro.thermosyphon.chiller import ChillerModel

        activities = [
            CoreActivity.running(i, x264.core_power_parameters(), 2) for i in range(4)
        ]
        loop = simulation.design.water_loop().with_flow_rate(14.0)
        result = simulation.simulate_activities(
            activities, 3.2, water_loop=loop, benchmark_name="x264"
        )
        assert result.water_loop is loop
        chiller = ChillerModel(coefficient_of_performance=3.0)
        expected = chiller.cooling_power_w(loop, result.package_power_w)
        assert result.chiller_power_w(chiller) == pytest.approx(expected)
        # Default water loop: the design's own loop, not a 7 kg/h stand-in.
        default_result = simulation.simulate_activities(
            activities, 3.2, benchmark_name="x264"
        )
        assert default_result.water_loop.flow_rate_kg_h == pytest.approx(
            simulation.design.water_loop().flow_rate_kg_h
        )


class TestPipeline:
    def test_run_satisfies_qos_and_reports_metrics(self, pipeline, x264):
        result = pipeline.run(x264, QoSConstraint(2.0))
        assert result.benchmark_name == "x264"
        assert result.mapping is not None
        assert result.mapping.n_active_cores == result.configuration.n_cores
        assert result.die_metrics.theta_max_c > 40.0

    def test_relaxed_qos_runs_cooler(self, pipeline, x264):
        strict = pipeline.run(x264, QoSConstraint(1.0))
        relaxed = pipeline.run(x264, QoSConstraint(3.0))
        assert relaxed.package_power_w < strict.package_power_w
        assert relaxed.die_metrics.theta_max_c < strict.die_metrics.theta_max_c

    def test_explicit_configuration_bypasses_selection(self, pipeline, x264):
        configuration = Configuration(2, 1, 2.6)
        result = pipeline.run_with_configuration(x264, configuration)
        assert result.configuration == configuration

    def test_policy_affects_mapping(self, simulation, profiler, x264):
        proposed = ThermalAwarePipeline(simulation, profiler=profiler)
        baseline = ThermalAwarePipeline(
            simulation, profiler=profiler, policy=CoskunBalancingMapping()
        )
        constraint = QoSConstraint(3.0)
        proposed_result = proposed.run(x264, constraint)
        baseline_result = baseline.run(x264, constraint)
        # The baseline keeps idle cores in POLL, so it burns more power.
        assert baseline_result.package_power_w > proposed_result.package_power_w
        assert (
            baseline_result.die_metrics.theta_max_c
            >= proposed_result.die_metrics.theta_max_c
        )

    def test_select_configuration_step(self, pipeline, x264):
        selection = pipeline.select_configuration(x264, QoSConstraint(2.0))
        assert selection.selected.satisfies(QoSConstraint(2.0))
