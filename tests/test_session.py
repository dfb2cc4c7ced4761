"""SimulationSession tests: the steady lane and its facade.

The session keeps no transient state; the single-server transient checks
run on a one-server floor in ``tests/test_rack_session.py``.
"""

import pytest

from repro.core.mapping import ThreadMapper
from repro.core.mapping_policies import ProposedThermalAwareMapping
from repro.core.pipeline import CooledServerSimulation
from repro.core.session import SimulationSession
from repro.thermosyphon.design import PAPER_OPTIMIZED_DESIGN
from repro.workloads.configuration import Configuration


@pytest.fixture(scope="module")
def session(floorplan, power_model, coarse_thermal_simulator):
    return SimulationSession(
        floorplan,
        design=PAPER_OPTIMIZED_DESIGN,
        power_model=power_model,
        thermal_simulator=coarse_thermal_simulator,
    )


@pytest.fixture(scope="module")
def mapping(floorplan, x264):
    mapper = ThreadMapper(floorplan)
    return mapper.map(x264, Configuration(8, 2, 3.2), ProposedThermalAwareMapping())


class TestSteadyLane:
    def test_facade_delegates_to_session(self, floorplan, power_model, coarse_thermal_simulator, x264, mapping):
        simulation = CooledServerSimulation(
            floorplan,
            power_model=power_model,
            thermal_simulator=coarse_thermal_simulator,
        )
        via_facade = simulation.simulate_mapping(x264, mapping)
        via_session = simulation.session.solve_steady_mapping(x264, mapping)
        assert via_facade.case_temperature_c == pytest.approx(via_session.case_temperature_c)
        assert via_facade.package_power_w == pytest.approx(via_session.package_power_w)
        # The facade exposes the session's substrates, not copies.
        assert simulation.thermal_simulator is simulation.session.thermal_simulator
        assert simulation.loop is simulation.session.loop

    def test_solve_steady_mapping_carries_mapping(self, session, x264, mapping):
        result = session.solve_steady_mapping(x264, mapping)
        assert result.mapping is mapping
        assert result.configuration is mapping.configuration
        assert result.benchmark_name == x264.name
