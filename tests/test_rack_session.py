"""RackSession tests: batched rack engine vs the per-server golden path.

The load-bearing guarantees: every batched layer (grouped operating points,
stacked lane march, multi-column back-substitution) reproduces the
per-server :class:`SimulationSession` steady lane and the single-server
golden transient lane (``reference_server_lane.py``) to <= 1e-12 across
homogeneous and heterogeneous slots — on the transient lane through a
one-rack :class:`FloorEngine`, the only owner of server, rack and floor
temperature state; a rack trace reproduces the standalone rack lane
(``reference_rack_lane.py``) bit for bit; the session-backed
:class:`RackModel` matches a :class:`BatchEvaluator` exactly; and the
batched engine actually pays fewer factorizations — one per distinct
cooling boundary instead of one per server, asserted through merged
:class:`CacheStats`.  ``TestOneServerFloor`` holds the single-server
transient behaviour (steady initialization, warm start, refresh policy) on
a one-server floor.
"""

import numpy as np
import pytest

from repro.core.batch import BatchEvaluator, SweepPoint
from repro.core.mapping import ThreadMapper
from repro.core.mapping_policies import ProposedThermalAwareMapping
from repro.core.rack import RackModel, RackResult, ServerSlot
from repro.core.rack_session import RackSession, ServerLoad
from repro.core.runtime_controller import (
    ControllerAction,
    RackServer,
    ThermosyphonController,
)
from repro.core.session import SimulationSession
from repro.core.pipeline import CooledServerSimulation
from repro.datacenter.floor import FloorEngine
from repro.exceptions import ConfigurationError, ValidationError
from repro.thermal.simulator import ThermalSimulator
from repro.thermal.solver_cache import CacheStats
from repro.thermosyphon.chiller import ChillerModel
from repro.thermosyphon.design import PAPER_OPTIMIZED_DESIGN
from repro.workloads.configuration import Configuration
from repro.workloads.parsec import get_benchmark
from repro.workloads.qos import QoSConstraint
from repro.thermosyphon.water_loop import WaterLoop
from repro.workloads.trace import PhasedTrace, TracePhase
from reference_rack_lane import ReferenceRackLane, run_rack_period
from reference_server_lane import ReferenceServerLane, reference_run_trace

CELL_SIZE_MM = 2.5
#: A case limit the jittered test trace crosses, so valves act.
LOW_CASE_LIMIT_C = 60.0


def _mapping(floorplan, benchmark, frequency_ghz=3.2):
    mapper = ThreadMapper(floorplan, orientation=PAPER_OPTIMIZED_DESIGN.orientation)
    return mapper.map(
        benchmark, Configuration(8, 2, frequency_ghz), ProposedThermalAwareMapping()
    )


def _rack_session(floorplan, power_model, n_servers, **kwargs):
    return RackSession(
        n_servers,
        floorplan=floorplan,
        power_model=power_model,
        thermal_simulator=ThermalSimulator(floorplan, cell_size_mm=CELL_SIZE_MM),
        **kwargs,
    )


class _OneRackFloor:
    """A one-rack :class:`FloorEngine` driven with one rack's arguments."""

    def __init__(self, session):
        self.session = session
        self.engine = FloorEngine([session])

    def advance(self, loads, dt_s, *, n_substeps=1, force_boundary_refresh=False):
        return self.engine.advance(
            [loads],
            dt_s,
            n_substeps=n_substeps,
            force_boundary_refresh=[force_boundary_refresh],
        ).racks[0]


def _one_rack_floor(floorplan, power_model, n_servers, **kwargs):
    return _OneRackFloor(_rack_session(floorplan, power_model, n_servers, **kwargs))


def _golden_session(floorplan, power_model):
    """A fresh independent per-server pipeline (its own simulator and cache)."""
    return SimulationSession(
        floorplan,
        power_model=power_model,
        thermal_simulator=ThermalSimulator(floorplan, cell_size_mm=CELL_SIZE_MM),
    )


def _golden_lane(floorplan, power_model):
    """A fresh single-server golden transient lane (its own simulator)."""
    return ReferenceServerLane(
        floorplan,
        power_model=power_model,
        thermal_simulator=ThermalSimulator(floorplan, cell_size_mm=CELL_SIZE_MM),
    )


class TestSteadyEquivalence:
    def test_homogeneous_rack_matches_per_server_loop(self, floorplan, power_model, x264):
        """Identical slots: batched fields equal the golden loop to 1e-12."""
        mapping = _mapping(floorplan, x264)
        n_servers = 4
        rack = _rack_session(floorplan, power_model, n_servers)
        loads = [ServerLoad(benchmark=x264, mapping=mapping)] * n_servers
        batched = rack.solve_steady(loads)

        for result in batched:
            golden = _golden_session(floorplan, power_model).solve_steady_mapping(
                x264, mapping
            )
            scale = np.abs(golden.thermal_result.temperatures_c).max()
            assert (
                np.abs(
                    result.thermal_result.temperatures_c
                    - golden.thermal_result.temperatures_c
                ).max()
                <= 1e-12 * scale
            )
            assert result.case_temperature_c == pytest.approx(
                golden.case_temperature_c, abs=1e-12
            )
            assert result.package_power_w == pytest.approx(
                golden.package_power_w, abs=1e-12
            )
            assert result.operating_point.saturation_temperature_c == pytest.approx(
                golden.operating_point.saturation_temperature_c, abs=1e-12
            )
            assert result.max_channel_quality == pytest.approx(
                golden.max_channel_quality, abs=1e-12
            )

    def test_heterogeneous_rack_matches_per_server_loop(
        self, floorplan, power_model, x264, canneal
    ):
        """Mixed workloads split into groups but still match the golden loop."""
        benchmarks = [x264, canneal, x264, canneal]
        rack = _rack_session(floorplan, power_model, len(benchmarks))
        loads = [
            ServerLoad(benchmark=benchmark, mapping=_mapping(floorplan, benchmark))
            for benchmark in benchmarks
        ]
        batched = rack.solve_steady(loads)
        for load, result in zip(loads, batched):
            golden = _golden_session(floorplan, power_model).solve_steady_mapping(
                load.benchmark, load.mapping
            )
            scale = np.abs(golden.thermal_result.temperatures_c).max()
            assert (
                np.abs(
                    result.thermal_result.temperatures_c
                    - golden.thermal_result.temperatures_c
                ).max()
                <= 1e-12 * scale
            )
            assert result.dryout == golden.dryout

    def test_mixed_frequencies_are_separate_boundary_groups(
        self, floorplan, power_model, x264
    ):
        """Same benchmark at different DVFS levels: distinct groups, exact results."""
        rack = _rack_session(floorplan, power_model, 2)
        loads = [
            ServerLoad(benchmark=x264, mapping=_mapping(floorplan, x264, 3.2)),
            ServerLoad(benchmark=x264, mapping=_mapping(floorplan, x264, 2.6)),
        ]
        results = rack.solve_steady(loads)
        assert rack.cache_stats().misses == 2
        assert (
            results[0].configuration.frequency_ghz
            != results[1].configuration.frequency_ghz
        )
        assert results[0].package_power_w > results[1].package_power_w


class TestFactorizationSharing:
    def test_homogeneous_rack_pays_one_factorization(self, floorplan, power_model, x264):
        """ISSUE acceptance: 8 identical servers, one factorization.

        The per-server golden loop with independent sessions pays one per
        server; merged CacheStats assert the >= 8x reduction.
        """
        mapping = _mapping(floorplan, x264)
        n_servers = 8
        rack = _rack_session(floorplan, power_model, n_servers)
        rack.solve_steady([ServerLoad(benchmark=x264, mapping=mapping)] * n_servers)
        assert rack.cache_stats().misses == 1

        golden_sessions = [
            _golden_session(floorplan, power_model) for _ in range(n_servers)
        ]
        for session in golden_sessions:
            session.solve_steady_mapping(x264, mapping)
        golden_stats = sum(
            (session.thermal_simulator.solver_cache.stats for session in golden_sessions),
            CacheStats.zero(),
        )
        assert golden_stats.misses == n_servers
        assert golden_stats.misses >= 8 * rack.cache_stats().misses

    def test_heterogeneous_rack_pays_one_per_distinct_boundary(
        self, floorplan, power_model, x264, canneal
    ):
        rack = _rack_session(floorplan, power_model, 6)
        loads = [
            ServerLoad(benchmark=bench, mapping=_mapping(floorplan, bench))
            for bench in (x264, x264, x264, canneal, canneal, canneal)
        ]
        rack.solve_steady(loads)
        assert rack.cache_stats().misses == 2  # one per distinct workload

    def test_repeated_solves_reuse_operators(self, floorplan, power_model, x264):
        mapping = _mapping(floorplan, x264)
        rack = _rack_session(floorplan, power_model, 4)
        loads = [ServerLoad(benchmark=x264, mapping=mapping)] * 4
        rack.solve_steady(loads)
        misses = rack.cache_stats().misses
        rack.solve_steady(loads)
        assert rack.cache_stats().misses == misses


class TestCacheStatsMerge:
    def test_addition_merges_counters(self):
        a = CacheStats(hits=3, misses=1, steady_entries=1, transient_entries=0)
        b = CacheStats(hits=5, misses=2, steady_entries=2, transient_entries=1)
        merged = a + b
        assert merged.hits == 8
        assert merged.misses == 3
        assert merged.steady_entries == 3
        assert merged.transient_entries == 1
        assert merged.hit_rate == pytest.approx(8 / 11)

    def test_sum_with_zero_identity(self):
        stats = [
            CacheStats(hits=1, misses=1, steady_entries=1, transient_entries=0),
            CacheStats(hits=2, misses=0, steady_entries=0, transient_entries=2),
        ]
        merged = sum(stats, CacheStats.zero())
        assert merged.hits == 3
        assert merged.misses == 1
        # Plain sum() (int 0 start) works too.
        assert sum(stats) == merged


class _BatchRackModel(RackModel):
    """A rack whose every slot is evaluated through a :class:`BatchEvaluator`.

    The per-slot pipeline path the session engine must reproduce: one
    ``evaluate_many`` over the slots, sharing the rack's simulation and
    pipeline, then the same chiller accounting.
    """

    def evaluate(self, water_inlet_temperature_c):
        water_loop = WaterLoop(
            inlet_temperature_c=water_inlet_temperature_c,
            flow_rate_kg_h=self.design.water_flow_rate_kg_h,
        )
        points = [
            SweepPoint(
                benchmark=slot.benchmark, constraint=slot.constraint, water_loop=water_loop
            )
            for slot in self.slots
        ]
        evaluator = BatchEvaluator(self._simulation, pipeline=self._pipeline)
        results = evaluator.evaluate_many(points)
        return RackResult(
            water_inlet_temperature_c=water_inlet_temperature_c,
            server_results=results,
            chiller_power_w=sum(
                self.chiller.cooling_power_w(result.water_loop, result.package_power_w)
                for result in results
            ),
        )


class TestRackModelParity:
    @pytest.fixture(scope="class")
    def slots(self):
        return [
            ServerSlot(get_benchmark("x264"), QoSConstraint(2.0)),
            ServerSlot(get_benchmark("x264"), QoSConstraint(2.0)),
            ServerSlot(get_benchmark("canneal"), QoSConstraint(2.0)),
        ]

    def test_evaluate_matches_batch_engine(self, slots):
        session_rack = RackModel(slots, cell_size_mm=CELL_SIZE_MM)
        ours = session_rack.evaluate(28.0)
        evaluator = BatchEvaluator(CooledServerSimulation(cell_size_mm=CELL_SIZE_MM))
        water_loop = WaterLoop(
            inlet_temperature_c=28.0,
            flow_rate_kg_h=PAPER_OPTIMIZED_DESIGN.water_flow_rate_kg_h,
        )
        theirs = evaluator.evaluate_many(
            [
                SweepPoint(
                    benchmark=slot.benchmark,
                    constraint=slot.constraint,
                    water_loop=water_loop,
                )
                for slot in slots
            ]
        )
        assert ours.chiller_power_w == pytest.approx(
            sum(
                session_rack.chiller.cooling_power_w(r.water_loop, r.package_power_w)
                for r in theirs
            ),
            abs=1e-9,
        )
        for a, b in zip(ours.server_results, theirs):
            assert a.case_temperature_c == pytest.approx(b.case_temperature_c, abs=1e-12)
            assert a.die_metrics.theta_max_c == pytest.approx(
                b.die_metrics.theta_max_c, abs=1e-12
            )
            assert a.package_power_w == pytest.approx(b.package_power_w, abs=1e-12)

    def test_water_temperature_search_parity(self, slots):
        """Bisection through the session engine lands where the batch path does."""
        session_rack = RackModel(slots, cell_size_mm=CELL_SIZE_MM)
        batch_rack = _BatchRackModel(slots, cell_size_mm=CELL_SIZE_MM)
        ours = session_rack.warmest_feasible_water_temperature(
            low_c=15.0, high_c=40.0, tolerance_c=2.0
        )
        theirs = batch_rack.warmest_feasible_water_temperature(
            low_c=15.0, high_c=40.0, tolerance_c=2.0
        )
        assert ours.water_inlet_temperature_c == pytest.approx(
            theirs.water_inlet_temperature_c, abs=1e-12
        )
        assert ours.worst_case_temperature_c == pytest.approx(
            theirs.worst_case_temperature_c, abs=1e-12
        )

    def test_hot_spot_search_parity(self, slots):
        session_rack = RackModel(slots, cell_size_mm=CELL_SIZE_MM)
        batch_rack = _BatchRackModel(slots, cell_size_mm=CELL_SIZE_MM)
        nominal = session_rack.evaluate(30.0)
        target = nominal.worst_die_hot_spot_c - 3.0
        ours = session_rack.water_temperature_for_hot_spot(
            target, low_c=10.0, high_c=30.0, tolerance_c=1.0
        )
        theirs = batch_rack.water_temperature_for_hot_spot(
            target, low_c=10.0, high_c=30.0, tolerance_c=1.0
        )
        assert ours.water_inlet_temperature_c == pytest.approx(
            theirs.water_inlet_temperature_c, abs=1e-12
        )


class TestTransientLane:
    def test_advance_matches_per_server_sessions(self, floorplan, power_model, x264, canneal):
        """A short jittered rack trace advances exactly like golden lanes."""
        benchmarks = [x264, x264, canneal]
        mappings = [_mapping(floorplan, bench) for bench in benchmarks]
        rack = _one_rack_floor(floorplan, power_model, 3)
        golden = [_golden_lane(floorplan, power_model) for _ in benchmarks]

        for activity in (1.0, 0.97, 1.02, 0.95):
            loads = [
                ServerLoad(benchmark=bench, mapping=mapping, activity_factor=activity)
                for bench, mapping in zip(benchmarks, mappings)
            ]
            advance = rack.advance(loads, dt_s=2.0, n_substeps=3)
            for index, (bench, mapping) in enumerate(zip(benchmarks, mappings)):
                step = golden[index].advance_mapping(
                    bench, mapping, 2.0, activity_factor=activity, n_substeps=3
                )
                ours = advance.servers[index]
                scale = np.abs(step.result.thermal_result.temperatures_c).max()
                assert (
                    np.abs(
                        ours.result.thermal_result.temperatures_c
                        - step.result.thermal_result.temperatures_c
                    ).max()
                    <= 1e-12 * scale
                )
                assert ours.settle_residual_c == pytest.approx(
                    step.settle_residual_c, abs=1e-12
                )
                assert ours.period_peak_case_c == pytest.approx(
                    step.period_peak_case_c, abs=1e-12
                )
                assert ours.boundary_refreshed == step.boundary_refreshed

    def test_small_jitter_holds_boundaries(self, floorplan, power_model, x264):
        mapping = _mapping(floorplan, x264)
        rack = _one_rack_floor(floorplan, power_model, 2)
        loads = [ServerLoad(benchmark=x264, mapping=mapping)] * 2
        first = rack.advance(loads, dt_s=2.0)
        assert first.boundary_refreshes == 2
        jittered = [
            ServerLoad(benchmark=x264, mapping=mapping, activity_factor=1.02)
        ] * 2
        second = rack.advance(jittered, dt_s=2.0)
        assert second.boundary_refreshes == 0

    def test_per_server_force_refresh(self, floorplan, power_model, x264):
        mapping = _mapping(floorplan, x264)
        rack = _one_rack_floor(floorplan, power_model, 3)
        loads = [ServerLoad(benchmark=x264, mapping=mapping)] * 3
        rack.advance(loads, dt_s=2.0)
        step = rack.advance(loads, dt_s=2.0, force_boundary_refresh=[False, True, False])
        assert [server.boundary_refreshed for server in step.servers] == [
            False,
            True,
            False,
        ]

    def test_reset_forgets_state(self, floorplan, power_model, x264):
        mapping = _mapping(floorplan, x264)
        rack = _one_rack_floor(floorplan, power_model, 2)
        loads = [ServerLoad(benchmark=x264, mapping=mapping)] * 2
        rack.advance(loads, dt_s=2.0)
        assert rack.engine.snapshot().group_fields[0] is not None
        rack.engine.reset()
        assert rack.engine.snapshot().group_fields[0] is None
        assert rack.session.snapshot().boundaries == (None, None)
        # The next advance starts cold: every boundary is rebuilt.
        assert rack.advance(loads, dt_s=2.0).boundary_refreshes == 2

    def test_load_count_validated(self, floorplan, power_model, x264):
        mapping = _mapping(floorplan, x264)
        rack = _one_rack_floor(floorplan, power_model, 3)
        with pytest.raises(ValidationError):
            rack.session.solve_steady(
                [ServerLoad(benchmark=x264, mapping=mapping)] * 2
            )
        with pytest.raises(ValidationError):
            rack.advance(
                [ServerLoad(benchmark=x264, mapping=mapping)] * 3,
                dt_s=2.0,
                force_boundary_refresh=[True],
            )

    def test_rejects_empty_rack(self, floorplan, power_model):
        with pytest.raises(ConfigurationError):
            _rack_session(floorplan, power_model, 0)


class TestRackTrace:
    @pytest.fixture(scope="class")
    def jittered_trace(self):
        phases = tuple(
            TracePhase(2.0, 0.9 + 0.004 * index, 0.5) for index in range(8)
        )
        return PhasedTrace("jittered", phases)

    def test_rack_trace_factorization_count(
        self, floorplan, power_model, x264, jittered_trace
    ):
        """ISSUE acceptance: a homogeneous rack trace shares operators.

        Independent per-server transient traces each pay their own
        steady-init and refresh factorizations; the rack engine pays that
        cost once for the whole homogeneous rack (>= n_servers x fewer).
        """
        mapping = _mapping(floorplan, x264)
        n_servers = 4
        simulation = CooledServerSimulation(
            floorplan,
            power_model=power_model,
            thermal_simulator=ThermalSimulator(floorplan, cell_size_mm=CELL_SIZE_MM),
        )
        controller = ThermosyphonController(
            simulation, control_period_s=2.0, relax_margin_c=100.0
        )
        servers = [
            RackServer(x264, mapping, QoSConstraint(2.0)) for _ in range(n_servers)
        ]
        record = controller.run_rack_trace(servers, jittered_trace)
        assert record.n_periods == 8
        assert record.n_servers == n_servers
        assert record.factorizations is not None

        # Golden: the same trace on independent single-server golden lanes.
        golden_factorizations = 0
        for _ in range(n_servers):
            golden_sim = CooledServerSimulation(
                floorplan,
                power_model=power_model,
                thermal_simulator=ThermalSimulator(
                    floorplan, cell_size_mm=CELL_SIZE_MM
                ),
            )
            golden_controller = ThermosyphonController(
                golden_sim, control_period_s=2.0, relax_margin_c=100.0
            )
            golden_record = reference_run_trace(
                golden_controller, x264, mapping, QoSConstraint(2.0), jittered_trace
            )
            golden_factorizations += golden_record.factorizations
        assert golden_factorizations >= n_servers * record.factorizations

        # And the decisions themselves match the single-server golden run.
        for server in range(n_servers):
            for ours, theirs in zip(
                record.server_decisions(server), golden_record.decisions
            ):
                assert ours.case_temperature_c == pytest.approx(
                    theirs.case_temperature_c, abs=1e-12
                )
                assert ours.action is theirs.action

    def test_rack_trace_reports_chiller_power(
        self, floorplan, power_model, x264, jittered_trace
    ):
        mapping = _mapping(floorplan, x264)
        simulation = CooledServerSimulation(
            floorplan,
            power_model=power_model,
            thermal_simulator=ThermalSimulator(floorplan, cell_size_mm=CELL_SIZE_MM),
        )
        controller = ThermosyphonController(simulation, control_period_s=2.0)
        servers = [RackServer(x264, mapping, QoSConstraint(2.0)) for _ in range(2)]
        record = controller.run_rack_trace(servers, jittered_trace)
        assert len(record.chiller_power_w) == record.n_periods
        assert record.mean_chiller_power_w > 0.0
        assert record.chiller_energy_j == pytest.approx(
            sum(record.chiller_power_w) * 2.0
        )
        summary = record.summary()
        assert "servers" in summary
        assert "factorizations" in summary

    def test_rack_trace_matches_reference_rack_lane(
        self, floorplan, power_model, x264, canneal, jittered_trace
    ):
        """A rack trace (a one-rack floor) == the standalone rack lane, bitwise.

        The golden loop refreshes boundaries rack-locally and owns its own
        fields; ``run_rack_trace`` drives the floor engine.  A low case
        limit makes the valves act, so boundary refreshes, regrouping and
        the decision rule are all exercised.
        """
        servers = [
            RackServer(bench, _mapping(floorplan, bench), QoSConstraint(2.0))
            for bench in (x264, canneal, x264)
        ]

        def controller():
            simulation = CooledServerSimulation(
                floorplan,
                power_model=power_model,
                thermal_simulator=ThermalSimulator(
                    floorplan, cell_size_mm=CELL_SIZE_MM
                ),
            )
            return ThermosyphonController(
                simulation, control_period_s=2.0, t_case_max_c=LOW_CASE_LIMIT_C
            )

        record = controller().run_rack_trace(
            servers, jittered_trace, transient_substeps=3
        )

        golden_controller = controller()
        simulation = golden_controller.simulation
        lane = ReferenceRackLane(
            RackSession(
                len(servers),
                floorplan=simulation.floorplan,
                design=simulation.design,
                power_model=simulation.power_model,
                thermal_simulator=simulation.thermal_simulator,
            )
        )
        water_loops = [simulation.design.water_loop()] * len(servers)
        frequencies = [s.mapping.configuration.frequency_ghz for s in servers]
        mappings = [s.mapping for s in servers]
        force_refresh = [False] * len(servers)
        chiller = ChillerModel()
        traces = [jittered_trace] * len(servers)
        golden = []
        time_s = 0.0
        while time_s < jittered_trace.duration_s:
            golden.append(
                run_rack_period(
                    lane, servers, traces, mappings, frequencies, water_loops,
                    force_refresh, time_s, 2.0, 3, golden_controller, chiller,
                )
            )
            time_s += 2.0

        assert len(record.periods) == len(golden)
        actions = set()
        for ours, (theirs, chiller_w) in zip(
            zip(record.periods, record.chiller_power_w), golden
        ):
            assert ours[1] == chiller_w
            assert ours[0] == theirs
            actions.update(decision.action for decision in ours[0])
        assert len(actions) > 1

    def test_missing_trace_rejected(self, floorplan, power_model, x264):
        mapping = _mapping(floorplan, x264)
        simulation = CooledServerSimulation(
            floorplan,
            power_model=power_model,
            thermal_simulator=ThermalSimulator(floorplan, cell_size_mm=CELL_SIZE_MM),
        )
        controller = ThermosyphonController(simulation)
        servers = [RackServer(x264, mapping, QoSConstraint(2.0))]
        with pytest.raises(ConfigurationError):
            controller.run_rack_trace(servers, None)


class TestOneServerFloor:
    """A single server's transient behaviour, on a one-server floor.

    The floor engine owns the temperature field of every server; a
    single-server controller trace is a one-server rack of it.
    """

    @staticmethod
    def _loads(benchmark, mapping, activity_factor=1.0, water_loop=None):
        return [
            ServerLoad(
                benchmark=benchmark,
                mapping=mapping,
                activity_factor=activity_factor,
                water_loop=water_loop,
            )
        ]

    def test_first_advance_initializes_from_steady(self, floorplan, power_model, x264):
        floor = _one_rack_floor(floorplan, power_model, 1)
        loads = self._loads(x264, _mapping(floorplan, x264))
        steady = floor.session.solve_steady(loads)[0]
        step = floor.advance(loads, dt_s=2.0).servers[0]
        # Initialized at equilibrium for this power, the field barely moves.
        assert step.settle_residual_c < 0.05
        assert step.result.case_temperature_c == pytest.approx(
            steady.case_temperature_c, abs=0.2
        )

    def test_warm_start_converges_to_new_steady(self, floorplan, power_model, x264):
        """After a power step, repeated advances approach the new equilibrium."""
        mapping = _mapping(floorplan, x264)
        floor = _one_rack_floor(floorplan, power_model, 1)
        floor.advance(self._loads(x264, mapping, 0.5), dt_s=2.0)  # settle low
        high = self._loads(x264, mapping, 1.0)
        target = floor.session.solve_steady(high)[0]
        residuals = []
        step = None
        for _ in range(60):
            step = floor.advance(high, dt_s=2.0).servers[0]
            residuals.append(step.settle_residual_c)
        # Residual decays as the field settles...
        assert residuals[-1] < residuals[0]
        assert residuals[-1] < 0.01
        # ...towards the steady solution at the new power.
        assert step.result.case_temperature_c == pytest.approx(
            target.case_temperature_c, abs=0.5
        )

    def test_substeps_share_one_operator(self, floorplan, power_model, x264):
        floor = _one_rack_floor(floorplan, power_model, 1)
        loads = self._loads(x264, _mapping(floorplan, x264))
        floor.advance(loads, dt_s=2.0, n_substeps=4)
        misses_before = floor.session.cache_stats().misses
        floor.advance(loads, dt_s=2.0, n_substeps=4)
        # All substeps at the held boundary are cache hits.
        assert floor.session.cache_stats().misses == misses_before

    def test_period_peak_tracks_overshoot(self, floorplan, power_model, x264):
        floor = _one_rack_floor(floorplan, power_model, 1)
        loads = self._loads(x264, _mapping(floorplan, x264))
        step = floor.advance(loads, dt_s=4.0, n_substeps=4).servers[0]
        assert step.period_peak_case_c >= step.result.case_temperature_c - 1e-9

    def test_rejects_bad_substeps(self, floorplan, power_model, x264):
        floor = _one_rack_floor(floorplan, power_model, 1)
        loads = self._loads(x264, _mapping(floorplan, x264))
        with pytest.raises(ValueError):
            floor.advance(loads, dt_s=2.0, n_substeps=0)

    def test_large_power_drift_refreshes(self, floorplan, power_model, x264):
        mapping = _mapping(floorplan, x264)
        floor = _one_rack_floor(floorplan, power_model, 1)
        floor.advance(self._loads(x264, mapping, 0.5), dt_s=2.0)
        held_before = floor.session.held_boundaries()[0].total_power_w
        # Activity 0.5 -> 1.0 drifts the power far beyond the 15% tolerance.
        step = floor.advance(self._loads(x264, mapping, 1.0), dt_s=2.0).servers[0]
        assert step.boundary_refreshed
        assert floor.session.held_boundaries()[0].total_power_w > 1.15 * held_before

    def test_water_loop_change_refreshes(self, floorplan, power_model, x264):
        mapping = _mapping(floorplan, x264)
        floor = _one_rack_floor(floorplan, power_model, 1)
        loop = PAPER_OPTIMIZED_DESIGN.water_loop()
        floor.advance(self._loads(x264, mapping, water_loop=loop), dt_s=2.0)
        step = floor.advance(
            self._loads(x264, mapping, water_loop=loop.with_flow_rate(12.0)), dt_s=2.0
        ).servers[0]
        assert step.boundary_refreshed

    def test_refreshed_boundary_matches_steady_build(self, floorplan, power_model, x264):
        """The held boundary is exactly what the steady path would build."""
        floor = _one_rack_floor(floorplan, power_model, 1)
        loads = self._loads(x264, _mapping(floorplan, x264))
        floor.advance(loads, dt_s=2.0)
        session = floor.session
        _, power_maps, _ = session._evaluate_power(loads)
        fresh = session.loop.cooling_boundary(
            power_maps[0], session.thermal_simulator.grid.cell_pitch_mm()
        )
        np.testing.assert_allclose(
            session.held_boundaries()[0].boundary_result.boundary.htc_w_m2k,
            fresh.boundary.htc_w_m2k,
        )

    def test_advance_result_fields(self, floorplan, power_model, x264):
        mapping = _mapping(floorplan, x264)
        floor = _one_rack_floor(floorplan, power_model, 1)
        advance = floor.advance(self._loads(x264, mapping), dt_s=2.0, n_substeps=3)
        assert advance.n_substeps == 3
        assert advance.dt_s == pytest.approx(2.0)
        step = advance.servers[0]
        assert step.result.benchmark_name == x264.name
        assert step.result.mapping is mapping
        assert step.settle_residual_c >= 0.0
        assert np.isfinite(step.period_peak_case_c)

    def test_transient_tracks_steady_for_constant_load(
        self, floorplan, power_model, x264
    ):
        """At a constant phase the transient lane sits on the steady answer."""
        floor = _one_rack_floor(floorplan, power_model, 1)
        loads = self._loads(x264, _mapping(floorplan, x264))
        steady = floor.session.solve_steady(loads)[0]
        step = None
        for _ in range(20):
            step = floor.advance(loads, dt_s=2.0).servers[0]
        assert step.result.case_temperature_c == pytest.approx(
            steady.case_temperature_c, abs=0.3
        )
        assert step.result.package_power_w == pytest.approx(steady.package_power_w)


class TestBoundaryRefreshPolicyPlumbing:
    def test_controller_overrides_refresh_tolerance(self, floorplan, power_model, x264):
        """A tight controller tolerance refreshes on jitter the default holds."""
        mapping = _mapping(floorplan, x264)
        phases = tuple(
            TracePhase(2.0, activity, 0.5) for activity in (1.0, 0.95, 0.9, 0.95)
        )
        trace = PhasedTrace("short", phases)

        def run(**policy):
            simulation = CooledServerSimulation(
                floorplan,
                power_model=power_model,
                thermal_simulator=ThermalSimulator(
                    floorplan, cell_size_mm=CELL_SIZE_MM
                ),
            )
            # A huge relax margin keeps the valve still: every refresh
            # comes from the power-drift policy, none from an actuator.
            controller = ThermosyphonController(
                simulation, relax_margin_c=100.0, **policy
            )
            return controller.run_trace(
                x264, mapping, QoSConstraint(2.0), trace, mode="transient"
            )

        default = run()
        tight = run(boundary_refresh_tol=0.01, adaptive_boundary_refresh=True)
        assert all(d.action is ControllerAction.NONE for d in default.decisions)
        assert tight.factorizations > default.factorizations

    def test_adaptive_mode_tightens_tolerance_mid_transient(
        self, floorplan, power_model, x264
    ):
        """A large settle residual shrinks the effective refresh tolerance."""
        mapping = _mapping(floorplan, x264)
        floor = _one_rack_floor(
            floorplan,
            power_model,
            1,
            boundary_refresh_tol=0.15,
            adaptive_boundary_refresh=True,
            adaptive_residual_reference_c=0.5,
        )
        load = ServerLoad(benchmark=x264, mapping=mapping, activity_factor=0.4)
        floor.advance([load], dt_s=2.0)  # settled at the low point
        assert floor.session._effective_refresh_tol(0) == pytest.approx(0.15)
        # A big power step leaves the field far from equilibrium...
        floor.advance([ServerLoad(benchmark=x264, mapping=mapping)], dt_s=0.05)
        # ...so the adaptive tolerance tightens below the static setting.
        assert floor.session._effective_refresh_tol(0) < 0.15

    def test_static_mode_keeps_tolerance(self, floorplan, power_model):
        session = _rack_session(floorplan, power_model, 1, boundary_refresh_tol=0.2)
        assert session._effective_refresh_tol(0) == pytest.approx(0.2)

    def test_zero_tolerance_accepted_by_controller(self, floorplan, power_model):
        """tol=0.0 (refresh every period) is a legitimate ablation setting."""
        simulation = CooledServerSimulation(
            floorplan,
            power_model=power_model,
            thermal_simulator=ThermalSimulator(floorplan, cell_size_mm=CELL_SIZE_MM),
        )
        controller = ThermosyphonController(simulation, boundary_refresh_tol=0.0)
        assert controller.boundary_refresh_tol == 0.0
