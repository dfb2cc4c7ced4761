"""Golden-model reference: the standalone rack-at-a-time transient lane.

Before :class:`~repro.datacenter.floor.FloorEngine` became the only owner of
rack and floor temperature state, every rack could also advance on its own:
``RackSession.advance`` refreshed its stale cooling boundaries rack-locally,
initialized its fields from batched steady solves and marched them through
one multi-RHS back-substitution per cooling boundary per substep, and
``run_rack_period`` wrapped that advance between the load-building and
decision stages.  ``DatacenterModel(engine="per-rack")`` walked a floor
through that lane one rack at a time.

This module preserves that lane verbatim as the golden model.  The floor
engine must reproduce it bit for bit (``tests/test_floor.py``,
``tests/test_rack_session.py``), and the floor benchmark uses
:func:`run_reference_floor` as its rack-at-a-time speedup baseline.

Do not "improve" this file — its value is that it advances each rack
separately, with its own boundary refresh and its own solves, exactly the
way the rack lane was first written.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.core.mapping import WorkloadMapping
from repro.core.rack_session import RackAdvance, RackSession, ServerLoad
from repro.core.runtime_controller import (
    ControllerDecision,
    RackServer,
    RackTrace,
    apply_rack_decisions,
    build_rack_loads,
)
from repro.datacenter.model import DatacenterModel, DatacenterTrace
from repro.thermal.solver_cache import CacheStats
from repro.thermosyphon.chiller import ChillerModel
from repro.thermosyphon.water_loop import WaterLoop
from repro.utils.validation import check_positive
from repro.workloads.trace import PhasedTrace


class ReferenceRackLane:
    """One rack advanced on its own: the rack owns its stacked fields."""

    def __init__(self, session: RackSession) -> None:
        self.session = session
        self.fields: np.ndarray | None = None

    def reset(self) -> None:
        """Forget the fields and every held boundary."""
        self.fields = None
        self.session.reset()

    def refresh_boundaries(
        self,
        power_maps: np.ndarray,
        water_loops: Sequence[WaterLoop],
        refreshed: Sequence[bool],
    ) -> None:
        """Rebuild the flagged servers' boundaries, batched rack-locally."""
        session = self.session
        stale = [index for index in range(session.n_servers) if refreshed[index]]
        if not stale:
            return
        operating_points = session._operating_points(power_maps, water_loops, stale)
        boundary_map = session._cooling_boundaries(power_maps, operating_points)
        for index in stale:
            session.store_boundary(
                index,
                operating_points[index],
                boundary_map[index],
                water_loops[index],
                float(power_maps[index].sum()),
            )

    def advance(
        self,
        loads: Sequence[ServerLoad],
        dt_s: float = 1.0,
        *,
        n_substeps: int = 1,
        force_boundary_refresh: bool | Sequence[bool] = False,
    ) -> RackAdvance:
        """Advance every server's field by ``dt_s`` at its current load.

        The first call initializes all fields from batched steady solves,
        later calls take ``n_substeps`` backward-Euler steps in which
        servers holding the same cooling boundary advance through one
        cached operator per substep.  ``force_boundary_refresh`` is one
        flag for the whole rack or one per server.
        """
        session = self.session
        loads = session._check_loads(loads)
        check_positive(dt_s, "dt_s")
        if n_substeps < 1:
            raise ValueError(f"n_substeps must be >= 1, got {n_substeps}")
        force = session.normalize_force_flags(force_boundary_refresh)

        breakdowns, power_maps, water_loops = session._evaluate_power(loads)

        # Refresh stale boundaries, batching the loop/evaporator work of the
        # refreshing servers; the rest keep their held state.
        refreshed = session.plan_refresh(power_maps, water_loops, force)
        self.refresh_boundaries(power_maps, water_loops, refreshed)
        boundaries = [state.boundary_result for state in session.held_boundaries()]

        if self.fields is None:
            self.fields = session._steady_fields(power_maps, boundaries)

        fields = self.fields
        sub_dt = dt_s / n_substeps
        residuals = np.zeros(session.n_servers, dtype=float)
        peak_case = np.full(session.n_servers, float("-inf"), dtype=float)
        groups = session._group_by_boundary(boundaries)
        for _ in range(n_substeps):
            new_fields = np.empty_like(fields)
            for indices in groups:
                new_fields[indices] = (
                    session.thermal_simulator.transient_step_many_from_maps(
                        fields[indices],
                        power_maps[indices],
                        boundaries[indices[0]].boundary,
                        sub_dt,
                    )
                )
            residuals = np.max(np.abs(new_fields - fields), axis=1)
            fields = new_fields
            peak_case = np.maximum(peak_case, fields[:, session.case_cell_index])

        self.fields = fields
        return session.finish_advance(
            loads,
            breakdowns,
            water_loops,
            fields,
            residuals,
            peak_case,
            refreshed,
            dt_s,
            n_substeps,
        )


def run_rack_period(
    lane: ReferenceRackLane,
    servers: Sequence[RackServer],
    traces: Sequence[PhasedTrace],
    current_mappings: list[WorkloadMapping],
    frequencies: list[float],
    water_loops: list[WaterLoop],
    force_refresh: list[bool],
    time_s: float,
    control_period_s: float,
    transient_substeps: int,
    policy,
    chiller: ChillerModel,
) -> tuple[tuple[ControllerDecision, ...], float]:
    """One transient control period of one rack: physics + fast decisions.

    :func:`build_rack_loads` (actuator state -> loads), one
    :meth:`ReferenceRackLane.advance` (physics) and
    :func:`apply_rack_decisions` (fast rule).  The actuator lists are
    updated in place; returns the period's decisions and the rack chiller
    electrical power.
    """
    loads = build_rack_loads(
        servers, traces, current_mappings, frequencies, water_loops, time_s
    )
    advance = lane.advance(
        loads,
        control_period_s,
        n_substeps=transient_substeps,
        force_boundary_refresh=force_refresh,
    )
    return apply_rack_decisions(
        advance, servers, frequencies, water_loops, force_refresh, time_s, policy, chiller
    )


def run_reference_floor(
    model: DatacenterModel, *, duration_s: float | None = None
) -> DatacenterTrace:
    """A fixed-setpoint floor run, one rack at a time (the old per-rack engine).

    Each rack advances through its own :class:`ReferenceRackLane` on the
    model's resolved hardware (racks sharing a simulator share its
    factorization cache, as on the floor).  Supports a single
    :class:`~repro.thermosyphon.chiller.ChillerPlant` at the model's supply
    setpoint — the configuration the parity tests and the floor benchmark
    compare.
    """
    setpoint_c = model.supply_setpoint_c
    chiller = model.plant.chiller_at(setpoint_c)
    lanes = []
    for r, rack in enumerate(model.racks):
        session = RackSession(
            rack.n_servers,
            floorplan=model.rack_floorplans[r],
            design=model.rack_designs[r],
            power_model=model.rack_power_models[r],
            thermal_simulator=model.rack_simulators[r],
        )
        if model.boundary_refresh_tol is not None:
            session.boundary_refresh_tol = model.boundary_refresh_tol
        if model.adaptive_boundary_refresh is not None:
            session.adaptive_boundary_refresh = model.adaptive_boundary_refresh
        lanes.append(ReferenceRackLane(session))
    traces = [
        [rack.server_trace(index) for index in range(rack.n_servers)]
        for rack in model.racks
    ]
    water_loops = [
        [model.rack_designs[r].water_loop().with_inlet_temperature(setpoint_c)]
        * rack.n_servers
        for r, rack in enumerate(model.racks)
    ]
    frequencies = [
        [server.mapping.configuration.frequency_ghz for server in rack.servers]
        for rack in model.racks
    ]
    mappings = [[server.mapping for server in rack.servers] for rack in model.racks]
    force_refresh = [[False] * rack.n_servers for rack in model.racks]

    caches: dict[int, object] = {}
    for simulator in model.rack_simulators:
        if simulator.solver_cache is not None:
            caches.setdefault(id(simulator.solver_cache), simulator.solver_cache)
    stats_before = {key: cache.stats for key, cache in caches.items()}

    trace = DatacenterTrace(
        rack_names=tuple(rack.name for rack in model.racks),
        racks=[RackTrace(control_period_s=model.control_period_s) for _ in model.racks],
        control_period_s=model.control_period_s,
        t_case_max_c=model.policy.t_case_max_c,
    )
    duration = duration_s if duration_s is not None else model.duration_s
    time_s = 0.0
    while time_s < duration:
        rack_chiller_w = []
        for r, rack in enumerate(model.racks):
            decisions, period_chiller_w = run_rack_period(
                lanes[r],
                rack.servers,
                traces[r],
                mappings[r],
                frequencies[r],
                water_loops[r],
                force_refresh[r],
                time_s,
                model.control_period_s,
                model.transient_substeps,
                model.policy,
                chiller,
            )
            trace.racks[r].append(time_s, decisions)
            trace.racks[r].chiller_power_w.append(period_chiller_w)
            rack_chiller_w.append(period_chiller_w)
        trace.setpoint_c.append(setpoint_c)
        trace.plant_power_w.append(sum(rack_chiller_w))
        time_s += model.control_period_s
    if caches:
        trace.cache_stats = sum(
            (cache.stats.delta(stats_before[key]) for key, cache in caches.items()),
            CacheStats.zero(),
        )
        trace.factorizations = trace.cache_stats.misses
    return trace
