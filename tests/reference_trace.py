"""Golden-model reference: eagerly materialized datacenter traces.

Before :class:`~repro.core.runtime_controller.RackTrace` stored its
decisions as columns, a trace was a list of per-period tuples of
:class:`~repro.core.runtime_controller.ControllerDecision` objects.
``DatacenterSession.advance_span`` copied every server's final decision
once per held period through ``dataclasses.replace`` and built one
:class:`~repro.datacenter.model.DatacenterPeriod` per held period, and
``DatacenterSession.run`` extended the per-rack lists with them; every
aggregate was a Python loop over those objects.

This module preserves that representation verbatim as the golden model:
:class:`ReferenceRackTrace` is the list-backed rack trace,
:func:`reference_advance_span` the eager span materialization and
:func:`run_reference_trace` the run loop that commits them.  The physics,
span planning and supervisory calls go through the same session, so the
columnar trace must equal this one field for field, bit for bit
(``tests/test_trace_columns.py``).

Do not "improve" this file — its value is that it materializes every
held period as objects, exactly the way the trace was first written.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.core.runtime_controller import ControllerAction, ControllerDecision
from repro.datacenter.model import (
    DatacenterPeriod,
    DatacenterSession,
    DatacenterTrace,
)
from repro.datacenter.supervisory import SupervisoryAction, SupervisoryDecision
from repro.thermal.solver_cache import CacheStats


@dataclass
class ReferenceRackTrace:
    """The list-of-tuples rack trace and its loop aggregates."""

    periods: list[tuple[ControllerDecision, ...]] = field(default_factory=list)
    chiller_power_w: list[float] = field(default_factory=list)
    control_period_s: float = 2.0
    mode: str = "transient"
    factorizations: int | None = None
    cache_stats: CacheStats | None = None

    @property
    def n_periods(self) -> int:
        return len(self.periods)

    @property
    def n_servers(self) -> int:
        return len(self.periods[0]) if self.periods else 0

    def server_decisions(self, server: int) -> list[ControllerDecision]:
        return [period[server] for period in self.periods]

    def _count(self, action: ControllerAction) -> int:
        return sum(
            1 for period in self.periods for d in period if d.action is action
        )

    @property
    def emergencies(self) -> int:
        return self._count(ControllerAction.EMERGENCY)

    @property
    def flow_increases(self) -> int:
        return self._count(ControllerAction.INCREASE_FLOW)

    @property
    def frequency_reductions(self) -> int:
        return self._count(ControllerAction.LOWER_FREQUENCY)

    @property
    def peak_case_temperature_c(self) -> float:
        return max(
            (d.case_temperature_c for period in self.periods for d in period),
            default=float("nan"),
        )

    @property
    def peak_period_case_temperature_c(self) -> float:
        peaks = [
            d.period_peak_case_c
            for period in self.periods
            for d in period
            if d.period_peak_case_c is not None
        ]
        return max(peaks) if peaks else self.peak_case_temperature_c

    @property
    def mean_chiller_power_w(self) -> float:
        if not self.chiller_power_w:
            return float("nan")
        return sum(self.chiller_power_w) / len(self.chiller_power_w)

    @property
    def chiller_energy_j(self) -> float:
        return sum(self.chiller_power_w) * self.control_period_s


@dataclass
class ReferenceDatacenterTrace(DatacenterTrace):
    """A floor trace over :class:`ReferenceRackTrace` racks."""

    @property
    def thermal_violations(self) -> int:
        count = 0
        for rack in self.racks:
            for period in rack.periods:
                for decision in period:
                    peak = (
                        decision.period_peak_case_c
                        if decision.period_peak_case_c is not None
                        else decision.case_temperature_c
                    )
                    if peak >= self.t_case_max_c:
                        count += 1
        return count


def reference_advance_span(
    session: DatacenterSession, time_s: float, span: int, *, n_substeps=None
) -> list[DatacenterPeriod]:
    """``span`` held periods, each materialized as a :class:`DatacenterPeriod`."""
    model = session.model
    substeps = n_substeps if n_substeps is not None else model.transient_substeps
    span_advance = session.floor_engine.advance_span(
        session._rack_loads(time_s),
        model.control_period_s,
        span,
        n_substeps=substeps,
        force_boundary_refresh=session._force_refresh,
        t_case_max_c=model.policy.t_case_max_c,
    )
    times = []
    stamp = time_s
    for _ in range(span):
        times.append(stamp)
        stamp += model.control_period_s
    final_decisions, rack_chiller_w = session._decide(span_advance.racks, times[-1])

    periods: list[DatacenterPeriod] = []
    for j in range(span):
        if j == span - 1:
            decisions_j = tuple(final_decisions)
        else:
            decisions_j = tuple(
                tuple(
                    replace(
                        decision,
                        time_s=times[j],
                        action=ControllerAction.NONE,
                        case_temperature_c=float(
                            span_advance.period_case_c[r][j, s]
                        ),
                        period_peak_case_c=float(
                            span_advance.period_peak_case_c[r][j, s]
                        ),
                    )
                    for s, decision in enumerate(final_decisions[r])
                )
                for r in range(model.n_racks)
            )
        staging_j, chiller_w_j = session._stage(rack_chiller_w, times[j])
        periods.append(
            DatacenterPeriod(
                time_s=times[j],
                setpoint_c=session.setpoint_c,
                rack_decisions=decisions_j,
                rack_chiller_power_w=tuple(chiller_w_j),
                worst_period_peak_case_c=float(
                    span_advance.period_worst_peak_c[j]
                ),
                staging=staging_j,
            )
        )
    return periods


def run_reference_trace(
    session: DatacenterSession, *, duration_s=None, supervisory=None
) -> ReferenceDatacenterTrace:
    """``session.run`` committing eagerly materialized periods into lists."""
    model = session.model
    duration = duration_s if duration_s is not None else model.duration_s
    periods_per_window = 0
    if supervisory is not None:
        periods_per_window = int(round(supervisory.period_s / model.control_period_s))
    session.reset()
    caches = session._distinct_caches()
    stats_before = [cache.stats for cache in caches]
    rom_before = (
        session.floor_engine.rom_stats.copy() if model.coarsening is not None else None
    )

    trace = ReferenceDatacenterTrace(
        rack_names=tuple(rack.name for rack in model.racks),
        racks=[
            ReferenceRackTrace(control_period_s=model.control_period_s)
            for _ in model.racks
        ],
        control_period_s=model.control_period_s,
        t_case_max_c=model.policy.t_case_max_c,
    )
    window_peak = float("-inf")
    carried_peak = float("nan")
    period_index = 0
    time_s = 0.0
    while time_s < duration:
        span, _ = session._plan_span(time_s, duration, periods_per_window, period_index)
        if span > 1:
            periods = reference_advance_span(session, time_s, span)
            trace.coarse_spans += 1
            trace.coarse_periods += span
        else:
            periods = [session.advance_period(time_s)]
        for r in range(model.n_racks):
            rack_trace = trace.racks[r]
            rack_trace.periods.extend(period.rack_decisions[r] for period in periods)
            rack_trace.chiller_power_w.extend(
                period.rack_chiller_power_w[r] for period in periods
            )
        trace.setpoint_c.extend(period.setpoint_c for period in periods)
        trace.plant_power_w.extend(period.plant_power_w for period in periods)
        if periods[0].staging is not None:
            trace.staging.extend(period.staging for period in periods)
        window_peak = max(
            window_peak,
            max(period.worst_period_peak_case_c for period in periods),
        )
        period_index += len(periods)
        for _ in periods:
            time_s += model.control_period_s
        session._note_period(periods[-1])
        if (
            supervisory is not None
            and period_index % periods_per_window == 0
            and time_s < duration
        ):
            if window_peak == float("-inf"):
                decision = SupervisoryDecision(
                    time_s=time_s,
                    setpoint_c=session.setpoint_c,
                    next_setpoint_c=session.setpoint_c,
                    action=SupervisoryAction.HOLD,
                    worst_peak_case_c=carried_peak,
                    predicted_peak_case_c=carried_peak,
                )
            else:
                carried_peak = window_peak
                plan = getattr(supervisory, "plan", None)
                if callable(plan):
                    decision = plan(session, time_s, window_peak, duration_s=duration)
                else:
                    decision = supervisory.decide(
                        time_s, session.setpoint_c, window_peak
                    )
            trace.supervisory_decisions.append(decision)
            session.set_setpoint(decision.next_setpoint_c)
            window_peak = float("-inf")
    if rom_before is not None:
        trace.rom_stats = session.floor_engine.rom_stats.delta(rom_before)
    if caches:
        trace.cache_stats = sum(
            (cache.stats.delta(before) for cache, before in zip(caches, stats_before)),
            CacheStats.zero(),
        )
        trace.factorizations = trace.cache_stats.misses
    return trace
