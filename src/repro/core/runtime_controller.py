"""Runtime thermosyphon controller (last paragraph of Section VII).

During execution the only fast actuator is the water-flow valve.  The
controller therefore follows the paper's rule: increase the water flow rate
only when a thermal emergency occurs (``T_CASE >= T_CASE_MAX``); if the
valve is already fully open, lower the core frequency one level — but only
if the QoS constraint still holds at the lower frequency; if neither
actuator is available the emergency is reported.

Two execution modes are offered by :meth:`ThermosyphonController.run_trace`:

``mode="steady"``
    The original quasi-static study: each control period the workload
    phase's power is evaluated and the loop and thermal models are solved
    to *equilibrium* at the current actuator settings.  Every power jitter
    produces a new cooling boundary and therefore (cache misses aside) a
    new operator factorization.

``mode="transient"``
    The time-domain study, closer to the paper's runtime claim: the trace
    runs as a one-server :meth:`ThermosyphonController.run_rack_trace`, so
    the temperature field is carried across periods by the same
    :class:`~repro.datacenter.floor.FloorEngine` that advances racks and
    floors, with backward-Euler steps.  The cooling boundary is held
    between actuator events (and refreshed on large power drift), so a
    whole trace runs on a handful of factorizations — each period is a few
    cached back-substitutions.  Decisions gain transient diagnostics: the
    settle residual (how far from equilibrium the period ended) and the
    peak case temperature observed *within* the period.
"""

from __future__ import annotations

import enum
import operator
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field, replace

import numpy as np

from repro.core.mapping import ThreadMapper, WorkloadMapping
from repro.core.pipeline import CooledServerSimulation
from repro.core.rack_session import RackSession, ServerLoad
from repro.core.session import EvaluationResult, T_CASE_MAX_C
from repro.exceptions import ConfigurationError, ThermalEmergencyError
from repro.power.dvfs import CORE_FREQUENCIES_GHZ
from repro.thermal.solver_cache import CacheStats
from repro.thermosyphon.chiller import ChillerModel
from repro.thermosyphon.water_loop import WaterLoop
from repro.utils.validation import check_non_negative, check_positive
from repro.workloads.benchmark import BenchmarkCharacteristics
from repro.workloads.configuration import Configuration
from repro.workloads.qos import QoSConstraint
from repro.workloads.trace import PhasedTrace


class ControllerAction(enum.Enum):
    """What the controller did at the end of a control period."""

    NONE = "none"
    INCREASE_FLOW = "increase_flow"
    DECREASE_FLOW = "decrease_flow"
    LOWER_FREQUENCY = "lower_frequency"
    EMERGENCY = "emergency"


#: Actions that change an actuator setting for the next period; in transient
#: mode they force a cooling-boundary refresh at the next evaluation.
ACTUATOR_ACTIONS = frozenset(
    {
        ControllerAction.INCREASE_FLOW,
        ControllerAction.DECREASE_FLOW,
        ControllerAction.LOWER_FREQUENCY,
    }
)


def mapping_at_frequency(
    mapping: WorkloadMapping, frequency_ghz: float
) -> WorkloadMapping:
    """The mapping re-pinned to ``frequency_ghz``.

    Returns ``mapping`` itself when the frequency already matches, so a
    trace without DVFS actions never rebuilds configuration or mapping
    objects.
    """
    if mapping.configuration.frequency_ghz == frequency_ghz:
        return mapping
    return replace(
        mapping,
        configuration=replace(mapping.configuration, frequency_ghz=frequency_ghz),
    )


def qos_allows_frequency(
    benchmark: BenchmarkCharacteristics,
    configuration: Configuration,
    constraint: QoSConstraint,
    frequency_ghz: float,
) -> bool:
    """True when the QoS constraint still holds at the candidate frequency."""
    candidate = Configuration(
        n_cores=configuration.n_cores,
        threads_per_core=configuration.threads_per_core,
        frequency_ghz=frequency_ghz,
    )
    return constraint.is_satisfied_by(benchmark, candidate)


@dataclass(frozen=True)
class DecisionPolicy:
    """The paper's flow-first/DVFS-second rule as a standalone value.

    Extracted from :class:`ThermosyphonController` so engines without a
    single-server simulation — the datacenter floor of
    :mod:`repro.datacenter`, which drives many racks through shared
    operators — can apply the identical per-server rule.  The controller
    delegates to this class, so both lanes can never diverge.

    ``qos_filter`` optionally replaces the default QoS feasibility check;
    the controller binds its own (possibly subclass-overridden)
    ``_qos_allows_frequency`` here so custom QoS rules keep steering every
    lane.
    """

    t_case_max_c: float = T_CASE_MAX_C
    flow_step_kg_h: float = 2.0
    relax_margin_c: float = 8.0
    raise_on_unresolved: bool = False
    qos_filter: "Callable[..., bool] | None" = None

    def __post_init__(self) -> None:
        check_positive(self.flow_step_kg_h, "flow_step_kg_h")

    def qos_allows_frequency(
        self,
        benchmark: BenchmarkCharacteristics,
        configuration: Configuration,
        constraint: QoSConstraint,
        frequency_ghz: float,
    ) -> bool:
        """True when the constraint still holds at the candidate frequency."""
        check = self.qos_filter if self.qos_filter is not None else qos_allows_frequency
        return check(benchmark, configuration, constraint, frequency_ghz)

    def decide(
        self,
        result: EvaluationResult,
        water_loop: WaterLoop,
        benchmark: BenchmarkCharacteristics,
        constraint: QoSConstraint,
    ) -> tuple[ControllerAction, WaterLoop, float]:
        """Pick the next action given the latest thermal evaluation.

        Returns the action, the water loop for the next period and the core
        frequency for the next period.
        """
        frequency = result.configuration.frequency_ghz
        if result.case_temperature_c >= self.t_case_max_c:
            if not water_loop.at_maximum_flow:
                return (
                    ControllerAction.INCREASE_FLOW,
                    water_loop.with_flow_rate(
                        water_loop.flow_rate_kg_h + self.flow_step_kg_h
                    ),
                    frequency,
                )
            lower_levels = [f for f in CORE_FREQUENCIES_GHZ if f < frequency]
            for candidate in sorted(lower_levels, reverse=True):
                if self.qos_allows_frequency(
                    benchmark, result.configuration, constraint, candidate
                ):
                    return ControllerAction.LOWER_FREQUENCY, water_loop, candidate
            if self.raise_on_unresolved:
                raise ThermalEmergencyError(
                    f"T_CASE {result.case_temperature_c:.1f} degC >= "
                    f"{self.t_case_max_c:.1f} degC with the valve fully open and no "
                    "QoS-feasible frequency reduction available"
                )
            return ControllerAction.EMERGENCY, water_loop, frequency

        relaxed_enough = (
            result.case_temperature_c < self.t_case_max_c - self.relax_margin_c
        )
        above_minimum_flow = water_loop.flow_rate_kg_h > water_loop.min_flow_rate_kg_h
        if relaxed_enough and above_minimum_flow:
            return (
                ControllerAction.DECREASE_FLOW,
                water_loop.with_flow_rate(
                    water_loop.flow_rate_kg_h - self.flow_step_kg_h
                ),
                frequency,
            )
        return ControllerAction.NONE, water_loop, frequency


@dataclass(frozen=True)
class ControllerDecision:
    """State and action of one control period.

    ``water_flow_kg_h`` and ``frequency_ghz`` are the actuator settings the
    period was *evaluated* with — the settings that produced
    ``case_temperature_c``.  The action's resulting settings appear in the
    following period's decision.

    In transient mode two diagnostics are populated (None in steady mode):
    ``settle_residual_c`` is the largest per-cell temperature change over
    the period's final substep (how far from equilibrium the period ended),
    and ``period_peak_case_c`` is the highest case temperature observed at
    any substep within the period — the transient field can overshoot the
    period-end value that the decision is based on.
    """

    time_s: float
    case_temperature_c: float
    die_hot_spot_c: float
    package_power_w: float
    water_flow_kg_h: float
    frequency_ghz: float
    action: ControllerAction
    settle_residual_c: float | None = None
    period_peak_case_c: float | None = None


@dataclass
class ControllerTrace:
    """Time series of controller decisions.

    ``mode`` records how the trace was produced ("steady" re-solves
    equilibrium each period; "transient" advances a warm-start temperature
    field).  ``factorizations`` counts the thermal-operator factorizations
    the trace cost (None when the simulation runs without a solver cache) —
    the headline difference between the modes.
    """

    decisions: list[ControllerDecision] = field(default_factory=list)
    mode: str = "steady"
    factorizations: int | None = None

    @property
    def emergencies(self) -> int:
        """Number of periods that ended in an unresolvable emergency."""
        return sum(1 for d in self.decisions if d.action is ControllerAction.EMERGENCY)

    @property
    def flow_increases(self) -> int:
        """Number of valve-opening actions."""
        return sum(1 for d in self.decisions if d.action is ControllerAction.INCREASE_FLOW)

    @property
    def frequency_reductions(self) -> int:
        """Number of DVFS down-steps."""
        return sum(1 for d in self.decisions if d.action is ControllerAction.LOWER_FREQUENCY)

    @property
    def peak_case_temperature_c(self) -> float:
        """Highest observed case temperature (period-end values)."""
        return max((d.case_temperature_c for d in self.decisions), default=float("nan"))

    @property
    def peak_period_case_temperature_c(self) -> float:
        """Highest case temperature including within-period transient peaks.

        Falls back to the period-end peak when transient diagnostics are
        absent (steady mode).
        """
        peaks = [
            d.period_peak_case_c for d in self.decisions if d.period_peak_case_c is not None
        ]
        if not peaks:
            return self.peak_case_temperature_c
        return max(peaks)

    def summary(self) -> str:
        """Human-readable digest of the trace."""
        lines = [
            f"controller trace ({self.mode} mode, {len(self.decisions)} periods)",
            f"  valve openings        : {self.flow_increases}",
            f"  frequency reductions  : {self.frequency_reductions}",
            f"  unresolved emergencies: {self.emergencies}",
            f"  peak case temperature : {self.peak_case_temperature_c:.1f} C",
        ]
        if self.mode == "transient":
            residuals = [
                d.settle_residual_c
                for d in self.decisions
                if d.settle_residual_c is not None
            ]
            lines.append(
                f"  peak within-period    : {self.peak_period_case_temperature_c:.1f} C"
            )
            if residuals:
                lines.append(
                    f"  final settle residual : {residuals[-1]:.4g} C/step"
                )
        if self.factorizations is not None:
            lines.append(f"  operator factorizations: {self.factorizations}")
        return "\n".join(lines)


@dataclass(frozen=True)
class RackServer:
    """One server of a rack trace: its workload, mapping and QoS contract.

    ``trace`` optionally gives the server its own phased activity trace;
    servers without one follow the shared trace passed to
    :meth:`ThermosyphonController.run_rack_trace`.
    """

    benchmark: BenchmarkCharacteristics
    mapping: WorkloadMapping
    constraint: QoSConstraint
    trace: PhasedTrace | None = None


#: The trace's int8 action codes: ``_ACTIONS[code]`` is the action.
_ACTIONS = tuple(ControllerAction)
_ACTION_CODE = {action: code for code, action in enumerate(_ACTIONS)}
_NONE_CODE = _ACTION_CODE[ControllerAction.NONE]


def _grown(column: np.ndarray, rows: int) -> np.ndarray:
    """``column`` with room for at least ``rows`` rows (capacity doubles)."""
    if rows <= column.shape[0]:
        return column
    grown = np.empty((max(rows, 2 * column.shape[0]),) + column.shape[1:], column.dtype)
    grown[: column.shape[0]] = column
    return grown


class RackPeriods(Sequence):
    """``RackTrace.periods``: one tuple of decisions per period, decoded on access."""

    __slots__ = ("_trace",)

    def __init__(self, trace: "RackTrace") -> None:
        self._trace = trace

    def __len__(self) -> int:
        return self._trace._n_periods

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self._trace._decode(t) for t in range(len(self))[index]]
        return self._trace._decode(range(len(self))[operator.index(index)])

    def __eq__(self, other) -> bool:
        if not isinstance(other, Sequence):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))


@dataclass(eq=False)
class RackTrace:
    """Time series of per-server controller decisions over a whole rack.

    ``periods[t][s]`` is server ``s``'s decision at control period ``t``.
    ``chiller_power_w`` carries the rack-wide chiller electrical power of
    each period (Eq. 1 summed over the servers at their evaluated water
    loops).  ``factorizations`` counts the thermal-operator factorizations
    the whole rack trace cost, and ``cache_stats`` carries this trace's
    hit/miss activity together with the cache's entry counts *at trace end*
    (entries may include operators from earlier studies on a shared
    simulator; both fields are None without a solver cache) — on a
    homogeneous rack the batched engine pays one factorization where
    per-server sessions would pay ``n_servers``.

    The decisions are stored as NumPy columns, not as objects.  The
    per-period fields — time, case temperature, within-period peak and an
    int8 action code — have one row per period.  The fields a coarse span
    holds — die hot spot, package power, flow, frequency and settle
    residual — have one *held row* per committed step (a fine period or a
    whole span), and every period points at its step's row, so committing
    a span writes two temperature slices, one action slice and one held
    row however long it is.  ``periods`` and :meth:`server_decisions`
    decode :class:`ControllerDecision` values on access; the aggregates
    read the columns directly.  Rack traces always carry the transient
    diagnostics (``settle_residual_c``, ``period_peak_case_c``) as floats.
    """

    chiller_power_w: list[float] = field(default_factory=list)
    control_period_s: float = 2.0
    mode: str = "transient"
    factorizations: int | None = None
    cache_stats: CacheStats | None = None

    def __post_init__(self) -> None:
        self._n_periods = 0
        self._n_held = 0
        # Per period; the per-server columns get their width at the first commit.
        self._time_s = np.empty(0)
        self._held = np.empty(0, dtype=np.int32)
        self._case_c = np.empty((0, 0))
        self._peak_c = np.empty((0, 0))
        self._action = np.empty((0, 0), dtype=np.int8)
        # Per held row: die hot spot, package power, flow, frequency, residual.
        self._held_fields = np.empty((0, 5, 0))

    def __eq__(self, other) -> bool:
        if not isinstance(other, RackTrace):
            return NotImplemented
        return (
            self.periods == other.periods
            and self.chiller_power_w == other.chiller_power_w
            and self.control_period_s == other.control_period_s
            and self.mode == other.mode
            and self.factorizations == other.factorizations
            and self.cache_stats == other.cache_stats
        )

    # ------------------------------------------------------------------ #
    # Commit path
    # ------------------------------------------------------------------ #
    def append(self, time_s: float, decisions: Sequence[ControllerDecision]) -> None:
        """Commit the per-server decisions of the control period at ``time_s``."""
        self.append_span((time_s,), decisions, None, None)

    def append_span(
        self,
        times_s: Sequence[float],
        decisions: Sequence[ControllerDecision],
        period_case_c: np.ndarray | None,
        period_peak_case_c: np.ndarray | None,
    ) -> None:
        """Commit a held span of ``len(times_s)`` control periods.

        ``decisions`` are the span's final-period decisions.  Every earlier
        period ``j`` holds their die hot spot, power, flow, frequency and
        settle residual with a ``NONE`` action, and takes its case
        temperature and within-period peak from row ``j`` of the
        ``(span, n_servers)`` arrays (``None`` for a one-period span).
        """
        span = len(times_s)
        start, end = self._n_periods, self._n_periods + span
        held = self._n_held
        if end > self._time_s.shape[0] or held >= self._held_fields.shape[0]:
            self._reserve(end, held + 1, len(decisions))
        final = np.array(
            [
                (
                    d.case_temperature_c,
                    d.period_peak_case_c,
                    d.die_hot_spot_c,
                    d.package_power_w,
                    d.water_flow_kg_h,
                    d.frequency_ghz,
                    d.settle_residual_c,
                )
                for d in decisions
            ],
            dtype=float,
        ).reshape(len(decisions), 7)
        self._time_s[start:end] = times_s
        self._held[start:end] = held
        if span > 1:
            self._case_c[start : end - 1] = period_case_c[:-1]
            self._peak_c[start : end - 1] = period_peak_case_c[:-1]
            self._action[start : end - 1] = _NONE_CODE
        self._case_c[end - 1] = final[:, 0]
        self._peak_c[end - 1] = final[:, 1]
        self._action[end - 1] = [_ACTION_CODE[d.action] for d in decisions]
        self._held_fields[held] = final[:, 2:].T
        self._n_periods = end
        self._n_held = held + 1

    def _reserve(self, periods: int, held_rows: int, n_servers: int) -> None:
        if self._n_periods == 0:
            self._case_c = np.empty((0, n_servers))
            self._peak_c = np.empty((0, n_servers))
            self._action = np.empty((0, n_servers), dtype=np.int8)
            self._held_fields = np.empty((0, 5, n_servers))
        self._time_s = _grown(self._time_s, periods)
        self._held = _grown(self._held, periods)
        self._case_c = _grown(self._case_c, periods)
        self._peak_c = _grown(self._peak_c, periods)
        self._action = _grown(self._action, periods)
        self._held_fields = _grown(self._held_fields, held_rows)

    def trim(self) -> None:
        """Release spare column capacity once the trace is complete."""
        n, k = self._n_periods, self._n_held
        self._time_s = self._time_s[:n].copy()
        self._held = self._held[:n].copy()
        self._case_c = self._case_c[:n].copy()
        self._peak_c = self._peak_c[:n].copy()
        self._action = self._action[:n].copy()
        self._held_fields = self._held_fields[:k].copy()

    # ------------------------------------------------------------------ #
    # Read path
    # ------------------------------------------------------------------ #
    def _decode(self, t: int) -> tuple[ControllerDecision, ...]:
        time_s = float(self._time_s[t])
        die, power, flow, frequency, residual = self._held_fields[self._held[t]].tolist()
        return tuple(
            ControllerDecision(time_s, *fields[:5], _ACTIONS[fields[5]], *fields[6:])
            for fields in zip(
                self._case_c[t].tolist(), die, power, flow, frequency,
                self._action[t].tolist(), residual, self._peak_c[t].tolist(),
            )
        )

    @property
    def periods(self) -> RackPeriods:
        """``periods[t][s]``: server ``s``'s decision at period ``t``."""
        return RackPeriods(self)

    @property
    def n_periods(self) -> int:
        """Number of executed control periods."""
        return self._n_periods

    @property
    def n_servers(self) -> int:
        """Number of servers in the rack (0 before the first period)."""
        return self._case_c.shape[1]

    def server_decisions(self, server: int) -> list[ControllerDecision]:
        """One server's decision series across the trace."""
        return [period[server] for period in self.periods]

    def violations(self, t_case_max_c: float) -> int:
        """(period, server) pairs whose within-period peak reached ``t_case_max_c``."""
        return int(np.count_nonzero(self._peak_c[: self._n_periods] >= t_case_max_c))

    def _count(self, action: ControllerAction) -> int:
        return int(
            np.count_nonzero(self._action[: self._n_periods] == _ACTION_CODE[action])
        )

    @property
    def emergencies(self) -> int:
        """Number of (period, server) pairs ending in an unresolved emergency."""
        return self._count(ControllerAction.EMERGENCY)

    @property
    def flow_increases(self) -> int:
        """Number of valve-opening actions across all servers."""
        return self._count(ControllerAction.INCREASE_FLOW)

    @property
    def frequency_reductions(self) -> int:
        """Number of DVFS down-steps across all servers."""
        return self._count(ControllerAction.LOWER_FREQUENCY)

    @property
    def peak_case_temperature_c(self) -> float:
        """Highest period-end case temperature across the rack and trace."""
        if not self._n_periods:
            return float("nan")
        return float(self._case_c[: self._n_periods].max())

    @property
    def peak_period_case_temperature_c(self) -> float:
        """Highest case temperature including within-period transient peaks."""
        if not self._n_periods:
            return float("nan")
        return float(self._peak_c[: self._n_periods].max())

    @property
    def mean_chiller_power_w(self) -> float:
        """Average rack-wide chiller power over the trace."""
        if not self.chiller_power_w:
            return float("nan")
        return sum(self.chiller_power_w) / len(self.chiller_power_w)

    @property
    def chiller_energy_j(self) -> float:
        """Rack-wide chiller energy over the whole trace."""
        return sum(self.chiller_power_w) * self.control_period_s

    def summary(self) -> str:
        """Human-readable digest of the rack trace."""
        lines = [
            f"rack trace ({self.n_servers} servers, {self.n_periods} periods, "
            f"{self.mode} mode)",
            f"  valve openings        : {self.flow_increases}",
            f"  frequency reductions  : {self.frequency_reductions}",
            f"  unresolved emergencies: {self.emergencies}",
            f"  peak case temperature : {self.peak_case_temperature_c:.1f} C",
            f"  peak within-period    : {self.peak_period_case_temperature_c:.1f} C",
            f"  mean chiller power    : {self.mean_chiller_power_w:.1f} W",
        ]
        if self.factorizations is not None:
            lines.append(f"  operator factorizations: {self.factorizations}")
        if self.cache_stats is not None:
            lines.append(
                f"  solver cache hit rate  : {self.cache_stats.hit_rate:.1%} "
                f"({self.cache_stats.hits} hits / {self.cache_stats.misses} misses)"
            )
        return "\n".join(lines)


def build_rack_loads(
    servers: Sequence[RackServer],
    traces: Sequence[PhasedTrace],
    current_mappings: list[WorkloadMapping],
    frequencies: list[float],
    water_loops: Sequence[WaterLoop],
    time_s: float,
    *,
    mapping_memo: dict | None = None,
) -> list[ServerLoad]:
    """Resolve one rack's :class:`ServerLoad` list for a control period.

    The load-building stage of a rack period: every rack's loads are
    assembled first, then the floor engine batches the physics of the
    whole floor in one pass.  ``current_mappings``
    is updated **in place** when a DVFS decision moved a server's frequency
    away from its mapping's.  ``mapping_memo`` optionally memoizes
    re-pinned mappings across servers and periods (keyed by the source
    mapping's identity and the target frequency) — identical servers then
    share one rebuilt mapping instead of recomputing it per server.
    """
    loads = []
    for index, server in enumerate(servers):
        if current_mappings[index].configuration.frequency_ghz != frequencies[index]:
            if mapping_memo is None:
                current_mappings[index] = mapping_at_frequency(
                    server.mapping, frequencies[index]
                )
            else:
                key = (id(server.mapping), frequencies[index])
                mapped = mapping_memo.get(key)
                if mapped is None:
                    mapped = mapping_at_frequency(server.mapping, frequencies[index])
                    mapping_memo[key] = mapped
                current_mappings[index] = mapped
        phase = traces[index].phase_at(time_s)
        loads.append(
            ServerLoad(
                benchmark=server.benchmark,
                mapping=current_mappings[index],
                activity_factor=phase.activity_factor,
                water_loop=water_loops[index],
            )
        )
    return loads


def apply_rack_decisions(
    advance,
    servers: Sequence[RackServer],
    frequencies: list[float],
    water_loops: list[WaterLoop],
    force_refresh: list[bool],
    time_s: float,
    policy,
    chiller: ChillerModel,
) -> tuple[tuple[ControllerDecision, ...], float]:
    """Apply the fast per-server rule to one rack's advanced physics.

    The decision stage of a rack period: walks a
    :class:`~repro.core.rack_session.RackAdvance`, charges the rack's
    chiller power and lets ``policy`` pick each server's next actuator
    settings.  ``frequencies``, ``water_loops`` and ``force_refresh`` are
    updated **in place**; returns the period's decisions and the rack
    chiller electrical power, both evaluated at the settings the period
    actually ran with.
    """
    decisions = []
    period_chiller_w = 0.0
    for index, server in enumerate(servers):
        step = advance.servers[index]
        result = step.result
        evaluated_flow_kg_h = water_loops[index].flow_rate_kg_h
        evaluated_frequency_ghz = frequencies[index]
        period_chiller_w += chiller.cooling_power_w(
            water_loops[index], result.package_power_w
        )
        action, water_loops[index], frequencies[index] = policy.decide(
            result, water_loops[index], server.benchmark, server.constraint
        )
        force_refresh[index] = action in ACTUATOR_ACTIONS
        decisions.append(
            ControllerDecision(
                time_s=time_s,
                case_temperature_c=result.case_temperature_c,
                die_hot_spot_c=result.die_metrics.theta_max_c,
                package_power_w=result.package_power_w,
                water_flow_kg_h=evaluated_flow_kg_h,
                frequency_ghz=evaluated_frequency_ghz,
                action=action,
                settle_residual_c=step.settle_residual_c,
                period_peak_case_c=step.period_peak_case_c,
            )
        )
    return tuple(decisions), period_chiller_w


class ThermosyphonController:
    """Flow-rate-first, DVFS-second thermal emergency controller.

    ``boundary_refresh_tol`` and ``adaptive_boundary_refresh`` plumb the
    transient lane's cooling-boundary refresh policy through the controller:
    when given, they are applied to the rack session every transient trace
    (single-server or rack) runs on; ``None`` keeps the rack session's
    default.
    """

    def __init__(
        self,
        simulation: CooledServerSimulation,
        *,
        t_case_max_c: float = T_CASE_MAX_C,
        flow_step_kg_h: float = 2.0,
        control_period_s: float = 2.0,
        relax_margin_c: float = 8.0,
        raise_on_unresolved: bool = False,
        boundary_refresh_tol: float | None = None,
        adaptive_boundary_refresh: bool | None = None,
    ) -> None:
        self.simulation = simulation
        self.t_case_max_c = t_case_max_c
        self.flow_step_kg_h = check_positive(flow_step_kg_h, "flow_step_kg_h")
        self.control_period_s = check_positive(control_period_s, "control_period_s")
        #: When the case temperature falls this far below the limit the
        #: controller closes the valve again to save pumping/chiller effort.
        self.relax_margin_c = relax_margin_c
        self.raise_on_unresolved = raise_on_unresolved
        self.boundary_refresh_tol = (
            check_non_negative(boundary_refresh_tol, "boundary_refresh_tol")
            if boundary_refresh_tol is not None
            else None
        )
        self.adaptive_boundary_refresh = adaptive_boundary_refresh

    def _apply_refresh_policy(self, session) -> None:
        """Push the controller's refresh overrides onto a session."""
        if self.boundary_refresh_tol is not None:
            session.boundary_refresh_tol = self.boundary_refresh_tol
        if self.adaptive_boundary_refresh is not None:
            session.adaptive_boundary_refresh = self.adaptive_boundary_refresh

    # ------------------------------------------------------------------ #
    # Single-period decision
    # ------------------------------------------------------------------ #
    @property
    def policy(self) -> DecisionPolicy:
        """The controller's current decision rule as a standalone value.

        The QoS check is bound back to ``self._qos_allows_frequency``, so a
        subclass overriding it steers single-server and rack traces alike.
        """
        return DecisionPolicy(
            t_case_max_c=self.t_case_max_c,
            flow_step_kg_h=self.flow_step_kg_h,
            relax_margin_c=self.relax_margin_c,
            raise_on_unresolved=self.raise_on_unresolved,
            qos_filter=self._qos_allows_frequency,
        )

    def _qos_allows_frequency(
        self,
        benchmark: BenchmarkCharacteristics,
        configuration: Configuration,
        constraint: QoSConstraint,
        frequency_ghz: float,
    ) -> bool:
        return qos_allows_frequency(
            benchmark, configuration, constraint, frequency_ghz
        )

    def decide(
        self,
        result: EvaluationResult,
        water_loop: WaterLoop,
        benchmark: BenchmarkCharacteristics,
        constraint: QoSConstraint,
    ) -> tuple[ControllerAction, WaterLoop, float]:
        """Pick the next action given the latest thermal evaluation.

        Returns the action, the water loop for the next period and the core
        frequency for the next period.  Delegates to :class:`DecisionPolicy`
        with the controller's current parameters.
        """
        return self.policy.decide(result, water_loop, benchmark, constraint)

    # ------------------------------------------------------------------ #
    # Trace execution
    # ------------------------------------------------------------------ #
    def run_trace(
        self,
        benchmark: BenchmarkCharacteristics,
        mapping: WorkloadMapping,
        constraint: QoSConstraint,
        trace: PhasedTrace,
        *,
        initial_water_loop: WaterLoop | None = None,
        mode: str = "steady",
        transient_substeps: int = 4,
    ) -> ControllerTrace:
        """Run the controller over a phased workload trace.

        ``mode="steady"`` re-solves equilibrium each period (the original
        quasi-static study); ``mode="transient"`` runs the trace as a
        one-server :meth:`run_rack_trace` with ``transient_substeps``
        backward-Euler substeps per control period and populates the
        transient diagnostics on every decision.  The decision rule itself
        is identical in both modes.
        """
        if mode not in ("steady", "transient"):
            raise ConfigurationError(
                f"mode must be 'steady' or 'transient', got {mode!r}"
            )
        if mode == "transient":
            rack = self.run_rack_trace(
                [RackServer(benchmark, mapping, constraint)],
                trace,
                initial_water_loop=initial_water_loop,
                transient_substeps=transient_substeps,
            )
            return ControllerTrace(
                decisions=rack.server_decisions(0),
                mode="transient",
                factorizations=rack.factorizations,
            )
        session = self.simulation.session
        mapper = ThreadMapper(
            self.simulation.floorplan, orientation=self.simulation.design.orientation
        )
        water_loop = (
            initial_water_loop
            if initial_water_loop is not None
            else self.simulation.design.water_loop()
        )
        frequency = mapping.configuration.frequency_ghz
        record = ControllerTrace(mode=mode)
        cache = self.simulation.thermal_simulator.solver_cache
        misses_before = cache.stats.misses if cache is not None else None

        current_mapping = mapping_at_frequency(mapping, frequency)
        time_s = 0.0
        while time_s < trace.duration_s:
            phase = trace.phase_at(time_s)
            if current_mapping.configuration.frequency_ghz != frequency:
                # Only rebuild configuration/mapping when DVFS actually acted.
                current_mapping = mapping_at_frequency(mapping, frequency)
            result = session.solve_steady_mapping(
                benchmark,
                current_mapping,
                mapper=mapper,
                water_loop=water_loop,
                activity_factor=phase.activity_factor,
            )
            # Capture the actuator settings this period actually ran with
            # before decide() computes the next period's settings.
            evaluated_flow_kg_h = water_loop.flow_rate_kg_h
            evaluated_frequency_ghz = frequency
            action, water_loop, frequency = self.decide(
                result, water_loop, benchmark, constraint
            )
            record.decisions.append(
                ControllerDecision(
                    time_s=time_s,
                    case_temperature_c=result.case_temperature_c,
                    die_hot_spot_c=result.die_metrics.theta_max_c,
                    package_power_w=result.package_power_w,
                    water_flow_kg_h=evaluated_flow_kg_h,
                    frequency_ghz=evaluated_frequency_ghz,
                    action=action,
                )
            )
            time_s += self.control_period_s
        if misses_before is not None and cache is not None:
            record.factorizations = cache.stats.misses - misses_before
        return record

    # ------------------------------------------------------------------ #
    # Rack trace execution
    # ------------------------------------------------------------------ #
    def run_rack_trace(
        self,
        servers: Sequence[RackServer],
        trace: PhasedTrace | None = None,
        *,
        initial_water_loop: WaterLoop | None = None,
        transient_substeps: int = 4,
        chiller: ChillerModel | None = None,
    ) -> RackTrace:
        """Run the controller over a whole rack of servers at once.

        Every server follows the decision rule of :meth:`run_trace` in
        transient mode — flow first, DVFS second, per-server valve and
        frequency state — but the thermal work of each control period goes
        through one :meth:`~repro.datacenter.floor.FloorEngine.advance` of
        a one-rack floor: servers holding the same cooling boundary advance
        through a single cached operator per substep, so a homogeneous rack
        trace costs roughly ``n_servers`` times fewer factorizations than
        independent per-server traces.

        ``trace`` is the shared activity trace; servers carrying their own
        :attr:`RackServer.trace` follow it instead (the rack runs until the
        longest trace ends, shorter traces idling on their final phase).
        Every call starts cold on a fresh rack session built on the
        simulation's floorplan, power model and thermal simulator, so the
        factorization cache is shared with any steady studies on the same
        simulation.  :meth:`run_trace` in transient mode is this method on
        a one-server rack.
        """
        # Imported here: the datacenter layer builds on this module.
        from repro.datacenter.floor import FloorEngine

        servers = list(servers)
        if not servers:
            raise ConfigurationError("a rack trace needs at least one server")
        traces = [server.trace if server.trace is not None else trace for server in servers]
        if any(t is None for t in traces):
            raise ConfigurationError(
                "every server needs a trace: pass a shared trace or give each "
                "RackServer its own"
            )
        rack_session = RackSession(
            len(servers),
            floorplan=self.simulation.floorplan,
            design=self.simulation.design,
            power_model=self.simulation.power_model,
            thermal_simulator=self.simulation.thermal_simulator,
        )
        self._apply_refresh_policy(rack_session)
        engine = FloorEngine([rack_session])
        chiller = chiller if chiller is not None else ChillerModel()

        default_loop = (
            initial_water_loop
            if initial_water_loop is not None
            else self.simulation.design.water_loop()
        )
        water_loops = [default_loop] * len(servers)
        frequencies = [server.mapping.configuration.frequency_ghz for server in servers]
        current_mappings = [
            mapping_at_frequency(server.mapping, frequencies[index])
            for index, server in enumerate(servers)
        ]
        force_refresh = [False] * len(servers)

        record = RackTrace(control_period_s=self.control_period_s)
        cache = rack_session.thermal_simulator.solver_cache
        stats_before = cache.stats if cache is not None else None

        duration_s = max(t.duration_s for t in traces)
        time_s = 0.0
        while time_s < duration_s:
            loads = build_rack_loads(
                servers, traces, current_mappings, frequencies, water_loops, time_s
            )
            advance = engine.advance(
                [loads],
                self.control_period_s,
                n_substeps=transient_substeps,
                force_boundary_refresh=[force_refresh],
            )
            # The controller itself is the policy argument, so a subclass
            # overriding decide() steers rack traces exactly like run_trace.
            decisions, period_chiller_w = apply_rack_decisions(
                advance.racks[0],
                servers,
                frequencies,
                water_loops,
                force_refresh,
                time_s,
                self,
                chiller,
            )
            record.append(time_s, decisions)
            record.chiller_power_w.append(period_chiller_w)
            time_s += self.control_period_s
        record.trim()
        if stats_before is not None and cache is not None:
            record.cache_stats = cache.stats.delta(stats_before)
            record.factorizations = record.cache_stats.misses
        return record
