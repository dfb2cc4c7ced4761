"""Per-layer metrics: what the traced run wraps, reports, and predicts.

``LAYER_METRICS`` is the rationale table later changes cite by name: for every
per-layer metric, the end-to-end metric it should move and the workloads it
should move it on.  A metric predicted to stay at zero elsewhere lists those
workloads in ``zero_on``.  ``install`` wraps the engine's public entry points
(class methods, and module attributes where the engine looks them up);
``layer_metrics`` turns one traced run into the metric values.
"""

from __future__ import annotations

from dataclasses import dataclass

import repro.datacenter.floor as floor
import repro.datacenter.model as model
import repro.datacenter.mpc as mpc
from repro.core.rack_session import RackSession
from repro.datacenter.floor import FloorEngine
from repro.datacenter.model import DatacenterSession
from repro.datacenter.span import SpanPlanner
from repro.datacenter.supervisory import MpcSupervisoryController
from repro.power.power_model import ServerPowerModel
from repro.thermal.network import ThermalNetwork
from repro.thermal.rom import ReducedOperator
from repro.thermal.simulator import ThermalSimulator
from repro.thermal.solver_cache import FactorizationCache
from repro.thermal.warm_store import WarmStore
from repro.thermosyphon.chiller import ChillerBank
from repro.thermosyphon.loop import ThermosyphonLoop

from floorbench.tracer import LayerTracer, Summary

FINE = ("fine_flash", "mpc_bank")
COARSE = ("coarse_day", "year_2sku_warm")
ALL = ("fine_flash", "coarse_day", "mpc_bank", "year_2sku_warm")


def _others(*names: str) -> tuple[str, ...]:
    return tuple(w for w in ALL if w not in names)


@dataclass(frozen=True)
class LayerMetric:
    name: str
    unit: str
    better: str
    layer: str
    moves: tuple[str, ...]
    on: tuple[str, ...]
    zero_on: tuple[str, ...] = ()
    doc: str = ""


_THROUGHPUT = ("server_periods_per_s",)

LAYER_METRICS: tuple[LayerMetric, ...] = (
    # datacenter.model
    LayerMetric("session.span_self_s", "s", "lower", "datacenter.model",
                ("server_periods_per_s", "peak_rss_mb"), COARSE, FINE,
                "self time of DatacenterSession.advance_span (decision replication)"),
    LayerMetric("session.run_self_s", "s", "lower", "datacenter.model",
                ("server_periods_per_s", "peak_rss_mb"), COARSE, (),
                "self time of DatacenterSession.run (trace extends; unattributed row)"),
    LayerMetric("session.decide_s", "s", "lower", "datacenter.model", _THROUGHPUT, FINE, (),
                "time in apply_rack_decisions"),
    LayerMetric("session.loads_s", "s", "lower", "datacenter.model", _THROUGHPUT, FINE, (),
                "time in build_rack_loads"),
    LayerMetric("session.periods_per_call", "ratio", "higher", "datacenter.model",
                _THROUGHPUT, ("coarse_day",), (),
                "committed periods per committed advance_period/advance_span call; 1 on the fine lane"),
    # datacenter.floor
    LayerMetric("floor.advance_self_s", "s", "lower", "datacenter.floor", _THROUGHPUT,
                ("fine_flash",), (), "self time of FloorEngine.advance"),
    LayerMetric("floor.span_self_s", "s", "lower", "datacenter.floor", _THROUGHPUT, COARSE, FINE,
                "self time of FloorEngine.advance_span, including the private reduced march"),
    LayerMetric("floor.overlap", "ratio", "higher", "datacenter.floor", _THROUGHPUT,
                ("year_2sku_warm",), _others("year_2sku_warm"),
                "worker-thread time in group tasks over wall time of the enclosing FloorEngine calls"),
    # datacenter.span
    LayerMetric("span.plan_s", "s", "lower", "datacenter.span", _THROUGHPUT, ("coarse_day",), FINE,
                "time in SpanPlanner.plan"),
    # datacenter.mpc and datacenter.supervisory
    LayerMetric("mpc.plans", "count", "lower", "datacenter.supervisory", _THROUGHPUT,
                ("mpc_bank",), _others("mpc_bank"), "calls of MpcSupervisoryController.plan"),
    LayerMetric("mpc.plan_s", "s", "lower", "datacenter.supervisory", _THROUGHPUT,
                ("mpc_bank",), _others("mpc_bank"), "time in MpcSupervisoryController.plan"),
    LayerMetric("mpc.rollouts", "count", "lower", "datacenter.mpc", _THROUGHPUT,
                ("mpc_bank",), _others("mpc_bank"), "calls of rollout_trajectory"),
    LayerMetric("mpc.rollout_s", "s", "lower", "datacenter.mpc", _THROUGHPUT,
                ("mpc_bank",), _others("mpc_bank"), "time in rollout_trajectory"),
    LayerMetric("mpc.snapshot_restore_s", "s", "lower", "datacenter.mpc", _THROUGHPUT,
                ("mpc_bank",), _others("mpc_bank"),
                "time in DatacenterSession.snapshot and restore"),
    # thermal.solver_cache and thermal.network
    LayerMetric("cache.factorizations", "count", "lower", "thermal.solver_cache", _THROUGHPUT,
                ("mpc_bank", "fine_flash"), (), "cache misses of the run (trace.cache_stats)"),
    LayerMetric("cache.hit_ratio", "ratio", "higher", "thermal.solver_cache", _THROUGHPUT,
                ("mpc_bank", "fine_flash"), (), "operator lookups served from the cache"),
    LayerMetric("cache.operator_s", "s", "lower", "thermal.solver_cache", _THROUGHPUT,
                ("mpc_bank", "fine_flash"), (),
                "time in FactorizationCache.transient_operator and steady_operator"),
    LayerMetric("network.assembly_s", "s", "lower", "thermal.network", _THROUGHPUT,
                ("mpc_bank", "fine_flash"), (), "time in ThermalNetwork.conductance_system"),
    # thermal.simulator
    LayerMetric("thermal.steps", "count", "lower", "thermal.simulator", _THROUGHPUT, FINE, (),
                "calls of transient_step_many_from_maps"),
    LayerMetric("thermal.step_s", "s", "lower", "thermal.simulator", _THROUGHPUT, FINE, (),
                "time in transient_step_many_from_maps"),
    LayerMetric("thermal.rows_per_step", "rows", "higher", "thermal.simulator", _THROUGHPUT,
                FINE, (), "mean stacked rows per transient_step_many_from_maps call"),
    LayerMetric("thermal.steady_s", "s", "lower", "thermal.simulator", _THROUGHPUT, FINE, (),
                "time in steady_state_many_from_maps"),
    # thermal.rom
    LayerMetric("rom.builds", "count", "lower", "thermal.rom", _THROUGHPUT, COARSE, FINE,
                "calls of build_reduced_operator"),
    LayerMetric("rom.build_s", "s", "lower", "thermal.rom", _THROUGHPUT, COARSE, FINE,
                "time in build_reduced_operator"),
    LayerMetric("rom.bound_s", "s", "lower", "thermal.rom", _THROUGHPUT, COARSE, FINE,
                "time in ReducedOperator.step_error_bound"),
    LayerMetric("rom.lift_s", "s", "lower", "thermal.rom", _THROUGHPUT, COARSE, FINE,
                "time in ReducedOperator.project and lift"),
    LayerMetric("rom.fallback_ratio", "ratio", "lower", "thermal.rom", _THROUGHPUT, COARSE, FINE,
                "fallback rows over ROM-attempted rows (trace.rom_stats)"),
    LayerMetric("rom.fallback_step_s", "s", "lower", "thermal.rom", _THROUGHPUT, COARSE, FINE,
                "time in transient steps whose parent is FloorEngine.advance_span"),
    # thermal.warm_store
    LayerMetric("store.load_s", "s", "lower", "thermal.warm_store",
                ("server_periods_per_s", "setup_s"), ("year_2sku_warm",),
                _others("year_2sku_warm"), "time in WarmStore.load_reduced and load_system"),
    LayerMetric("store.write_s", "s", "lower", "thermal.warm_store",
                ("server_periods_per_s", "setup_s"), ("year_2sku_warm",),
                _others("year_2sku_warm"), "time in WarmStore.store_reduced and store_system"),
    LayerMetric("store.hit_ratio", "ratio", "higher", "thermal.warm_store",
                ("server_periods_per_s", "setup_s"), ("year_2sku_warm",),
                _others("year_2sku_warm"), "store lookups served from disk during the run"),
    # thermosyphon.loop
    LayerMetric("loop.converges", "count", "lower", "thermosyphon.loop", _THROUGHPUT, FINE, (),
                "calls of ThermosyphonLoop.operating_point"),
    LayerMetric("loop.converge_s", "s", "lower", "thermosyphon.loop", _THROUGHPUT, FINE, (),
                "time in ThermosyphonLoop.operating_point"),
    LayerMetric("loop.marches", "count", "lower", "thermosyphon.loop", _THROUGHPUT, FINE, (),
                "calls of ThermosyphonLoop.cooling_boundaries"),
    LayerMetric("loop.march_s", "s", "lower", "thermosyphon.loop", _THROUGHPUT, FINE, (),
                "time in ThermosyphonLoop.cooling_boundaries"),
    # thermosyphon.chiller
    LayerMetric("chiller.stages", "count", "lower", "thermosyphon.chiller", _THROUGHPUT,
                ("mpc_bank",), _others("mpc_bank"), "calls of ChillerBank.stage"),
    LayerMetric("chiller.stage_s", "s", "lower", "thermosyphon.chiller", _THROUGHPUT,
                ("mpc_bank",), _others("mpc_bank"), "time in ChillerBank.stage"),
    # core.rack_session and power.power_model
    LayerMetric("rack.finish_s", "s", "lower", "core.rack_session", _THROUGHPUT,
                ("fine_flash",), (), "time in RackSession.finish_advance"),
    LayerMetric("power.evaluate_s", "s", "lower", "power.power_model", _THROUGHPUT,
                ("fine_flash",), (), "time in ServerPowerModel.evaluate"),
    # tracer health
    LayerMetric("trace.coverage", "ratio", "higher", "benchmark", (), ALL, (),
                "summed self times over traced session.run wall time plus pool parallel excess"),
    LayerMetric("trace.overhead", "ratio", "lower", "benchmark", (), ALL, (),
                "traced over untraced session.run time"),
)


def _rows(args, kwargs) -> int:
    temperatures = kwargs.get("temperatures", args[1] if len(args) > 1 else None)
    return int(temperatures.shape[0])


def install(tracer: LayerTracer) -> None:
    """Wrap every entry point the layer metrics read."""
    for cls, attrs in (
        (DatacenterSession, ("run", "advance_period", "advance_span", "snapshot", "restore")),
        (FloorEngine, ("advance", "advance_span")),
        (SpanPlanner, ("plan",)),
        (MpcSupervisoryController, ("plan",)),
        (FactorizationCache, ("transient_operator", "steady_operator")),
        (ThermalNetwork, ("conductance_system",)),
        (ThermalSimulator, ("steady_state_many_from_maps",)),
        (ReducedOperator, ("step_error_bound", "project", "lift")),
        (WarmStore, ("load_reduced", "load_system", "store_reduced", "store_system")),
        (ThermosyphonLoop, ("operating_point", "cooling_boundaries")),
        (ChillerBank, ("stage",)),
        (RackSession, ("finish_advance",)),
        (ServerPowerModel, ("evaluate",)),
    ):
        for attr in attrs:
            tracer.wrap(cls, attr)
    tracer.wrap(ThermalSimulator, "transient_step_many_from_maps", weigh=_rows)
    # Module attributes where the engine looks them up, not where defined.
    tracer.wrap(model, "apply_rack_decisions")
    tracer.wrap(model, "build_rack_loads")
    tracer.wrap(mpc, "rollout_trajectory")
    tracer.wrap(floor, "build_reduced_operator")
    tracer.adopt_pool(floor)


def predicted_zero_problems(workload: str, values: dict[str, float]) -> list[str]:
    """Metrics the table predicts to be zero on ``workload`` that are not."""
    return [
        f"{metric.name} is {values[metric.name]!r} where predicted zero"
        for metric in LAYER_METRICS
        if workload in metric.zero_on and values[metric.name] != 0
    ]


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(summary: Summary, trace, store_delta, wall_s: float) -> dict[str, float]:
    """Every per-layer metric except ``trace.overhead`` for one traced run.

    ``store_delta`` is ``(hits, misses)`` of the run's warm-store lookups, or
    None without a store; ``wall_s`` is the traced ``session.run`` wall time
    measured outside the tracer.  Coverage adds the pool's parallel excess to
    the wall time: on a threaded floor the threads' self times sum to more
    than the wall time by exactly that much.
    """
    s = summary
    step = "ThermalSimulator.transient_step_many_from_maps"
    floor_calls = ("FloorEngine.advance", "FloorEngine.advance_span")
    run = "DatacenterSession.run"
    committed_calls = s.calls(
        ("DatacenterSession.advance_period", "DatacenterSession.advance_span"), parent=run
    )
    cache = trace.cache_stats
    rom = trace.rom_stats
    rom_rows = (rom.rom_rows + rom.fallback_rows) if rom is not None else 0
    hits, misses = store_delta if store_delta is not None else (0, 0)
    return {
        "session.span_self_s": s.self_s("DatacenterSession.advance_span"),
        "session.run_self_s": s.self_s(run),
        "session.decide_s": s.total_s("apply_rack_decisions"),
        "session.loads_s": s.total_s("build_rack_loads"),
        "session.periods_per_call": _ratio(trace.n_periods, committed_calls),
        "floor.advance_self_s": s.self_s("FloorEngine.advance"),
        "floor.span_self_s": s.self_s("FloorEngine.advance_span"),
        "floor.overlap": _ratio(s.task_s, s.total_s(floor_calls)),
        "span.plan_s": s.total_s("SpanPlanner.plan"),
        "mpc.plans": s.calls("MpcSupervisoryController.plan"),
        "mpc.plan_s": s.total_s("MpcSupervisoryController.plan"),
        "mpc.rollouts": s.calls("rollout_trajectory"),
        "mpc.rollout_s": s.total_s("rollout_trajectory"),
        "mpc.snapshot_restore_s": s.total_s(
            ("DatacenterSession.snapshot", "DatacenterSession.restore")
        ),
        "cache.factorizations": cache.misses if cache is not None else 0,
        "cache.hit_ratio": cache.hit_rate if cache is not None else 0.0,
        "cache.operator_s": s.total_s(
            ("FactorizationCache.transient_operator", "FactorizationCache.steady_operator")
        ),
        "network.assembly_s": s.total_s("ThermalNetwork.conductance_system"),
        "thermal.steps": s.calls(step),
        "thermal.step_s": s.total_s(step),
        "thermal.rows_per_step": _ratio(s.units(step), s.calls(step)),
        "thermal.steady_s": s.total_s("ThermalSimulator.steady_state_many_from_maps"),
        "rom.builds": s.calls("build_reduced_operator"),
        "rom.build_s": s.total_s("build_reduced_operator"),
        "rom.bound_s": s.total_s("ReducedOperator.step_error_bound"),
        "rom.lift_s": s.total_s(("ReducedOperator.project", "ReducedOperator.lift")),
        "rom.fallback_ratio": _ratio(rom.fallback_rows, rom_rows) if rom_rows else 0.0,
        "rom.fallback_step_s": s.total_s(step, parent="FloorEngine.advance_span"),
        "store.load_s": s.total_s(("WarmStore.load_reduced", "WarmStore.load_system")),
        "store.write_s": s.total_s(("WarmStore.store_reduced", "WarmStore.store_system")),
        "store.hit_ratio": _ratio(hits, hits + misses),
        "loop.converges": s.calls("ThermosyphonLoop.operating_point"),
        "loop.converge_s": s.total_s("ThermosyphonLoop.operating_point"),
        "loop.marches": s.calls("ThermosyphonLoop.cooling_boundaries"),
        "loop.march_s": s.total_s("ThermosyphonLoop.cooling_boundaries"),
        "chiller.stages": s.calls("ChillerBank.stage"),
        "chiller.stage_s": s.total_s("ChillerBank.stage"),
        "rack.finish_s": s.total_s("RackSession.finish_advance"),
        "power.evaluate_s": s.total_s("ServerPowerModel.evaluate"),
        "trace.coverage": _ratio(s.all_self_s(), wall_s + s.parallel_excess_s),
    }
