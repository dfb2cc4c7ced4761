"""The four canonical floor workloads, built only through the public API.

Every workload runs the scenario envelopes of ``build_scenario`` on the
default Xeon E5 v4 floorplan with ``PAPER_OPTIMIZED_DESIGN``, a 2 s control
period and 4 backward-Euler substeps; the scenario seed comes from the
benchmark's command line.  Each one stresses a different layer, and each
bypasses the layers another one stresses (see ``why``).
"""

from __future__ import annotations

import os
import shutil
import tempfile
from dataclasses import dataclass, replace

from repro.datacenter import (
    DatacenterModel,
    MpcSupervisoryController,
    SupervisoryController,
    build_scenario,
)
from repro.datacenter.model import CoarseningConfig
from repro.floorplan.xeon_e5_v4 import build_xeon_e5_v4_floorplan
from repro.thermal.warm_store import WarmStore
from repro.thermosyphon.chiller import ChillerBank, ChillerPlant
from repro.thermosyphon.design import PAPER_OPTIMIZED_DESIGN

CONTROL_PERIOD_S = 2.0
SUBSTEPS = 4
#: Nameplate thermal load per server that sizes the staged chiller bank.
BANK_W_PER_SERVER = 120.0
BANK_UNITS = 3

#: The user's warm store would silently attach to every model built here.
WARM_STORE_ENV = "REPRO_WARM_STORE"


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: a floor, a control stack and a trace length."""

    name: str
    why: str
    scenario: str
    control: str  # "fixed" | "reactive" | "mpc"
    plant: str  # "free_cooling" | "bank" | "default"
    cell_size_mm: float
    duration_s: float
    n_racks: int = 2
    servers_per_rack: int = 4
    coarse: bool = False
    phase_dt_s: float | None = None
    envelope_period_s: float | None = None
    #: Spreader size of rack 1's second SKU (its own hardware group).
    second_sku_spreader_mm: float | None = None
    warm_store: bool = False

    @property
    def n_servers(self) -> int:
        return self.n_racks * self.servers_per_rack

    def describe(self, seed: int) -> dict:
        """Floor size, grid and seed — what a headline must state."""
        return {
            "workload": self.name,
            "seed": seed,
            "scenario": self.scenario,
            "racks": self.n_racks,
            "servers_per_rack": self.servers_per_rack,
            "servers": self.n_servers,
            "cell_size_mm": self.cell_size_mm,
            "duration_s": self.duration_s,
            "control": self.control,
            "plant": self.plant,
            "coarse": self.coarse,
            "hardware_groups": 2 if self.second_sku_spreader_mm else 1,
            "warm_store": self.warm_store,
        }


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="fine_flash",
            why=(
                "fine lane, flash-crowd load steps: every period is a full stacked "
                "solve with boundary refreshes, factorizations and fast valve/DVFS "
                "decisions; ROM, MPC, threads, store bypassed"
            ),
            scenario="flash_crowd",
            control="reactive",
            plant="free_cooling",
            cell_size_mm=4.0,
            duration_s=400.0,
            # Eight racks of one draw eight independent bursts per seed: the
            # cost per server-period then varies a few percent between seeds,
            # against about 25% with 2 or 4 racks of the same 8 servers.
            n_racks=8,
            servers_per_rack=1,
        ),
        Workload(
            name="coarse_day",
            why=(
                "coarsened ROM lane over the first 3 h of a 12 h diurnal envelope "
                "at a fixed setpoint: ROM march and trace materialization dominate; "
                "the ROADMAP baseline cell"
            ),
            scenario="diurnal",
            control="fixed",
            plant="default",
            cell_size_mm=4.0,
            # A quarter of the 12 h envelope keeps one repetition near 2 s, so
            # the calibration kernel timed around it tracks the host's speed.
            duration_s=10_800.0,
            coarse=True,
            phase_dt_s=1800.0,
            envelope_period_s=43_200.0,
        ),
        Workload(
            name="mpc_bank",
            why=(
                "MPC over a staged 3-unit chiller bank: the only workload where "
                "snapshot/restore rollouts, candidate-setpoint factorizations and "
                "bank staging cost anything"
            ),
            # Not "mixed": its per-rack choice of envelope kind made the work
            # of one seed up to 1.7x that of another.
            scenario="rolling_batch",
            control="mpc",
            plant="bank",
            cell_size_mm=4.0,
            # 40 periods, 10 receding-horizon plans: about 4 s a repetition.
            duration_s=80.0,
        ),
        Workload(
            name="year_2sku_warm",
            why=(
                "2-SKU coarsened floor at a 2 mm grid on the group thread pool, "
                "replayed from a warm store filled in set-up: the only workload "
                "exercising threads and the store"
            ),
            scenario="diurnal",
            control="fixed",
            plant="default",
            cell_size_mm=2.0,
            duration_s=3_600.0,
            coarse=True,
            phase_dt_s=1800.0,
            envelope_period_s=43_200.0,
            second_sku_spreader_mm=44.0,
            warm_store=True,
        ),
    )
}


def worker_threads() -> int:
    """Group-pool size for multi-SKU floors: 2, never more than the CPUs."""
    return 2 if (os.cpu_count() or 1) >= 2 else 0


def scrub_environment() -> None:
    """Drop settings that would change what a workload runs."""
    os.environ.pop(WARM_STORE_ENV, None)


@dataclass
class Prepared:
    """A workload ready to run: model, session, controller, set-up leftovers."""

    workload: Workload
    model: DatacenterModel
    session: object
    supervisory: SupervisoryController | None
    #: Outputs of the cold run that filled the warm store (warm workloads).
    fill_trace: object | None = None
    store_dir: str | None = None

    def run(self):
        return self.session.run(supervisory=self.supervisory)

    def close(self) -> None:
        self.session.close()
        if self.store_dir is not None:
            shutil.rmtree(self.store_dir, ignore_errors=True)
            self.store_dir = None


def _racks(workload: Workload, seed: int):
    floorplan = build_xeon_e5_v4_floorplan()
    scenario = build_scenario(
        workload.scenario,
        n_racks=workload.n_racks,
        servers_per_rack=workload.servers_per_rack,
        duration_s=workload.duration_s,
        seed=seed,
        phase_dt_s=workload.phase_dt_s,
        envelope_period_s=workload.envelope_period_s,
        floorplan=floorplan,
        design=PAPER_OPTIMIZED_DESIGN,
    )
    racks = scenario.racks
    if workload.second_sku_spreader_mm is not None:
        # Same die on a larger spreader: a distinct thermal network, hence a
        # second hardware group.  The thread mappings depend on the die only.
        second = build_xeon_e5_v4_floorplan(
            spreader_size_mm=workload.second_sku_spreader_mm
        )
        racks = (racks[0], *(replace(rack, floorplan=second) for rack in racks[1:]))
    return floorplan, racks


def _model(workload: Workload, floorplan, racks, store) -> DatacenterModel:
    if workload.plant == "free_cooling":
        plant = ChillerPlant(free_cooling_outdoor_c=18.0)
    elif workload.plant == "bank":
        plant = ChillerBank.uniform(
            BANK_UNITS, BANK_W_PER_SERVER * workload.n_servers / BANK_UNITS
        )
    else:
        plant = ChillerPlant()
    return DatacenterModel(
        racks,
        plant=plant,
        floorplan=floorplan,
        design=PAPER_OPTIMIZED_DESIGN,
        cell_size_mm=workload.cell_size_mm,
        control_period_s=CONTROL_PERIOD_S,
        transient_substeps=SUBSTEPS,
        coarsening=CoarseningConfig() if workload.coarse else None,
        parallel_groups=worker_threads() if workload.second_sku_spreader_mm else 0,
        warm_store=store,
    )


def _supervisory(workload: Workload) -> SupervisoryController | None:
    if workload.control == "reactive":
        return SupervisoryController(period_s=8.0, setpoint_max_c=40.0)
    if workload.control == "mpc":
        return MpcSupervisoryController(period_s=8.0, setpoint_max_c=40.0, horizon=4)
    return None


def prepare(workload: Workload, seed: int, *, scratch_dir: str) -> Prepared:
    """Build floorplans, scenario, model and session (the timed set-up).

    A warm workload also fills a fresh store under ``scratch_dir`` with one
    cold run of the same floor; the store is removed by :meth:`Prepared.close`.
    """
    scrub_environment()
    floorplan, racks = _racks(workload, seed)
    fill_trace = None
    store_dir = None
    store = None
    if workload.warm_store:
        store_dir = tempfile.mkdtemp(prefix="store-", dir=scratch_dir)
        try:
            store = WarmStore(store_dir)
            filler = _model(workload, floorplan, racks, store).session()
            try:
                fill_trace = filler.run(supervisory=_supervisory(workload))
            finally:
                filler.close()
        except BaseException:
            shutil.rmtree(store_dir, ignore_errors=True)
            raise
    model = _model(workload, floorplan, racks, store)
    return Prepared(
        workload=workload,
        model=model,
        session=model.session(),
        supervisory=_supervisory(workload),
        fill_trace=fill_trace,
        store_dir=store_dir,
    )
