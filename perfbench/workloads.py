"""The benchmark's workloads: one simulated study each, via the public API.

Every workload builds its scenario from the run's seed, prepares a
session and runs it, marking the phases on a :class:`Phases` clock so
set-up and run are timed apart.  ``README.md`` in this directory says
why each workload was chosen and which layer it is meant to stress.
"""

from __future__ import annotations

import multiprocessing
import random
import resource
import time
from contextlib import ExitStack
from typing import Callable, Dict, Optional

import repro.api
from repro.api import ParallelOptions, Scenario, SimulationSession
from repro.parallel.partition import partition_topology
from repro.software.application import Application
from repro.software.cascade import CascadeRunner
from repro.software.placement import SingleMasterPlacement
from repro.software.workload import HOUR, WorkloadCurve
from repro.studies.consolidation import (
    MASTER,
    consolidated_applications,
    consolidated_topology,
)
from repro.studies.degraded import DegradedStudy
from repro.studies.fleet import fleet_scenario

from checks import Outcome


def _cpu_s() -> float:
    """CPU seconds of this process plus its joined children."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


class Phases:
    """Wall and CPU seconds of the consecutive phases of one study.

    ``start(name)`` closes the current phase and opens the next; CPU
    seconds include worker processes once they have been joined.
    ``on_mark(old, new)`` runs between the two clock reads, so work it
    does (such as a tracer snapshot) is charged to neither phase.
    """

    def __init__(self, on_mark: Optional[Callable[[Optional[str],
                                                   Optional[str]],
                                                  None]] = None) -> None:
        self.wall: Dict[str, float] = {}
        self.cpu: Dict[str, float] = {}
        self.on_mark = on_mark
        self._name: Optional[str] = None
        self._t = 0.0
        self._c = 0.0

    def start(self, name: Optional[str]) -> None:
        now, cpu = time.perf_counter(), _cpu_s()
        old = self._name
        if old is not None:
            self.wall[old] = self.wall.get(old, 0.0) + now - self._t
            self.cpu[old] = self.cpu.get(old, 0.0) + cpu - self._c
        if self.on_mark is not None:
            self.on_mark(old, name)
        self._name = name
        self._t, self._c = time.perf_counter(), _cpu_s()

    def stop(self) -> None:
        self.start(None)


def _patch(stack: ExitStack, owner: type, attr: str, make: Callable) -> None:
    """Replace ``owner.attr`` by ``make(original)`` until ``stack`` closes."""
    original = owner.__dict__[attr]
    setattr(owner, attr, make(original))
    stack.callback(setattr, owner, attr, original)


def _count_launches(stack: ExitStack) -> Callable[[], int]:
    """Count ``CascadeRunner.launch`` calls: operations launched."""
    count = [0]

    def make(launch):
        def counted(*args, **kw):
            count[0] += 1
            return launch(*args, **kw)
        return counted

    _patch(stack, CascadeRunner, "launch", make)
    return lambda: count[0]


class SeededPulls:
    """The fleet's replication pulls, with demands drawn from the seed.

    The same chain of legs as ``repro.studies.fleet.fleet_setup`` -- a
    20-60 Gbit NIC pull, 0.02 s of CPU, 64 MB held, a 10-50 MB SAN write
    and a 0.1-0.4 s gap -- but each server's stream is seeded from the
    benchmark seed and the server's global index, so the seed reaches
    the inputs and a sharded session draws what the full run draws.
    A class rather than a closure, so the scenario pickles.
    """

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def __call__(self, session) -> None:
        sim = session.sim
        servers = [
            (dc_name, server)
            for dc_name, dc in session.scenario.topology.datacenters.items()
            for tier in dc.tiers.values()
            for server in tier.servers
        ]
        for i, (dc_name, server) in enumerate(servers):
            if session.owns(dc_name):
                self._chain(sim, server,
                            random.Random(self.seed * 1_000_003 + i))

    @staticmethod
    def _chain(sim, server, r: random.Random) -> None:
        def leg(now: float) -> None:
            server.process_leg(
                now,
                cycles=0.02 * server.cpu.frequency_hz,
                net_bits=r.uniform(20.0, 60.0) * 1e9,
                mem_bytes=64e6,
                disk_bytes=r.uniform(10.0, 50.0) * 1e6,
                on_complete=lambda t: sim.schedule(
                    t + r.uniform(0.1, 0.4), leg),
            )

        sim.schedule(r.uniform(0.0, 2.0), leg)


def _fleet(regions: int, seed: int) -> Scenario:
    scenario = fleet_scenario(regions, seed=seed)
    scenario.setup = SeededPulls(seed)
    return scenario


class Workload:
    """Shape of a workload; subclasses implement :meth:`execute`."""

    name = ""
    kernel = "scalar"
    mode = "event"
    workers = 1
    #: Simulated seconds one study covers.
    sim_seconds = 0.0

    def context(self) -> Dict[str, object]:
        return {"kernel": self.kernel, "mode": self.mode,
                "horizon_s": self.sim_seconds, "workers": self.workers}

    def execute(self, seed: int, phases: Phases, profile: bool) -> Outcome:
        raise NotImplementedError


class Ch6Peak(Workload):
    """The ch. 6 consolidated 6-DC platform at its 15:00 GMT peak."""

    name = "ch6-peak"
    sim_seconds = 10.0
    peak_hour = 15.0

    def execute(self, seed: int, phases: Phases, profile: bool) -> Outcome:
        with ExitStack() as stack:
            launches = _count_launches(stack)
            phases.start("build")
            topo = consolidated_topology(seed)
            apps = [
                Application(
                    app.name, app.operations, app.mix,
                    {dc: WorkloadCurve([curve.at(self.peak_hour * HOUR)] * 24)
                     for dc, curve in app.workloads.items()},
                    ops_per_client_hour=app.ops_per_client_hour)
                for app in consolidated_applications(topo)
            ]
            scenario = Scenario(
                name=self.name, topology=topo, applications=apps,
                placement=SingleMasterPlacement(MASTER, local_fs=True),
                seed=seed)
            phases.start("prepare")
            session = scenario.prepare(kernel=self.kernel, mode=self.mode,
                                       profile=profile)
            phases.start("run")
            result = session.run(self.sim_seconds)
            phases.stop()
            launched = launches()
        return Outcome(
            records=result.records,
            telemetry=result.telemetry(),
            launched=launched,
            in_flight=session.runner.active_operations,
            profile=result.profile,
            conditions={
                "generator and runner count the same launches":
                    sum(w.launched for w in session.workloads) == launched,
            },
        )


class FleetVector(Workload):
    """The consolidation fleet, vector kernel, replication pulls only, in
    one process.  Not a benchmark workload of its own: it is the model
    ``fleet-sharded`` splits, and the tests run it small."""

    name = "fleet-vector"
    kernel = "vector"
    regions = 256
    sim_seconds = 10.0

    def execute(self, seed: int, phases: Phases, profile: bool) -> Outcome:
        phases.start("build")
        scenario = _fleet(self.regions, seed)
        phases.start("prepare")
        session = scenario.prepare(kernel=self.kernel, mode=self.mode,
                                   profile=profile)
        phases.start("run")
        result = session.run(self.sim_seconds, workloads=False)
        phases.stop()
        telemetry = result.telemetry()
        return Outcome(
            records=result.records,
            telemetry=telemetry,
            profile=result.profile,
            conditions={
                "every agent reports telemetry": len(telemetry) == len(
                    scenario.topology.all_agents()),
                "no cascades launched": not result.records,
            },
        )


class FleetSharded(FleetVector):
    """The same fleet on the sharded backend: two worker processes."""

    name = "fleet-sharded"
    workers = 2

    def execute(self, seed: int, phases: Phases, profile: bool) -> Outcome:
        phases.start("build")
        scenario = _fleet(self.regions, seed)
        phases.start("prepare")
        plan = partition_topology(scenario.topology, self.workers, "region")
        phases.start("run")
        result = repro.api.simulate(
            scenario, until=self.sim_seconds, kernel=self.kernel,
            mode=self.mode, workloads=False, profile=profile,
            parallel=ParallelOptions(workers=self.workers, cut="region"))
        phases.stop()
        for child in multiprocessing.active_children():  # none expected
            child.join()
        report = result.parallel
        telemetry = result.telemetry()
        return Outcome(
            records=result.records,
            telemetry=telemetry,
            parallel=report,
            profile=result.profile,
            conditions={
                "ran on the planned shards": report.shards == plan.shards
                and report.workers == self.workers,
                "every agent reports telemetry": len(telemetry) == len(
                    scenario.topology.all_agents()),
                "every window committed": report.windows_run == round(
                    self.sim_seconds / report.window),
            },
        )


class Drill(Workload):
    """A ``DegradedStudy`` cell: crashes, repairs, resilience on."""

    name = "drill"
    rate = 4.0
    arrival_horizon = 600.0
    mtbf_s = 150.0

    @property
    def sim_seconds(self) -> float:
        return self.arrival_horizon + DegradedStudy.drain_s

    def execute(self, seed: int, phases: Phases, profile: bool) -> Outcome:
        study = DegradedStudy(rate=self.rate, horizon=self.arrival_horizon,
                              seed=seed)
        captured = {}

        def on_prepare(prepare):
            def marked(*args, **kw):
                phases.start("prepare")
                return prepare(*args, **kw)
            return marked

        def on_run(run):
            def marked(*args, **kw):
                phases.start("run")
                result = run(*args, **kw)
                phases.stop()
                captured["result"] = result
                return result
            return marked

        with ExitStack() as stack:
            launches = _count_launches(stack)
            _patch(stack, Scenario, "prepare", on_prepare)
            _patch(stack, SimulationSession, "run", on_run)
            phases.start("build")
            cell = study.run_cell(self.mtbf_s, resilient=True, mode=self.mode,
                                  profile=profile)
            launched = launches()
        result = captured["result"]
        return Outcome(
            records=result.records,
            telemetry=result.telemetry(),
            launched=launched,
            in_flight=cell.stuck,
            crashes=cell.server_failures,
            resilience=dict(cell.resilience),
            profile=cell.profile,
            conditions={
                "servers crashed": cell.server_failures > 0,
                "study and records agree": cell.operations == len(
                    result.records),
            },
        )


WORKLOADS: Dict[str, Workload] = {
    w.name: w for w in (Ch6Peak(), Drill(), FleetSharded())
}
