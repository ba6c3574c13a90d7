"""Tests of the benchmark's own checks and layer attribution.

Run from the repository root::

    python3 -m pytest perfbench/test_perfbench.py
"""

from __future__ import annotations

import sys
from pathlib import Path
from types import SimpleNamespace

from checks import Outcome, check, conservation_errors, digest
from layers import ROOT, LayerTracer, layer_of_callable, layer_summary

SRC = Path(__file__).resolve().parent.parent / "src"


def _record(start: float, end: float, failed: bool = False):
    return SimpleNamespace(start=start, end=end, operation="OPEN",
                           application="CAD", client_dc="DNA",
                           failed=failed, retries=0, abandoned=False,
                           response_time=end - start)


def _agent(completions: int = 3):
    return SimpleNamespace(arrivals=completions, completions=completions,
                           drops=0, busy_time=1.5, queue_length=0,
                           queue_hwm=1, retries=0, timeouts=0, shed=0)


def _outcome(launched: int, in_flight: int = 1) -> Outcome:
    return Outcome(records=[_record(0.0, 1.0), _record(0.5, 2.0, True)],
                   telemetry={"cpu": _agent()}, launched=launched,
                   in_flight=in_flight)


def test_conservation_holds_for_a_consistent_count():
    assert conservation_errors(4, 2, 1, 1) == []
    assert check(_outcome(launched=3)) == []


def test_conservation_flags_a_broken_count():
    # one operation launched but neither recorded nor in flight
    errors = check(_outcome(launched=4))
    assert len(errors) == 1 and errors[0].startswith("conservation")
    assert conservation_errors(3, 2, 1, 1)


def test_failed_condition_is_reported():
    outcome = _outcome(launched=3)
    outcome.conditions["servers crashed"] = False
    assert check(outcome) == ["condition failed: servers crashed"]


def test_digest_sees_a_one_ulp_change():
    a, b = _outcome(launched=3), _outcome(launched=3)
    assert digest(a) == digest(b)
    b.records[0].end = 1.0000000000000002
    assert digest(a) != digest(b)


class FakeClock:
    """A clock that moves only when the toy code says it works."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def work(self, seconds: float) -> None:
        self.now += seconds


def test_self_time_of_a_toy_nested_call():
    clock = FakeClock()
    tracer = LayerTracer(clock=clock)

    def leaf():
        clock.work(2.0)

    traced_leaf = tracer.wrap("queueing", "Queue.leaf", leaf)

    def same_layer_helper():
        clock.work(0.5)
        traced_leaf()

    traced_helper = tracer.wrap("hardware", "Disk.helper", same_layer_helper)

    def middle():
        clock.work(1.0)
        traced_helper()  # hardware -> hardware: no new span
        clock.work(3.0)

    traced_middle = tracer.wrap("hardware", "Disk.middle", middle)

    def outer():
        clock.work(4.0)
        traced_middle()
        clock.work(0.25)

    tracer.wrap("core", "Simulator.run", outer)()
    assert tracer.self_s == {"queueing": 2.0, "hardware": 4.5,
                             "core": 4.25}
    edges = tracer.edges()
    assert edges[(ROOT, "core", "Simulator.run")] == (1, 10.75)
    assert edges[("core", "hardware", "Disk.middle")] == (1, 6.5)
    assert edges[("hardware", "queueing", "Queue.leaf")] == (1, 2.0)
    assert ("hardware", "hardware", "Disk.helper") not in edges
    summary = layer_summary(tracer.snapshot())
    assert summary["hardware.calls"] == 1
    assert summary["core.self_s"] == 4.25


def test_callbacks_count_to_the_layer_that_defined_them():
    clock = FakeClock()
    tracer = LayerTracer(clock=clock)

    def continuation(now):
        clock.work(1.5)

    continuation.__module__ = "repro.software.cascade"
    assert layer_of_callable(continuation) == "software"

    def benchmark_callback(now):
        clock.work(0.5)

    assert layer_of_callable(benchmark_callback) == "workload"

    def schedule(fns):
        clock.work(1.0)
        for fn in fns:
            fn(0.0)

    # the list hides the callables from argument wrapping; wrap them as
    # a boundary would
    traced = tracer.wrap("core", "Simulator.fire", schedule)
    traced([tracer.callback(continuation, "core"),
            tracer.callback(benchmark_callback, "core")])
    assert tracer.self_s == {"core": 1.0, "software": 1.5, "workload": 0.5}
    # a wrapped callable crossing another boundary keeps its one span
    wrapped = tracer.callback(continuation, "core")
    assert tracer.callback(wrapped, "hardware") is wrapped


def test_tracer_leaves_results_unchanged_and_uninstalls():
    sys.path.insert(0, str(SRC))
    try:
        from repro.core.engine import Simulator

        from workloads import FleetVector, Phases

        class Tiny(FleetVector):
            regions = 3
            sim_seconds = 4.0

        plain = Tiny().execute(5, Phases(), profile=False)
        original_run = Simulator.__dict__["run"]
        tracer = LayerTracer()
        tracer.install()
        try:
            traced = Tiny().execute(5, Phases(), profile=True)
        finally:
            tracer.uninstall()
        assert Simulator.__dict__["run"] is original_run
        assert digest(traced) == digest(plain)
        summary = layer_summary(tracer.snapshot())
        assert summary["queueing.calls"] > 0
        assert summary["hardware.self_s"] > 0.0
        assert summary["software.self_s"] == 0.0  # no cascades
    finally:
        sys.path.remove(str(SRC))


def test_study_seeds_of_two_runs_never_overlap():
    from run import SUB_SEEDS, study_seed

    owner = {}
    for seed in range(-5, 50):
        for k in range(SUB_SEEDS):
            assert owner.setdefault(study_seed(seed, k), seed) == seed


def test_times_are_rescaled_to_the_reference_clock():
    from run import REF_S, Op, end_to_end

    ops = []
    for ref in (REF_S, 2 * REF_S, REF_S / 2):
        op = Op(seed=1, traced=False)
        op.wall = {"build": 0.5 * ref / REF_S, "prepare": 0.5 * ref / REF_S,
                   "run": 4.0 * ref / REF_S}
        op.cpu = {"run": 3.0 * ref / REF_S}
        op.refs = (ref, ref)  # a host half or twice as fast
        ops.append(op)
    metrics = end_to_end(SimpleNamespace(sim_seconds=8.0), ops)
    assert metrics["setup_s"]["value"] == 1.0
    assert metrics["run_s"]["value"] == 4.0
    assert metrics["cpu_s"]["value"] == 3.0
    assert metrics["sim_s_per_s"]["value"] == 2.0
    host = end_to_end(SimpleNamespace(sim_seconds=8.0), ops, scaled=False)
    assert host["run_s"]["value"] == 4.0  # the median of 2, 4 and 8
