"""A windowed run is bit-exact against one uninterrupted run.

``Simulator.run_windowed`` stops at every window end only to let a
sharded coordinator swap envelopes; the run-end sweep (sync every
active agent, retire the idle ones) runs once, at the horizon.  So the
per-agent telemetry — time-integrated floats such as ``busy_time``
included — must equal an uninterrupted ``run`` with ``==``, under both
queueing kernels.
"""

from __future__ import annotations

import math

import pytest

from repro.studies.fleet import fleet_scenario

UNTIL_S = 5.0
WINDOW_S = 0.08


def _session(kernel: str, **kw):
    return fleet_scenario(2, seed=3).prepare(kernel=kernel, **kw)


@pytest.mark.parametrize("kernel", ["scalar", "vector"])
def test_windowed_telemetry_equals_uninterrupted(kernel):
    whole = _session(kernel)
    whole.sim.run(UNTIL_S)
    windowed = _session(kernel)
    windows = windowed.sim.run_windowed(UNTIL_S, WINDOW_S)
    assert windows == math.ceil(UNTIL_S / WINDOW_S)
    assert windowed.sim.now == whole.sim.now == UNTIL_S
    a = whole.result(UNTIL_S).telemetry()
    b = windowed.result(UNTIL_S).telemetry()
    assert a.keys() == b.keys() and len(a) > 0
    assert sorted(name for name in a if a[name] != b[name]) == []


def test_windowed_run_counts_as_one_engine_run():
    session = _session("scalar", metrics="on", profile=True)
    session.sim.run_windowed(UNTIL_S, WINDOW_S)
    met = session.sim.metrics
    assert met.counter("engine_runs_total").value == 1
    assert met.gauge("engine_run_sim_seconds").value == UNTIL_S
    wall = met.gauge("engine_run_wall_seconds").value
    assert 0.0 < session.sim.profiler.wall_seconds <= wall
