"""The sharded backend's worker start-up contract.

A forked worker inherits the coordinator's heap.  It freezes that heap
before doing anything else, so its own collections never walk the
inherited objects, and the coordinator imports the vector kernel before
forking, so the workers do not import it again.  The coordinator's own
garbage-collector state is left exactly as the caller set it.
"""

from __future__ import annotations

import functools
import gc
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.api import ParallelOptions, simulate
from repro.studies.fleet import fleet_scenario, fleet_setup
from repro.verification.parity import check_sharded

SRC = Path(__file__).resolve().parents[2] / "src"


def _record_freeze_count(out_dir: str, session) -> None:
    """Setup hook: note this process's frozen-object count, then load."""
    label = "-".join(session.shard)
    Path(out_dir, f"{label}.freeze").write_text(str(gc.get_freeze_count()))
    fleet_setup(session)


def _vector_sharded_run(setup=None):
    scenario = fleet_scenario(2)
    if setup is not None:
        scenario = type(scenario)(**{**scenario.__dict__, "setup": setup})
    return simulate(scenario, until=2.0, kernel="vector",
                    parallel=ParallelOptions(workers=2))


def test_coordinator_gc_state_is_untouched():
    frozen, enabled = gc.get_freeze_count(), gc.isenabled()
    result = _vector_sharded_run()
    assert result.parallel.workers == 2
    assert (gc.get_freeze_count(), gc.isenabled()) == (frozen, enabled)
    # a caller's frozen objects stay frozen (perfbench freezes its own);
    # the count may only shrink as frozen objects are freed
    gc.freeze()
    try:
        _vector_sharded_run()
        assert gc.get_freeze_count() > 0
    finally:
        gc.unfreeze()


def test_workers_freeze_the_inherited_heap(tmp_path):
    _vector_sharded_run(
        functools.partial(_record_freeze_count, str(tmp_path)))
    counts = {p.stem: int(p.read_text()) for p in tmp_path.glob("*.freeze")}
    assert len(counts) == 2, counts
    assert all(n > 0 for n in counts.values()), counts


def test_coordinator_imports_the_vector_kernel():
    """Run in a fresh interpreter: this process may hold it already."""
    probe = textwrap.dedent("""
        import sys
        from repro.api import ParallelOptions, simulate
        from repro.studies.fleet import fleet_scenario

        before = "repro.queueing.soa" in sys.modules
        simulate(fleet_scenario(2), until=1.0, kernel="vector",
                 parallel=ParallelOptions(workers=2))
        print(before, "repro.queueing.soa" in sys.modules)
    """)
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = subprocess.run([sys.executable, "-c", probe], env=env,
                         capture_output=True, text=True, timeout=120,
                         check=True)
    assert out.stdout.split() == ["False", "True"]


@pytest.mark.slow
def test_vector_sharded_parity_holds():
    result = check_sharded(n_regions=2, until=5.0, workers=2,
                           kernel="vector")
    assert result.identical, result.mismatches
