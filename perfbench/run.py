"""Host cost per simulated study: the repository's benchmark.

Usage (from the repository root)::

    python3 perfbench/run.py --workload ch6-peak --seed 1 --seconds 30 --trace 0

One operation is one simulated study: build the scenario from a study
seed, prepare the session (set-up), run it to the horizon (run) and check
its outputs.  Every timed study draws a fresh study seed derived from
``--seed``, so a run's medians stand for many inputs rather than one.
Studies repeat until ``--seconds`` is spent (at least ``MIN_TIMED``) and
each metric is the median over them.

A run starts with a warm-up study of study seed 0, which fills caches
and lazy imports; it is checked but not timed.

``--trace 0`` reports the end-to-end metrics, measured without tracing.
``--trace 1`` times a few untraced studies, then runs traced ones of
study seed 0 and reports the per-layer split (see ``layers.py``).
Times are rescaled to a reference clock (see ``reference_s``).  The last
line of standard output is the result object; the line before it holds
the run's context, model outputs and the host seconds as measured.
See ``README.md`` for the metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path
from typing import Any, Dict, List, Optional

#: When this process started, before the program was imported.
T_START = time.perf_counter()

from checks import check, model_outputs  # noqa: E402
from layers import LayerTracer, layer_summary, merge_tables  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
OUT_DIR = BENCH_DIR / "out"

#: Study seeds per run: study ``k`` uses ``study_seed(seed, k)``.  More
#: than a run holds studies, so every timed study draws fresh inputs.
SUB_SEEDS = 1000
#: Timed studies per run, at least, whatever ``--seconds`` says.
MIN_TIMED = 6
#: In a traced run, the share of ``--seconds`` given to untraced studies.
UNTRACED_SHARE = 0.4
#: Seconds the reference loop takes at the reference clock: a round figure
#: near its readings (16 to 22 ms) on a 2-vCPU Xeon VM at 2.0 GHz nominal,
#: CPython 3.11.  Every time the result reports is rescaled to this clock.
REF_S = 0.020
#: The reference loop's working set: this many two-item lists, some 15 MB,
#: more than the CPU caches hold, as the program's is.
REF_LISTS = 1 << 17
#: Lists the reference loop visits per pass, in a fixed scattered order.
REF_STEPS = 20_000


def _median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def _resident_kb() -> int:
    """Resident kB of this process now (Linux; else 0)."""
    try:
        with open("/proc/self/statm") as f:
            pages = int(f.read().split()[1])
    except OSError:
        return 0
    return pages * os.sysconf("SC_PAGE_SIZE") // 1024


class _Reference:
    """The reference loop's working set, built once per process."""

    lists: List[List[int]] = []
    #: Resident kB the working set added; ``rss_mb`` leaves it out.
    rss_kb = 0


def build_reference() -> None:
    """Build the working set, before the program is imported so that it
    lands in fresh memory.  It is frozen out of the garbage collector,
    so collections in the program do not walk it."""
    if _Reference.lists:
        return
    before = _resident_kb()
    gc.disable()
    try:
        _Reference.lists = [[i, i] for i in range(REF_LISTS)]
    finally:
        gc.enable()
    gc.freeze()
    _Reference.rss_kb = max(0, _resident_kb() - before)


def _reference_loop(lists: List[List[int]]) -> int:
    """Interpreter work that chases pointers, as the program does: read and
    write ``REF_STEPS`` of ``lists`` in an order that jumps across them (a
    full-period LCG over the power-of-two length)."""
    acc, i, mask = 0, 1, len(lists) - 1
    for _ in range(REF_STEPS):
        i = (i * 1_103_515_245 + 12_345) & mask
        cell = lists[i]
        acc += cell[0]
        cell[1] = acc & 0xFFFF
    return acc


def reference_s(reps: int = 3) -> float:
    """Seconds the reference loop takes on the host right now.

    The host's speed moves by a third, within seconds or over minutes
    (a shared machine's clock and caches are shared), and the program's
    times move with it.  Each study is timed between two reference
    readings, and its times are reported as ``REF_S / reference`` times
    what was measured: seconds at the reference clock.  A change to the
    program moves them; a change of host speed largely cancels.

    A loop over a large working set tracks the program better than one
    over a small one: in ten minutes of repeated ``ch6-peak`` studies,
    30-second medians spread (quartile distance over median) 12 % as
    measured, 7 % rescaled by a dict-and-arithmetic loop and 5 % rescaled
    by this one.
    """
    build_reference()
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        _reference_loop(_Reference.lists)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def study_seed(seed: int, k: int) -> int:
    """The ``k``-th study seed of run seed ``seed``; runs never share one."""
    return seed * SUB_SEEDS + k % SUB_SEEDS


class Op:
    """One simulated study: its timings, model outputs and verdict."""

    def __init__(self, seed: int, traced: bool) -> None:
        self.seed = seed
        self.traced = traced
        #: Warm-up studies are checked but not timed.
        self.timed = True
        self.errors: List[str] = []
        self.wall: Dict[str, float] = {}
        self.cpu: Dict[str, float] = {}
        self.model: Dict[str, Any] = {}
        self.layers: Dict[str, float] = {}
        self.table: Optional[Dict[str, Any]] = None
        self.elapsed = 0.0
        #: Reference readings just before and just after the study.
        self.refs = (REF_S, REF_S)

    @property
    def ok(self) -> bool:
        return not self.errors

    @property
    def run_s(self) -> float:
        return self.wall.get("run", 0.0)

    @property
    def ref_s(self) -> float:
        return (self.refs[0] + self.refs[1]) / 2

    @property
    def scale(self) -> float:
        """Factor from host seconds to seconds at the reference clock."""
        return REF_S / self.ref_s


def run_op(workload, seed: int, tracer=None,
           ref_before: Optional[float] = None) -> Op:
    """Execute, time and check one study; failures are recorded.
    ``ref_before`` is a reference reading taken just before, if any."""
    from workloads import Phases  # imports the program

    op = Op(seed, traced=tracer is not None)
    marks: Dict[str, Any] = {}

    def on_mark(old: Optional[str], new: Optional[str]) -> None:
        if tracer is not None and "run" in (old, new):
            marks["after" if old == "run" else "before"] = tracer.snapshot()

    t0 = time.perf_counter()
    if ref_before is None:
        ref_before = reference_s()
    gc.collect()
    phases = Phases(on_mark=on_mark)
    outcome = None
    try:
        outcome = workload.execute(seed, phases, profile=op.traced)
        op.errors = check(outcome)
        op.model = model_outputs(outcome)
    except Exception:  # a study that raises is a failed operation
        op.errors = ["raised: " + traceback.format_exc()]
    op.wall, op.cpu = phases.wall, phases.cpu
    if op.ok and tracer is not None:
        coordinator = LayerTracer.delta(marks["after"], marks["before"])
        workers = tracer.collect_children()
        op.table = merge_tables([coordinator] + workers)
        op.layers = _layer_metrics(op, outcome, coordinator)
    # the outcome (records, telemetry) is not kept: memory held across
    # studies would show in rss_mb
    del outcome
    op.refs = (ref_before, reference_s())
    op.elapsed = time.perf_counter() - t0
    return op


def _layer_metrics(op: Op, outcome, coordinator) -> Dict[str, float]:
    """The per-layer metrics of one traced study."""
    out = layer_summary(op.table)
    model = op.model
    prof = outcome.profile
    out["core.boundaries"] = prof.ticks if prof is not None else 0
    out["core.agent_wakes"] = prof.agent_ticks if prof is not None else 0
    launches = outcome.launched or 0
    out["software.launches"] = launches
    out["software.completed"] = model["completed"]
    out["software.us_per_op"] = (
        1e6 * out["software.self_s"] / launches if launches else 0.0)
    out["resilience.retries"] = model["retries"]
    out["resilience.timeouts"] = model["timeouts"]
    attempts = model["completed"] + model["failed"] + model["retries"]
    out["resilience.useful_ratio"] = (
        model["completed"] / attempts if attempts else 0.0)
    out["reliability.crashes"] = model["crashes"]
    report = outcome.parallel
    phases = report.shard_phases if report is not None else ()
    for phase in ("window_advance", "barrier_wait", "envelope_exchange"):
        out[f"parallel.{phase}_s"] = sum(p.get(phase, 0.0) for p in phases)
    waits = [p.get("barrier_wait", 0.0) for p in phases]
    out["parallel.skew_s"] = max(waits) - min(waits) if waits else 0.0
    out["parallel.windows"] = report.windows_run if report is not None else 0
    out["parallel.envelopes"] = report.envelopes if report is not None else 0
    attributed = sum(coordinator["self_s"].values())
    out["trace.unattributed_s"] = max(0.0, op.run_s - attributed)
    return out


class Bench:
    """The run loop: warm-up, timed studies, traced studies."""

    def __init__(self, workload, seed: int, seconds: float) -> None:
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.ops: List[Op] = []
        #: The last reference reading, shared by consecutive studies.
        self.ref: Optional[float] = None

    def _study(self, k: int, tracer=None) -> Op:
        op = run_op(self.workload, study_seed(self.seed, k), tracer,
                    self.ref)
        self.ref = op.refs[1]
        self.ops.append(op)
        return op

    def _loop(self, until: float, minimum: int, tracer=None) -> List[Op]:
        """Studies until ``until`` seconds after the process started.
        The first untraced one repeats the warm-up's study seed 0, so
        every run checks that a seed gives one digest; the others each
        draw a fresh study seed.  Traced ones all use study seed 0, so
        their counts repeat exactly."""
        done: List[Op] = []
        while True:
            if len(done) >= minimum:
                typical = _median([op.elapsed for op in done])
                if time.perf_counter() - T_START + typical > until:
                    break
            k = 0 if tracer else len(self.ops) - 1
            done.append(self._study(k, tracer))
        return done

    def run(self, trace: bool) -> List[Op]:
        """Runs the studies; returns every one, the warm-up first."""
        self._study(0).timed = False
        if not trace:
            self._loop(self.seconds, MIN_TIMED)
            return self.ops
        self._loop(self.seconds * UNTRACED_SHARE, 2)
        tracer = LayerTracer(shard_dir=OUT_DIR / f"workers-{os.getpid()}")
        tracer.install()
        try:
            self._loop(self.seconds, 1, tracer)
        finally:
            tracer.uninstall()
            shutil.rmtree(tracer.shard_dir, ignore_errors=True)
        return self.ops


def check_digests(ops: List[Op]) -> Dict[int, str]:
    """Fail every study whose digest differs from the first study of its
    study seed; returns the first digest of each study seed."""
    references: Dict[int, str] = {}
    for op in ops:
        if op.ok:
            digest = op.model["digest"]
            reference = references.setdefault(op.seed, digest)
            if digest != reference:
                op.errors.append(f"digest {digest} differs from the first "
                                 f"study's {reference}")
    return references


def end_to_end(workload, ops: List[Op],
               scaled: bool = True) -> Dict[str, Dict[str, Any]]:
    """Medians over the timed studies, in seconds at the reference clock
    (``scaled=False``: in host seconds)."""
    ok = [op for op in ops if op.ok and op.timed and not op.traced]
    scale = [op.scale if scaled else 1.0 for op in ok]
    run_s = [op.run_s * f for op, f in zip(ok, scale)]
    self_ru = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_ru = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    rss_kb = max(self_ru, child_ru) - _Reference.rss_kb
    return {
        "setup_s": {"value": _median(
            [(op.wall["build"] + op.wall["prepare"]) * f
             for op, f in zip(ok, scale)]),
            "unit": "s"},
        "run_s": {"value": _median(run_s), "unit": "s"},
        "cpu_s": {"value": _median([op.cpu["run"] * f
                                    for op, f in zip(ok, scale)]),
                  "unit": "s"},
        "sim_s_per_s": {"value": _median(
            [workload.sim_seconds / r for r in run_s if r > 0]),
            "unit": "s/s"},
        "rss_mb": {"value": rss_kb / 1024.0, "unit": "MB"},
    }


#: Units of the per-layer metrics; every other name is in seconds.
_LAYER_UNITS = {
    "calls": "count", "boundaries": "count", "agent_wakes": "count",
    "events": "count", "launches": "count", "completed": "count",
    "retries": "count", "timeouts": "count", "crashes": "count",
    "windows": "count", "envelopes": "count", "us_per_op": "us",
    "useful_ratio": "ratio", "overhead_x": "x",
}


def _unit(name: str) -> str:
    return _LAYER_UNITS.get(name.split(".", 1)[1], "s")


def per_layer(ops: List[Op], first_seed: int) -> Dict[str, Dict[str, Any]]:
    """Medians over the traced studies; times at the reference clock."""
    ok = [op for op in ops if op.ok and op.timed]
    untraced = [op for op in ok if not op.traced]
    traced = [op for op in ok if op.traced]

    def scaled(op: Op, name: str) -> float:
        value = op.layers[name]
        return value * op.scale if _unit(name) in ("s", "us") else value

    values: Dict[str, float] = {}
    for name in (traced[0].layers if traced else {}):
        values[name] = _median([scaled(op, name) for op in traced])
    values["api.build_s"] = _median(
        [op.wall["build"] * op.scale for op in untraced])
    values["api.prepare_s"] = _median(
        [op.wall["prepare"] * op.scale for op in untraced])
    # traced studies all use the first study seed: compare like with like
    base = _median([op.run_s * op.scale for op in untraced
                    if op.seed == first_seed])
    values["trace.overhead_x"] = (
        _median([op.run_s * op.scale for op in traced]) / base
        if base else 0.0)
    return {name: {"value": value, "unit": _unit(name)}
            for name, value in sorted(values.items())}


def context(workload, seed: int, trace: bool) -> Dict[str, Any]:
    import numpy

    ctx = {"workload": workload.name, "seed": seed, "trace": int(trace),
           "first_study_seed": study_seed(seed, 0)}
    ctx.update(workload.context())
    ctx.update({
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    })
    return ctx


def _write_trace(workload, seed: int, ops: List[Op]) -> Optional[str]:
    """Keep the span table of the last traced study under ``out/``."""
    traced = [op for op in ops if op.ok and op.traced]
    if not traced:
        return None
    table = traced[-1].table
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"trace-{workload.name}-seed{seed}.json"
    path.write_text(json.dumps({
        "self_s": table["self_s"],
        "events": table["events"],
        "edges": sorted(
            ([caller, callee, name, calls, incl]
             for (caller, callee, name), (calls, incl)
             in table["edges"].items()),
            key=lambda row: -row[4]),
    }, indent=1))
    return str(path.relative_to(BENCH_DIR.parent))


def parse_args(argv: Optional[List[str]] = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: program source not found under {SRC}",
              file=sys.stderr)
        return 2
    build_reference()
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r} "
              f"(choose from {', '.join(WORKLOADS)})", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    ops = Bench(workload, args.seed, args.seconds).run(bool(args.trace))
    digests = check_digests(ops)
    for op in ops:
        if not op.ok:
            print(f"perfbench: {workload.name} study seed {op.seed}: "
                  + "; ".join(op.errors), file=sys.stderr)
    metrics = (per_layer(ops, study_seed(args.seed, 0)) if args.trace
               else end_to_end(workload, ops))
    failed = sum(1 for op in ops if not op.ok)
    timed = [op for op in ops if op.ok and op.timed]
    first = next((op for op in ops if op.ok), None)
    print(json.dumps({
        "context": context(workload, args.seed, bool(args.trace)),
        "model": first.model if first is not None else {},
        "digests": {str(seed): d for seed, d in digests.items()},
        # host seconds as measured, before rescaling to the reference clock
        "host": {
            "reference_s": _median([op.ref_s for op in timed]),
            "run_s": [[op.seed, op.run_s, op.ref_s] for op in timed],
            "end_to_end": {name: m["value"] for name, m in end_to_end(
                workload, ops, scaled=False).items()},
        },
        "trace_file": _write_trace(workload, args.seed, ops),
    }))
    print(json.dumps({
        "correct": failed == 0 and bool(timed),
        "attempted": len(ops),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
