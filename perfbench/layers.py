"""Host-time attribution to the ``src/repro`` packages for traced runs.

The tracer works from outside the program.  It replaces the public
methods of every class in ``repro`` with a wrapper that records a span
whenever a call crosses from one package (layer) into another, and it
wraps callables handed across such a boundary -- calendar events given
to ``Simulator.schedule``, job continuations given to ``Job`` and any
callback argument -- so that a callback counts to the package whose
code defined it.  Callbacks defined by the workload generators
(``repro.studies``, ``repro.software.workload`` and this directory)
count as ``workload``.

A layer's self time is the time its spans cover minus the time of the
spans nested inside them.  Calls inside one layer open no span, so they
cost one comparison.  Spans are aggregated in memory as they close:
self seconds per layer, and calls plus inclusive seconds per
(caller layer, callee layer, method) edge.

Forked worker processes of a sharded run inherit the wrappers.  Each
starts with empty tables, and at the end of its windowed run it writes
them to a file that the coordinating process merges.
"""

from __future__ import annotations

import importlib
import json
import os
import pkgutil
import sys
import time
import types
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Layers reported as per-layer metrics: packages of ``src/repro``.
LAYERS = ("core", "queueing", "hardware", "topology", "software",
          "resilience", "reliability", "parallel", "api")
WORKLOAD = "workload"
#: Sentinel frame at the bottom of the span stack.
ROOT = "unattributed"

_BENCH_DIR = str(Path(__file__).resolve().parent)
#: Code in this file is the tracer's own: already-wrapped callables.
_TRACER_FILE = __file__
_CALLBACK_TYPES = (types.FunctionType, types.MethodType)

Edge = Tuple[str, str, str]  # (caller layer, callee layer, method)


def layer_of_module(module: Optional[str]) -> Optional[str]:
    """The layer a module's code belongs to, or ``None`` outside repro."""
    if not module:
        return None
    if module.startswith("repro.studies") or module == "repro.software.workload":
        return WORKLOAD
    if module.startswith("repro."):
        return module.split(".")[1]
    return None


def layer_of_callable(fn: Any) -> Optional[str]:
    """The layer whose code defined ``fn`` (``None``: leave unwrapped)."""
    layer = layer_of_module(getattr(fn, "__module__", None))
    if layer is not None:
        return layer
    code = getattr(getattr(fn, "__func__", fn), "__code__", None)
    if code is not None and code.co_filename.startswith(_BENCH_DIR):
        return WORKLOAD
    return None


class LayerTracer:
    """Self time per layer and call counts per layer boundary.

    ``install()`` patches the program; ``uninstall()`` restores it.
    ``snapshot()`` copies the tables so a caller can take the difference
    over one region, such as the run phase of one simulated study.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter,
                 shard_dir: Optional[Path] = None) -> None:
        self.clock = clock
        self.self_s: Dict[str, float] = {}
        #: (callee layer, method) -> caller layer -> [calls, inclusive s]
        self._stats: Dict[Tuple[str, str], Dict[str, List[float]]] = {}
        self._described: Dict[Any, Tuple[str, str]] = {}
        self.events = [0]  # calendar callbacks fired
        self.stack: List[List[Any]] = [[ROOT, 0.0]]
        self.shard_dir = shard_dir
        self._patches: List[Tuple[Any, str, Any]] = []
        self._pid = os.getpid()
        self._child_t0 = 0.0
        self._active = False
        self._fork_hooked = False

    # ------------------------------------------------------------------
    # spans
    # ------------------------------------------------------------------
    def wrap(self, layer: str, name: str, fn: Callable,
             wrap_args: bool = True, count_event: bool = False) -> Callable:
        """``fn`` recording a span of ``layer`` when called from another.

        The wrapper's own bookkeeping is timed too and charged to no
        layer, so it shows up as ``unattributed`` rather than inflating
        the caller's self time.
        """
        stack, clock = self.stack, self.clock
        self_s, events = self.self_s, self.events
        callback = self.callback
        per_caller = self._stats.setdefault((layer, name), {})

        def traced(*args, **kw):
            if count_event:
                events[0] += 1
            parent = stack[-1]
            caller = parent[0]
            if caller == layer:
                return fn(*args, **kw)
            t_in = clock()
            if wrap_args:
                for a in args:
                    if isinstance(a, _CALLBACK_TYPES):
                        args = tuple(callback(x, layer) for x in args)
                        break
                if kw:
                    for key, a in kw.items():
                        if isinstance(a, _CALLBACK_TYPES):
                            kw[key] = callback(a, layer)
            frame = [layer, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kw)
            finally:
                dur = clock() - t0
                stack.pop()
                self_s[layer] = self_s.get(layer, 0.0) + dur - frame[1]
                edge = per_caller.get(caller)
                if edge is None:
                    per_caller[caller] = [1, dur]
                else:
                    edge[0] += 1
                    edge[1] += dur
                parent[1] += clock() - t_in

        return traced

    def callback(self, fn: Any, callee: str, count_event: bool = False):
        """Wrap a callable that crosses into ``callee`` for later calls.

        A wrapped method, bound or not, already opens its own span; a
        calendar event of that kind only needs counting.
        """
        if not (count_event or isinstance(fn, _CALLBACK_TYPES)):
            return fn
        code = getattr(getattr(fn, "__func__", fn), "__code__", None)
        if code is not None and code.co_filename == _TRACER_FILE:
            return self._counted(fn) if count_event else fn
        described = self._described.get(code) if code is not None else None
        if described is None:
            layer = layer_of_callable(fn) or callee
            described = (layer, getattr(fn, "__qualname__", "callback"))
            if code is not None:
                self._described[code] = described
        layer, name = described
        if layer == callee and not count_event:
            return fn
        return self.wrap(layer, name, fn, wrap_args=False,
                         count_event=count_event)

    def _counted(self, fn: Callable) -> Callable:
        events = self.events

        def counted(*args, **kw):
            events[0] += 1
            return fn(*args, **kw)

        return counted

    # ------------------------------------------------------------------
    # install / uninstall
    # ------------------------------------------------------------------
    def _patch(self, owner: Any, attr: str, new: Any) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self) -> None:
        """Wrap every public method of every class in ``repro``."""
        import repro
        import repro.api as api
        import repro.parallel.sharded as sharded
        from repro.core.engine import Simulator
        from repro.core.job import Job

        for info in pkgutil.walk_packages(repro.__path__, "repro."):
            if info.name.endswith("__main__"):
                continue
            try:
                importlib.import_module(info.name)
            except ImportError:  # optional dependency missing: not used
                continue
        special = {(Simulator, "schedule"), (Simulator, "run_windowed")}
        for modname, module in list(_repro_modules()):
            layer = layer_of_module(modname)
            for cls in list(vars(module).values()):
                if not isinstance(cls, type) or cls.__module__ != modname \
                        or issubclass(cls, BaseException):
                    continue
                for attr, fn in list(vars(cls).items()):
                    if attr.startswith("_") or (cls, attr) in special \
                            or not isinstance(fn, types.FunctionType):
                        continue
                    self._patch(cls, attr, self.wrap(
                        layer, f"{cls.__name__}.{attr}", fn))
        self._install_special(Simulator, Job)
        self._patch(api, "simulate",
                    self.wrap("api", "simulate", api.simulate))
        self._patch(sharded, "run_sharded",
                    self.wrap("parallel", "run_sharded", sharded.run_sharded))
        if not self._fork_hooked:
            self._fork_hooked = True
            os.register_at_fork(after_in_child=self._after_fork)
        self._active = True

    def _install_special(self, Simulator: type, Job: type) -> None:
        """Calendar events, job continuations and worker-side dumps."""
        tracer = self
        schedule = self.wrap("core", "Simulator.schedule",
                             Simulator.__dict__["schedule"], wrap_args=False)

        def traced_schedule(sim, when, fn):
            return schedule(sim, when,
                            tracer.callback(fn, "core", count_event=True))

        self._patch(Simulator, "schedule", traced_schedule)
        run_windowed = self.wrap("core", "Simulator.run_windowed",
                                 Simulator.__dict__["run_windowed"])

        def traced_run_windowed(sim, *args, **kw):
            try:
                return run_windowed(sim, *args, **kw)
            finally:
                if os.getpid() != tracer._pid:
                    tracer.dump_child()

        self._patch(Simulator, "run_windowed", traced_run_windowed)
        job_init = Job.__dict__["__init__"]

        def traced_job_init(job, *args, **kw):
            if len(args) > 1 and args[1] is not None:
                args = (args[0], tracer.callback(args[1], "core"),
                        *args[2:])
            elif kw.get("on_complete") is not None:
                kw["on_complete"] = tracer.callback(kw["on_complete"], "core")
            job_init(job, *args, **kw)

        self._patch(Job, "__init__", traced_job_init)

    def uninstall(self) -> None:
        """Restore every patched attribute (reverse order)."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        self._active = False

    # ------------------------------------------------------------------
    # tables
    # ------------------------------------------------------------------
    def edges(self) -> Dict[Edge, Tuple[int, float]]:
        """(caller, callee, method) -> (calls, inclusive seconds)."""
        return {(caller, layer, name): (v[0], v[1])
                for (layer, name), per_caller in self._stats.items()
                for caller, v in per_caller.items()}

    def snapshot(self) -> Dict[str, Any]:
        """A copy of the tables, for differences over a region."""
        return {"self_s": dict(self.self_s), "edges": self.edges(),
                "events": self.events[0]}

    @staticmethod
    def delta(after: Dict[str, Any], before: Dict[str, Any]) -> Dict[str, Any]:
        """Tables accumulated between two snapshots."""
        self_s = {k: v - before["self_s"].get(k, 0.0)
                  for k, v in after["self_s"].items()}
        edges = {}
        for key, (calls, incl) in after["edges"].items():
            c0, i0 = before["edges"].get(key, (0, 0.0))
            if calls > c0:
                edges[key] = (calls - c0, incl - i0)
        return {"self_s": self_s, "edges": edges,
                "events": after["events"] - before["events"]}

    # ------------------------------------------------------------------
    # forked workers
    # ------------------------------------------------------------------
    def _after_fork(self) -> None:
        """In a forked child: start empty, rooted in the parallel layer."""
        if not self._active:
            return
        self.self_s.clear()
        for per_caller in self._stats.values():
            per_caller.clear()
        self.events[0] = 0
        del self.stack[:]
        self.stack.append(["parallel", 0.0])
        self._child_t0 = self.clock()

    def dump_child(self) -> None:
        """Write this worker's tables for the coordinating process."""
        if self.shard_dir is None:
            return
        root = self.stack[0]
        self_s = dict(self.self_s)
        self_s["parallel"] = (self_s.get("parallel", 0.0)
                              + self.clock() - self._child_t0 - root[1])
        doc = {
            "self_s": self_s,
            "edges": [[list(k), c, i] for k, (c, i) in self.edges().items()],
            "events": self.events[0],
        }
        self.shard_dir.mkdir(parents=True, exist_ok=True)
        path = self.shard_dir / f"worker-{os.getpid()}.json"
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(doc))
        os.replace(tmp, path)

    def collect_children(self) -> List[Dict[str, Any]]:
        """Read and remove the tables written by forked workers."""
        out: List[Dict[str, Any]] = []
        if self.shard_dir is None or not self.shard_dir.is_dir():
            return out
        for path in sorted(self.shard_dir.glob("worker-*.json")):
            doc = json.loads(path.read_text())
            path.unlink()
            out.append({
                "self_s": doc["self_s"],
                "edges": {tuple(k): (c, i) for k, c, i in doc["edges"]},
                "events": doc["events"],
            })
        return out


def _repro_modules():
    for name, module in list(sys.modules.items()):
        if module is not None and (name == "repro" or name.startswith("repro.")):
            if layer_of_module(name) is not None:
                yield name, module


def merge_tables(tables: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Sum several span tables (coordinator plus workers)."""
    self_s: Dict[str, float] = {}
    edges: Dict[Edge, Tuple[int, float]] = {}
    events = 0
    for t in tables:
        for k, v in t["self_s"].items():
            self_s[k] = self_s.get(k, 0.0) + v
        for k, (c, i) in t["edges"].items():
            c0, i0 = edges.get(k, (0, 0.0))
            edges[k] = (c0 + c, i0 + i)
        events += t["events"]
    return {"self_s": self_s, "edges": edges, "events": events}


def layer_summary(table: Dict[str, Any]) -> Dict[str, float]:
    """Per-layer figures derived from a span table.

    ``<layer>.calls`` counts spans entering the layer from another one
    (reported for the layers the engine and the runner call most);
    ``core.sync_s`` is the inclusive time of ``sync_to`` calls the engine
    makes (at run ends, window ends and monitor boundaries).
    """
    self_s = table["self_s"]
    out: Dict[str, float] = {}
    for layer in LAYERS + (WORKLOAD,):
        out[f"{layer}.self_s"] = self_s.get(layer, 0.0)
    out["other.self_s"] = sum(
        v for k, v in self_s.items()
        if k not in LAYERS and k not in (WORKLOAD, ROOT))
    calls: Dict[str, int] = {}
    sync = 0.0
    for (caller, callee, name), (c, incl) in table["edges"].items():
        calls[callee] = calls.get(callee, 0) + c
        if caller == "core" and name.endswith(".sync_to"):
            sync += incl
    for layer in ("queueing", "hardware", "topology"):
        out[f"{layer}.calls"] = calls.get(layer, 0)
    out["core.sync_s"] = sync
    out["core.events"] = table["events"]
    return out
