"""Output checks and model outputs of one simulated study.

A speed-only change to the program must leave every simulated statistic
unchanged, so each run hashes what the simulation produced: operation
records, per-agent telemetry counters and, for sharded runs, the merged
state fingerprint.  Runs of one seed must give one digest.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional


@dataclass
class Outcome:
    """What one simulated study produced, as the checks need it."""

    records: List[Any]
    telemetry: Dict[str, Any]
    #: Operations the workload launched (``None``: no cascades).
    launched: Optional[int] = None
    #: Operations still in flight at the horizon.
    in_flight: int = 0
    crashes: int = 0
    resilience: Dict[str, int] = field(default_factory=dict)
    #: ``ParallelReport`` of a sharded run, else ``None``.
    parallel: Any = None
    #: ``EngineProfiler`` when the run was profiled, else ``None``.
    profile: Any = None
    #: Workload-specific conditions that must hold, name -> passed.
    conditions: Dict[str, bool] = field(default_factory=dict)


def conservation_errors(launched: int, completed: int, failed: int,
                        in_flight: int) -> List[str]:
    """Every launched operation is completed, failed or still in flight."""
    if launched == completed + failed + in_flight:
        return []
    return [f"conservation: launched {launched} != completed {completed}"
            f" + failed {failed} + in flight {in_flight}"]


def digest(outcome: Outcome) -> str:
    """SHA-256 over the simulated outputs, exact to the last float bit."""
    h = hashlib.sha256()
    rows = sorted(
        (r.start, r.end, r.operation, r.application, r.client_dc,
         r.failed, r.retries, r.abandoned)
        for r in outcome.records)
    for row in rows:
        h.update(repr(row).encode())
    for name in sorted(outcome.telemetry):
        t = outcome.telemetry[name]
        h.update(repr((name, t.arrivals, t.completions, t.drops, t.busy_time,
                       t.queue_length, t.queue_hwm, t.retries, t.timeouts,
                       t.shed)).encode())
    h.update(repr((outcome.in_flight, outcome.crashes,
                   sorted(outcome.resilience.items()))).encode())
    if outcome.parallel is not None:
        h.update(outcome.parallel.fingerprint.encode())
        h.update(repr((outcome.parallel.windows_run,
                       outcome.parallel.envelopes)).encode())
    return h.hexdigest()


def _nearest_rank(sorted_values: List[float], q: float) -> float:
    if not sorted_values:
        return 0.0
    idx = min(len(sorted_values) - 1, max(0, int(q * len(sorted_values)
                                                 + 0.5) - 1))
    return sorted_values[idx]


def model_outputs(outcome: Outcome) -> Dict[str, Any]:
    """Simulated statistics to compare across two commits."""
    ok = sorted(r.response_time for r in outcome.records if not r.failed)
    failed = sum(1 for r in outcome.records if r.failed)
    return {
        "completed": len(ok),
        "failed": failed,
        "in_flight": outcome.in_flight,
        "p50_response_s": _nearest_rank(ok, 0.50),
        "p99_response_s": _nearest_rank(ok, 0.99),
        "agent_completions": sum(t.completions
                                 for t in outcome.telemetry.values()),
        "crashes": outcome.crashes,
        "retries": outcome.resilience.get("retries", 0),
        "timeouts": outcome.resilience.get("timeouts", 0),
        "envelopes": (outcome.parallel.envelopes
                      if outcome.parallel is not None else 0),
        "digest": digest(outcome),
    }


def check(outcome: Outcome) -> List[str]:
    """Problems with one study's outputs (empty when it is correct)."""
    errors: List[str] = []
    completed = sum(1 for r in outcome.records if not r.failed)
    failed = len(outcome.records) - completed
    if outcome.launched is not None:
        errors += conservation_errors(outcome.launched, completed, failed,
                                      outcome.in_flight)
        if completed == 0:
            errors.append("no operation completed")
    if not any(t.completions for t in outcome.telemetry.values()):
        errors.append("no agent completed any job")
    errors += [f"condition failed: {name}"
               for name, passed in outcome.conditions.items() if not passed]
    return errors
