"""SLO accounting: latency percentiles and violation bookkeeping.

The serving engine records one end-to-end latency per completed
request; this module turns that sample set into the numbers a fleet
operator holds a service to — p50/p99/p999, the violation count and
the summed violation excess — using the shared quantile helper in
``repro.telemetry.metrics`` (the same interpolation every other
percentile in the repo uses).  :class:`ServingResult`, the engine's run
result, carries them beside the shared result core.

Metric definitions (also in ``docs/serving.md``):

* **latency** — completion minus arrival, simulated seconds; includes
  queueing, service, and any migration-induced stall.
* **SLO violation** — a request whose latency exceeds the target.
* **violation seconds** — the summed *excess* latency over the target
  across violating requests (request-seconds of SLO debt).
"""

from dataclasses import dataclass
from typing import Dict, Sequence

from repro.datacenter.energy import RunResult
from repro.telemetry.metrics import percentiles

#: Default request-latency SLO: 10 ms end-to-end (a typical KV-fleet
#: p99 target; tight enough that diurnal peaks on the ARM box breach).
DEFAULT_SLO_S = 0.010


@dataclass
class ServingResult(RunResult):
    """One serving run: the core plus the SLO summary, the hand-off
    totals and the fault and resilience outcomes (all zero on a
    fault-free run without resilience gates)."""

    policy: str
    mean_response: float  # mean request latency
    max_latency_s: float
    slo_target_s: float  # the latency SLO the run was held to
    slo_violations: int  # requests finishing above the target
    slo_violation_seconds: float  # summed latency excess over target
    busy_seconds: float
    overhead_seconds: float  # summed blackout (drain -> commit) time
    handoffs_aborted: int
    handoff_seconds: float  # summed in-flight (PREPARE->COMMIT) time
    mttd: float  # mean crash-to-confirmed-dead time (0 = omniscient)
    false_suspicions: int
    false_confirms: int  # live nodes fenced by the detector
    requests_retried: int  # distinct requests replayed after a crash
    requests_hedged: int  # requests raced on the other machine
    retry_attempts: int  # total crash-killed replays
    failovers: int  # service relocations forced by node death
    breaker_opens: int  # circuit-breaker open transitions
    goodput_rps: float  # completed-in-SLO requests per second
    slo_attainment: float  # completed-in-SLO / offered
    # MetricsRegistry.snapshot() of the run's tracer; empty when
    # tracing is off.
    metrics: Dict[str, object]


def slo_report(latencies: Sequence[float], target_s: float) -> Dict[str, float]:
    """Summarise per-request latencies against a latency target.

    Returns the :class:`ServingResult` fields the summary fills, keyed
    by field name.  One pass over the samples.  The mean and the
    violation excess are summed left to right: builtin ``sum()`` is
    compensated from CPython 3.12 on, so it would make the last digits
    depend on the interpreter.  The excess starts from the int 0, as
    ``sum()`` did, so a run with no violation still reports ``0`` (the
    committed baselines hold that value).
    """
    if target_s <= 0:
        raise ValueError("SLO target must be positive")
    total = 0.0
    violations = 0
    excess = 0
    for value in latencies:
        total += value
        if value > target_s:
            violations += 1
            excess += value - target_s
    count = len(latencies)
    p50, p99, p999 = percentiles(latencies)
    return {
        "requests_completed": count,
        "mean_response": total / count if count else 0.0,
        "p50_latency_s": p50,
        "p99_latency_s": p99,
        "p999_latency_s": p999,
        "max_latency_s": max(latencies) if count else 0.0,
        "slo_violations": violations,
        "slo_violation_seconds": excess,
    }


def render_slo_rows(result: ServingResult):
    """(metric, formatted value) pairs for the run-report table."""
    completed = result.requests_completed
    fraction = result.slo_violations / completed if completed else 0.0
    return [
        ("requests (completed/admitted)", f"{completed}/{result.requests}"),
        ("latency mean", f"{result.mean_response * 1e3:.3f} ms"),
        ("latency p50", f"{result.p50_latency_s * 1e3:.3f} ms"),
        ("latency p99", f"{result.p99_latency_s * 1e3:.3f} ms"),
        ("latency p999", f"{result.p999_latency_s * 1e3:.3f} ms"),
        ("latency max", f"{result.max_latency_s * 1e3:.3f} ms"),
        ("SLO target", f"{result.slo_target_s * 1e3:.3f} ms"),
        ("SLO violations",
         f"{result.slo_violations} ({fraction * 100:.2f}%)"),
        ("SLO violation seconds", f"{result.slo_violation_seconds:.4f}"),
    ]
