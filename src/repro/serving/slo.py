"""SLO accounting: latency percentiles and violation bookkeeping.

The serving engine records one end-to-end latency per completed
request; this module turns that sample set into the numbers a fleet
operator holds a service to — p50/p99/p999, the violation count and
the summed violation excess — using the shared quantile helper in
``repro.telemetry.metrics`` (the same interpolation every other
percentile in the repo uses).

Metric definitions (also in ``docs/serving.md``):

* **latency** — completion minus arrival, simulated seconds; includes
  queueing, service, and any migration-induced stall.
* **SLO violation** — a request whose latency exceeds the target.
* **violation seconds** — the summed *excess* latency over the target
  across violating requests (request-seconds of SLO debt).
"""

from dataclasses import dataclass
from typing import Sequence

from repro.telemetry.metrics import percentiles

#: Default request-latency SLO: 10 ms end-to-end (a typical KV-fleet
#: p99 target; tight enough that diurnal peaks on the ARM box breach).
DEFAULT_SLO_S = 0.010


@dataclass(frozen=True)
class SloReport:
    """Latency/SLO summary of one serving run."""

    target_s: float
    requests: int
    completed: int
    mean_s: float
    p50_s: float
    p99_s: float
    p999_s: float
    max_s: float
    violations: int
    violation_seconds: float

    @property
    def violation_fraction(self) -> float:
        """Fraction of completed requests that violated the SLO."""
        return self.violations / self.completed if self.completed else 0.0


def slo_report(
    latencies: Sequence[float], target_s: float, requests: int
) -> SloReport:
    """Summarise per-request latencies against a latency target.

    One pass over the samples.  The mean and the violation excess are
    summed left to right: builtin ``sum()`` is compensated from CPython
    3.12 on, so it would make the last digits depend on the
    interpreter.  The excess starts from the int 0, as ``sum()`` did, so
    a run with no violation still reports ``0`` (the committed
    baselines hold that value).
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
    return SloReport(
        target_s=target_s,
        requests=requests,
        completed=count,
        mean_s=total / count if count else 0.0,
        p50_s=p50,
        p99_s=p99,
        p999_s=p999,
        max_s=max(latencies) if count else 0.0,
        violations=violations,
        violation_seconds=excess,
    )


def render_slo_rows(report: SloReport):
    """(metric, formatted value) pairs for the run-report table."""
    return [
        ("requests (completed/admitted)",
         f"{report.completed}/{report.requests}"),
        ("latency mean", f"{report.mean_s * 1e3:.3f} ms"),
        ("latency p50", f"{report.p50_s * 1e3:.3f} ms"),
        ("latency p99", f"{report.p99_s * 1e3:.3f} ms"),
        ("latency p999", f"{report.p999_s * 1e3:.3f} ms"),
        ("latency max", f"{report.max_s * 1e3:.3f} ms"),
        ("SLO target", f"{report.target_s * 1e3:.3f} ms"),
        ("SLO violations",
         f"{report.violations} ({report.violation_fraction * 100:.2f}%)"),
        ("SLO violation seconds", f"{report.violation_seconds:.4f}"),
    ]
