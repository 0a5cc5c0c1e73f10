"""Open-loop serving: KV traffic, tail-latency SLOs, live migration.

The batch layer (``repro.datacenter``) asks *when does the job set
finish and what did it cost*; this package asks the datacenter-serving
question the paper's Redis rows gesture at — *what latency does each
request see while the service migrates underneath it*.  Traffic shapes
(:mod:`~repro.serving.traffic`) drive an open-loop engine
(:mod:`~repro.serving.engine`) whose per-request service times come
from the interpreter's cost accounting; latency-aware policies
(:mod:`~repro.serving.policies`) decide when the service hands off
between the ARM and x86 boxes; and SLO accounting
(:mod:`~repro.serving.slo`) turns per-request latencies into
p50/p99/p999 and violation numbers.  See ``docs/serving.md``.
"""

from repro.serving.engine import (
    EngineConfig,
    Request,
    ServingEngine,
    ServingView,
)
from repro.serving.resilience import (
    AdmissionController,
    CircuitBreaker,
    PriorityClass,
    ResilienceConfig,
    RetryBudget,
    TokenBucket,
    default_resilience,
    next_backoff,
    render_detector_rows,
    render_resilience_rows,
)
from repro.serving.policies import (
    Decision,
    LatencyAwareServing,
    QueueReactiveServing,
    SERVING_POLICIES,
    ServingPolicy,
    StaticArmServing,
    StaticX86Serving,
    make_serving_policy,
    predicted_tail_s,
)
from repro.serving.slo import (
    DEFAULT_SLO_S,
    render_slo_rows,
    slo_report,
)
from repro.serving.traffic import (
    ArrivalTrace,
    TRAFFIC_SHAPES,
    diurnal,
    flash_crowd,
    make_trace,
    steady,
    to_job_arrivals,
)

__all__ = [
    "AdmissionController",
    "ArrivalTrace",
    "CircuitBreaker",
    "DEFAULT_SLO_S",
    "Decision",
    "EngineConfig",
    "PriorityClass",
    "ResilienceConfig",
    "RetryBudget",
    "TokenBucket",
    "default_resilience",
    "next_backoff",
    "render_detector_rows",
    "render_resilience_rows",
    "LatencyAwareServing",
    "QueueReactiveServing",
    "Request",
    "SERVING_POLICIES",
    "ServingEngine",
    "ServingPolicy",
    "ServingView",
    "StaticArmServing",
    "StaticX86Serving",
    "TRAFFIC_SHAPES",
    "diurnal",
    "flash_crowd",
    "make_serving_policy",
    "make_trace",
    "predicted_tail_s",
    "render_slo_rows",
    "slo_report",
    "steady",
    "to_job_arrivals",
]
