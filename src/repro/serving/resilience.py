"""Serving-plane resilience: deadlines, retries, hedging, breakers,
admission control.

The serving engine of PR 6 assumed an immortal pair of machines and a
client population with infinite patience: every admitted request was
eventually served, no matter how long the queue grew, and a node crash
had no model at all.  Production serving planes survive on four
complementary mechanisms, all modelled here deterministically:

* **deadlines / timeouts** — a request unserved past its deadline
  fails *loudly* (the client gave up); it is counted, never silently
  dropped.
* **retry budgets with decorrelated-jitter backoff** — a request whose
  service was killed by a node crash is replayed on a surviving node,
  after a backoff drawn with the same decorrelated-jitter schedule the
  kernel messaging layer uses (:class:`~repro.faults.inject.RetryPolicy`,
  the PR-4 machinery).  A global budget caps retries to a fraction of
  offered load so a dying fleet cannot melt itself with retry storms.
* **tail-latency hedging** — a request that has waited longer than the
  hedge delay is raced on the idle box of the *other* ISA; because
  service times are deterministic the engine resolves the race at
  dispatch (the hedge always wins once launched, the original is
  cancelled), charging the second box's energy for the privilege.
* **circuit breakers + admission control** — a per-node breaker opens
  on a confirmed crash and keeps placement away from the node until it
  has been back up for a reset window (flap damping); admission
  control sheds load at the door — a token bucket on the offered rate
  plus per-priority-class queue-depth gates — so overload degrades
  gracefully (bounded queues, bounded tails for the surviving
  classes) instead of collapsing into an unbounded backlog.

Everything is **opt-in and zero-cost when off**: the default
:class:`ResilienceConfig` disables every gate, draws no randomness and
schedules no events, so a fault-free run with the default config is
bit-identical to the pre-resilience engine.  The request-conservation
audit (``offered == completed + shed + failed``, each request exactly
once) runs under ``REPRO_VALIDATE=1`` and is enforced by the serving
chaos harness (:mod:`repro.faults.chaos`).  See ``docs/serving.md``.
"""

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.faults.inject import RetryPolicy

#: Circuit-breaker states (:class:`CircuitBreaker`).
CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half-open"

#: Total service attempts per request: a request whose service a crash
#: killed is replayed at most twice, then fails loudly.
MAX_ATTEMPTS = 3
#: Backoff schedule between a crash-killed attempt and its replay —
#: the kernel messaging layer's decorrelated-jitter policy.
RETRY_BACKOFF = RetryPolicy(ack_timeout_s=0.0, backoff_base_s=2e-3, max_backoff_s=0.1)
#: The engine's global retry budget (:class:`RetryBudget`): replays are
#: allowed while ``retries < MIN_RETRY_TOKENS + RETRY_BUDGET_FRACTION *
#: offered``.
RETRY_BUDGET_FRACTION = 0.2
MIN_RETRY_TOKENS = 8
#: Seconds a repaired node must stay up before placement trusts it
#: (:class:`CircuitBreaker`).
BREAKER_RESET_S = 2.0


@dataclass(frozen=True)
class PriorityClass:
    """One admission priority class.

    ``weight`` is the fraction of offered requests assigned to the
    class (weights are normalised); ``max_queue_depth`` is the
    queue-depth gate — a request of this class arriving while the
    queue is at or past the gate is shed.  ``None`` never sheds.
    Classes are ordered most- to least-important; the engine assigns
    classes by a deterministic draw from the ``serve.priority`` RNG
    stream (no draw happens when only one class is configured).
    """

    name: str
    weight: float
    max_queue_depth: Optional[int] = None

    def __post_init__(self):
        if not self.weight > 0:
            raise ValueError(f"priority class {self.name!r}: weight must be > 0")
        if self.max_queue_depth is not None and self.max_queue_depth < 1:
            raise ValueError(
                f"priority class {self.name!r}: max_queue_depth must be None or >= 1"
            )


#: The no-shedding default: a single class with no queue gate.
DEFAULT_CLASSES: Tuple[PriorityClass, ...] = (PriorityClass("std", 1.0),)


@dataclass(frozen=True)
class ResilienceConfig:
    """Knobs of the serving resilience layer (all off by default).

    The defaults disable every mechanism — no deadline, no hedging, no
    admission gates — so constructing an engine with
    ``ResilienceConfig()`` changes nothing on a fault-free run.
    Retries only ever trigger on a node crash, so they too are inert
    without a :class:`~repro.faults.inject.FaultSchedule`.
    """

    #: End-to-end deadline; a request still *queued* past it fails
    #: loudly ("deadline-exceeded").  ``None`` waits forever.
    request_timeout_s: Optional[float] = None
    #: Queue wait beyond which the oldest queued request is hedged on
    #: the other (idle) machine.  ``None`` disables hedging.
    hedge_delay_s: Optional[float] = None
    #: Fixed surcharge a hedged execution pays on the cold box (its
    #: working set is not resident there).
    hedge_overhead_s: float = 0.0
    #: Token-bucket admission rate (requests/s); ``None`` disables the
    #: bucket.  ``admit_burst`` is the bucket capacity.
    admit_rate: Optional[float] = None
    admit_burst: float = 32.0
    #: Priority classes, most important first (see :class:`PriorityClass`).
    priority_classes: Tuple[PriorityClass, ...] = DEFAULT_CLASSES

    def __post_init__(self):
        if self.request_timeout_s is not None and self.request_timeout_s <= 0:
            raise ValueError("request_timeout_s must be positive")
        if self.hedge_delay_s is not None and self.hedge_delay_s <= 0:
            raise ValueError("hedge_delay_s must be positive")
        if self.hedge_overhead_s < 0:
            raise ValueError("hedge_overhead_s must be >= 0")
        if not self.priority_classes:
            raise ValueError("need at least one priority class")

    @property
    def inert(self) -> bool:
        """True when no mechanism can fire on a fault-free run."""
        return (
            self.request_timeout_s is None
            and self.hedge_delay_s is None
            and self.admit_rate is None
            and all(
                c.max_queue_depth is None for c in self.priority_classes
            )
        )


def default_resilience(slo_s: float = 0.010) -> ResilienceConfig:
    """The opinionated preset the CLI's ``--resilient`` flag enables.

    Deadline at 10x the SLO, hedging at 4x, and a two-class admission
    gate that sheds the bulk (standard) class once the queue is deep
    enough that its wait would blow the deadline anyway — graceful
    degradation instead of an unbounded backlog.
    """
    return ResilienceConfig(
        request_timeout_s=10.0 * slo_s,
        hedge_delay_s=4.0 * slo_s,
        hedge_overhead_s=0.5 * slo_s,
        priority_classes=(
            PriorityClass("gold", 0.2),
            PriorityClass("std", 0.8, max_queue_depth=64),
        ),
    )


def next_backoff(
    policy: RetryPolicy, attempt: int, prev_backoff_s: float, u: float
) -> float:
    """One backoff wait of the PR-4 schedule, from a uniform draw ``u``.

    Decorrelated jitter (``jitter=True``): uniform in
    ``[base, 3 x previous wait]``; otherwise plain capped exponential.
    Mirrors :class:`~repro.faults.inject.FaultyMessagingLayer` so the
    serving and messaging layers back off identically.
    """
    if policy.jitter:
        span = max(3.0 * prev_backoff_s - policy.backoff_base_s, 0.0)
        backoff = policy.backoff_base_s + u * span
    else:
        backoff = policy.backoff_base_s * (2 ** attempt)
    return min(backoff, policy.max_backoff_s)


class TokenBucket:
    """A deterministic token bucket over the simulated clock."""

    def __init__(self, rate: float, burst: float):
        if rate <= 0:
            raise ValueError("token rate must be positive")
        if burst <= 0:
            raise ValueError("burst must be positive")
        self.rate = rate
        self.burst = burst
        self.tokens = burst
        self._last = 0.0

    def take(self, now: float) -> bool:
        """Refill to ``now`` and consume one token if available."""
        if now > self._last:
            self.tokens = min(
                self.burst, self.tokens + (now - self._last) * self.rate
            )
            self._last = now
        if self.tokens >= 1.0:
            self.tokens -= 1.0
            return True
        return False


class RetryBudget:
    """Finagle-style ratio budget: retries ride on offered load."""

    def __init__(self, fraction: float, min_tokens: int):
        if fraction < 0:
            raise ValueError("retry fraction must be non-negative")
        self.fraction = fraction
        self.min_tokens = min_tokens
        self.offered = 0
        self.spent = 0

    def offer(self) -> None:
        """Record one offered request (earns fractional retry credit)."""
        self.offered += 1

    def allow(self) -> bool:
        """Would one more retry stay within the budget?"""
        return self.spent < self.min_tokens + self.fraction * self.offered

    def spend(self) -> None:
        self.spent += 1


class CircuitBreaker:
    """Per-node crash breaker: open on failure, heal after a quiet reset.

    States follow the classic pattern, driven by the simulated clock:
    ``closed`` (normal), ``open`` (placement must avoid the node), and
    ``half-open`` once ``BREAKER_RESET_S`` has elapsed — the next
    success closes it, the next trip re-opens it.  The serving engine
    trips it on every confirmed node death and records a success when
    the node has served again after repair.
    """

    def __init__(self):
        self.state = CLOSED
        self.opens = 0
        self._opened_at = 0.0

    def trip(self, now: float) -> None:
        """A definitive failure (confirmed crash): open immediately."""
        if self.state != OPEN:
            self.state = OPEN
            self.opens += 1
        self._opened_at = now

    def touch(self, now: float) -> None:
        """Restart the reset clock (the node just came back: it must
        stay up ``BREAKER_RESET_S`` before placement trusts it again)."""
        if self.state != CLOSED:
            self.state = OPEN
            self._opened_at = now

    def record_success(self, now: float) -> None:
        """A successful probe: close."""
        self.state = CLOSED

    def allow(self, now: float) -> bool:
        """May placement use the node?  Open breakers half-open after
        ``BREAKER_RESET_S`` and admit one probe."""
        if self.state == CLOSED:
            return True
        if self.state == OPEN and now - self._opened_at >= BREAKER_RESET_S:
            self.state = HALF_OPEN
        return self.state == HALF_OPEN

    @property
    def is_open(self) -> bool:
        return self.state == OPEN


class AdmissionController:
    """Shed-at-the-door admission: token bucket + priority queue gates.

    ``admit(now, depth, priority)`` answers whether a request of the
    given class may enter the queue at the current depth; a ``False``
    carries the reason in :attr:`last_reason`.  With the default
    (inert) config every call admits and no state mutates.
    """

    def __init__(self, config: ResilienceConfig):
        self.config = config
        self.bucket = (
            TokenBucket(config.admit_rate, config.admit_burst)
            if config.admit_rate is not None
            else None
        )
        total = sum(c.weight for c in config.priority_classes)
        #: Cumulative class weights for the deterministic priority draw.
        self.cumulative: List[Tuple[float, PriorityClass]] = []
        acc = 0.0
        for cls in config.priority_classes:
            acc += cls.weight / total
            self.cumulative.append((acc, cls))
        self.last_reason = ""

    def classify(self, u: float) -> PriorityClass:
        """Map a uniform draw to a priority class (stable ordering)."""
        for threshold, cls in self.cumulative:
            if u <= threshold:
                return cls
        return self.cumulative[-1][1]

    def admit(self, now: float, queue_depth: int, priority: PriorityClass) -> bool:
        if (
            priority.max_queue_depth is not None
            and queue_depth >= priority.max_queue_depth
        ):
            self.last_reason = f"queue-gate-{priority.name}"
            return False
        if self.bucket is not None and not self.bucket.take(now):
            self.last_reason = "rate-limit"
            return False
        self.last_reason = ""
        return True


def render_resilience_rows(result) -> List[Tuple[str, str]]:
    """(metric, value) rows for the ``repro serve`` report table,
    from a :class:`~repro.serving.slo.ServingResult`."""
    return [
        ("requests shed", result.requests_shed),
        ("requests failed loudly", result.requests_failed),
        ("requests retried", result.requests_retried),
        ("requests hedged", result.requests_hedged),
        ("failovers", result.failovers),
        ("breaker opens", result.breaker_opens),
        ("goodput (in-SLO req/s)", f"{result.goodput_rps:.1f}"),
        ("SLO attainment", f"{result.slo_attainment * 100:.2f}%"),
    ]


def render_detector_rows(result) -> List[Tuple[str, str]]:
    """Detector rows for the serve report — the same MTTD /
    false-suspicion / false-confirm stats ``repro faults`` reports as
    table columns."""
    return [
        ("detector MTTD (s)", f"{result.mttd:.3f}"),
        ("false suspicions", result.false_suspicions),
        ("false confirms", result.false_confirms),
    ]
