"""The open-loop request lifecycle engine.

A single-served KV service (Redis is single-threaded) lives on one
machine of the heterogeneous pair and serves an
:class:`~repro.serving.traffic.ArrivalTrace` *open-loop*: arrivals
never wait for completions, so overload shows up as queueing delay —
the regime the paper's closed batch experiments (Figs. 12–13) never
enter.  Per-request service time comes from the same cost accounting
the instruction-level interpreter charges (the workload's analytic
instruction budget through the machine's per-class CPIs, via
``datacenter.job.job_duration``), so the serving numbers agree with
the batch layer's.

Live migration reuses the two-phase hand-off shape of the kernel layer
(``kernel/migration.py``): the service drains its in-flight request to
a migration point, then PREPARE (stack transform) → TRANSFER (context
+ hot working set) → PUBLISH (replicated proc-table) → COMMIT
(rebind) — the service is blacked out from drain to commit, and every
request whose wait overlaps that window has the overlap attributed to
migration in its latency breakdown (and, when tracing is on, as a
``serve.stall.migration`` child span on its critical path).  After
COMMIT the next ``DSM_WARMUP_REQUESTS`` requests pay the
residual on-demand DSM pull, spread evenly.

Energy follows the consolidation story of the paper's unbalanced
policies: the machine *not* hosting the service is parked (draws no
power — the fleet reclaims or sleeps it), both machines are awake for
the duration of a hand-off, and the hosting machine draws idle or
one-core-busy power from its measured model (ARM through the McPAT
FinFET projection, as in the cluster simulator).

**Failures.**  The engine optionally consumes a
:class:`~repro.faults.models.FaultSchedule` (node crashes/repairs,
link degradation, partitions) and the PR-4 heartbeat/lease
:class:`~repro.faults.detector.FailureDetector`; who is up, fenced and
heard lives in the :class:`~repro.faults.membership.Membership` view
the cluster simulator shares, observed from the front end (outside
every partition island).  A crash kills the
node's in-flight work at the crash instant (ground truth); *recovery*
waits for the detector's CONFIRM verdict (or happens immediately when
no detector is attached — the omniscient baseline, MTTD 0).  A
confirmed-dead serving node triggers **failover**: the service is
restored on a surviving node of the other ISA (a replicated-proc-table
publish + rebind, with a cold DSM warm-up unless the two-phase
TRANSFER had already landed the hot set there), and crash-killed
requests are replayed there under the resilience layer's retry policy
— or failed *loudly*, never silently dropped.  The
:mod:`repro.serving.resilience` layer adds deadlines, retry budgets
with decorrelated-jitter backoff, hedged requests, per-node circuit
breakers, and admission control; all of it is inert by default, so a
fault-free run with no resilience config is bit-identical to the
pre-resilience engine.  Under ``REPRO_VALIDATE=1`` every run is
audited for request conservation: *offered == completed + shed +
failed-loudly*, each request in exactly one bucket.
"""

import bisect
import math
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Dict, List, Mapping, Optional, Tuple

from repro import validate
from repro.datacenter.job import (
    COMMIT_S, DEFAULT_INTERCONNECT_BW, HANDOFF_S, HOT_FRACTION, PUBLISH_S,
    TRANSFORM_S, JobSpec, job_duration,
)
from repro.faults.detector import FailureDetector
from repro.faults.membership import DEAD, FENCE, REJOIN, Membership
from repro.faults.models import FaultSchedule
from repro.machine.machine import Machine, make_xeon_e5_1650v2, make_xgene1
from repro.machine.mcpat import arm_finfet_power
from repro.serving.policies import ServingPolicy
from repro.serving.resilience import (
    MAX_ATTEMPTS,
    MIN_RETRY_TOKENS,
    RETRY_BACKOFF,
    RETRY_BUDGET_FRACTION,
    AdmissionController,
    CircuitBreaker,
    ResilienceConfig,
    RetryBudget,
)
from repro.serving.slo import DEFAULT_SLO_S, ServingResult, slo_report
from repro.serving.traffic import ArrivalTrace
from repro.sim.numeric import ordered_sum
from repro.sim.rng import DeterministicRng


#: The ``(time, rank)`` of "no event": it orders after every real one.
_NEVER = (math.inf, 10)
#: What :meth:`ServingEngine._drain` returns after it left early: it
#: orders before every event, so no sparse event found again equals it.
_LEFT_EARLY = (-math.inf, -1)


def _fault_order(entry) -> Tuple[float, int, str]:
    """Fault-list order: time, action rank, then the machine (a crash
    entry carries its NodeCrash) or the window's description."""
    time, rank, _, payload = entry
    return time, rank, str(getattr(payload, "node", payload))


class Request:
    """One KV request's lifecycle timestamps and latency breakdown.

    A slotted plain class: the engine makes one per arrival.
    """

    __slots__ = (
        "index", "arrival_s", "start_s", "finish_s", "machine",
        "migration_stall_s", "warmup_extra_s", "priority", "attempts",
        "last_backoff_s", "hedged", "failed_reason",
    )

    def __init__(self, index: int, arrival_s: float):
        self.index = index
        self.arrival_s = arrival_s
        self.start_s: Optional[float] = None
        self.finish_s: Optional[float] = None
        self.machine: Optional[str] = None
        #: Wait attributed to an overlapping migration blackout.
        self.migration_stall_s = 0.0
        #: Extra service paid to the post-migration DSM warm-up.
        self.warmup_extra_s = 0.0
        #: Admission priority class (``resilience.PriorityClass`` name).
        self.priority = "std"
        #: Service starts so far (a crash-killed start is replayed).
        self.attempts = 0
        #: Last decorrelated-jitter backoff drawn for this request.
        self.last_backoff_s = 0.0
        #: Served on the non-home machine by the tail-latency hedge.
        self.hedged = False
        #: Why the request failed loudly (``None`` while alive/completed).
        self.failed_reason: Optional[str] = None

    @property
    def latency_s(self) -> float:
        """End-to-end latency (completion minus arrival)."""
        if self.finish_s is None:
            raise ValueError(f"request {self.index} not finished")
        return self.finish_s - self.arrival_s

    @property
    def queue_wait_s(self) -> float:
        """Time spent queued before service began."""
        if self.start_s is None:
            raise ValueError(f"request {self.index} never started")
        return self.start_s - self.arrival_s


#: Seconds between policy decision epochs.
DECISION_PERIOD_S = 0.05
#: Trailing window for the arrival-rate estimate policies see.
RATE_WINDOW_S = 0.5
#: How many post-COMMIT requests share the residual DSM warm-up
#: surcharge after a hand-off (the hand-off itself is priced by the
#: migration price table in :mod:`repro.datacenter.job`).  The
#: destination receives only the ``HOT_FRACTION`` of the working set
#: eagerly during TRANSFER; the remaining cold pages are pulled on
#: demand by the first requests served there, so each of the next
#: ``DSM_WARMUP_REQUESTS`` requests pays ``(1 - HOT_FRACTION) *
#: footprint / bandwidth / DSM_WARMUP_REQUESTS`` extra service time.
#: After a crash *failover* (no TRANSFER happened — the source died
#: with the hot set) the same count of requests amortises the **full**
#: footprint instead.  See ``docs/serving.md``.
DSM_WARMUP_REQUESTS = 64


@dataclass(frozen=True)
class ServingView:
    """What a policy sees at a decision epoch (all deterministic)."""

    now: float
    machine: str  # where the service currently lives
    machines: Mapping[str, str]  # machine name -> ISA name
    service_s: Mapping[str, float]  # per-request service time by machine
    queue_depth: int
    in_service: bool
    migrating: bool
    rate: float  # arrivals/s over the trailing window
    prev_rate: float  # the window before that (trend detection)
    slo_s: float
    blackout_s: float  # engine's hand-off outage estimate
    since_commit_s: float  # seconds since the last hand-off committed
    #: machine -> is it up (alive and unfenced)?
    nodes_up: Dict[str, bool]
    #: machine -> is its circuit breaker open?
    breaker_open: Dict[str, bool]
    #: Requests shed by admission control since the previous epoch.
    shed_recent: int = 0


@dataclass
class _Handoff:
    """One in-flight service hand-off's timeline."""

    src: str
    dst: str
    decided_at: float
    reason: str
    phase: str = "drain"  # drain -> blackout phases -> (committed)
    next_at: Optional[float] = None
    blackout_start: Optional[float] = None
    commit_at: Optional[float] = None
    phase_ends: List[Tuple[str, float]] = field(default_factory=list)
    #: Chaos-announced phase boundaries still to step through.
    pending: List[Tuple[str, float]] = field(default_factory=list)
    #: Node whose ground-truth crash froze this hand-off (verdict due).
    frozen_by: Optional[str] = None
    #: Does ``dst`` hold the hot set (TRANSFER landed)?  False only for
    #: a cold failover, whose warm-up pulls the full footprint.
    warm: bool = True


class ServingEngine:
    """Runs one arrival trace against one policy on the machine pair."""

    def __init__(
        self,
        policy: ServingPolicy,
        trace: ArrivalTrace,
        workload: str = "redis",
        cls: str = "A",
        machines: Optional[List[Machine]] = None,
        slo_s: float = DEFAULT_SLO_S,
        tracer=None,
        start_machine: Optional[str] = None,
        faults: Optional[FaultSchedule] = None,
        detector: Optional[FailureDetector] = None,
        resilience: Optional[ResilienceConfig] = None,
        rng: Optional[DeterministicRng] = None,
    ):
        if tracer is None:
            from repro.telemetry.spans import maybe_tracer

            tracer = maybe_tracer()
        self.tracer = tracer
        if tracer is not None:
            tracer.bind_clock(self)
        if slo_s <= 0:
            raise ValueError("SLO target must be positive")
        self.policy = policy
        self.trace = trace
        self.spec = JobSpec(workload, cls, 1)
        self.slo_s = slo_s
        if machines is None:
            machines = [make_xgene1("arm-server"), make_xeon_e5_1650v2("x86-server")]
        if len(machines) < 2:
            raise ValueError("serving needs the heterogeneous machine pair")
        self.machines: Dict[str, Machine] = {m.name: m for m in machines}
        self._isa_by_machine = {m.name: m.isa.name for m in machines}
        self._powers = {m.name: arm_finfet_power(m) for m in machines}
        self.service_s = {
            m.name: job_duration(self.spec, m)
            / self.spec.profile().params(cls).elements
            for m in machines
        }
        #: Read-only views of both maps, handed to every epoch's policy.
        self._isa_view = MappingProxyType(self._isa_by_machine)
        self._service_view = MappingProxyType(self.service_s)
        footprint = self.spec.profile().params(cls).footprint_bytes
        self._footprint = footprint
        bandwidth = DEFAULT_INTERCONNECT_BW
        #: Drain-to-commit outage of an undegraded hand-off.
        self.blackout_estimate_s = (
            TRANSFORM_S + self._transfer_s(bandwidth) + PUBLISH_S + COMMIT_S
        )
        #: Per-request warm-up after a normal hand-off (cold fraction).
        self._warmup_normal = (
            (1.0 - HOT_FRACTION) * footprint / bandwidth / DSM_WARMUP_REQUESTS
        )
        #: Per-request warm-up after a cold failover (full footprint —
        #: the source died before TRANSFER could push the hot set).
        self._warmup_cold = footprint / bandwidth / DSM_WARMUP_REQUESTS
        self._warmup_extra = self._warmup_normal

        self.location = (
            start_machine
            if start_machine is not None
            else policy.start_machine(self._isa_by_machine)
        )
        if self.location not in self.machines:
            raise KeyError(f"unknown start machine {self.location!r}")

        # ---- faults / detection / resilience ----
        self.detector = detector
        self.resilience = resilience
        self.rng = rng if rng is not None else DeterministicRng(0)
        #: Chaos hook (``at_step(step, roles)``); settable post-ctor.
        self.chaos = None
        # The detector runs in the front end, outside the machine pair:
        # a machine inside any partition island goes unheard.
        self.membership = Membership(
            sorted(self.machines), detector, observer="front-end"
        )
        #: machine -> up (alive and unfenced): the membership's map.
        self._up = self.membership.up
        self._breakers = {name: CircuitBreaker() for name in self.machines}
        self._admission = (
            AdmissionController(resilience) if resilience is not None else None
        )
        self._retry_budget = (
            RetryBudget(RETRY_BUDGET_FRACTION, MIN_RETRY_TOKENS)
            if resilience is not None
            else None
        )
        #: Deadlines or hedges on?  Their events move with the queue
        #: head, so any arrival or departure can move them.
        self._moving_events = resilience is not None and (
            resilience.request_timeout_s is not None
            or resilience.hedge_delay_s is not None
        )
        self._retry_stream = None
        self._priority_stream = None
        #: node -> crash-killed requests awaiting the detector verdict.
        self._orphans: Dict[str, List[Request]] = {}
        #: (ready_at, request) replays waiting out their backoff.
        self._retries: List[Tuple[float, Request]] = []
        self._fault_events = self._expand_faults(faults)
        self._fault_idx = 0
        self._next_hb = detector.period if detector is not None else 0.0
        self._outage_since: Optional[float] = None
        self._dead_end = False
        self._shed_recent = 0
        self._retried_indices = set()
        self._retry_attempts = 0
        self._hedged_count = 0
        self._timed_out = 0

        # ---- mutable run state ----
        self.now = 0.0
        self.queue: List[Request] = []  # FIFO; index 0 is next
        self._queue_head = 0  # pop pointer (avoids O(n) pops)
        self.current: Optional[Request] = None
        self._service_end = 0.0
        self._handoff: Optional[_Handoff] = None
        self._hedge: Optional[Request] = None
        self._hedge_end = 0.0
        self._hedge_machine: Optional[str] = None
        self._warmup_left = 0
        self._last_commit = -1e9
        self.completed: List[Request] = []
        self.shed: List[Request] = []
        self.failed: List[Request] = []
        self.migrations = 0
        self.failovers = 0
        self.handoffs_aborted = 0
        self.deferrals = 0
        self.busy_seconds = 0.0
        self.blackout_seconds = 0.0
        self.handoff_seconds = 0.0
        self.energy_joules = {m.name: 0.0 for m in machines}
        #: (start, end, handoff_span_id) of every completed blackout.
        self._blackouts: List[Tuple[float, float, Optional[int]]] = []
        #: Their end times: blackouts close at ``now``, so this is sorted.
        self._blackout_ends: List[float] = []
        #: Index of the next trace arrival.
        self._next_arrival = 0

    # ------------------------------------------------------------ helpers

    def _expand_faults(self, faults) -> List[Tuple[float, int, str, object]]:
        """Flatten a FaultSchedule into sorted (time, rank, action, payload).

        A crash's repair is not listed here: it is scheduled when the
        crash takes effect (a crash of a dead machine brings none).
        """
        if faults is None:
            return []
        faults.check_nodes(self.machines)
        events: List[Tuple[float, int, str, object]] = []
        for ev in faults:
            kind = getattr(ev, "kind", None)
            if kind == "crash":
                events.append((ev.time, 0, "crash", ev))
            elif kind == "repair":
                events.append((ev.time, 1, "repair", ev.node))
            elif kind == "degrade":
                events.append((ev.time, 2, "degrade-on", ev))
                events.append((ev.time + ev.duration, 3, "degrade-off", ev))
            elif kind == "partition":
                events.append((ev.time, 2, "part-on", ev))
                events.append((ev.time + ev.duration, 3, "part-off", ev))
            else:
                raise ValueError(f"serving cannot apply fault event {ev!r}")
        return sorted(events, key=_fault_order)

    def _transfer_s(self, bandwidth: float) -> float:
        """TRANSFER duration: the resume-token message plus the eager
        hot-set push."""
        return HANDOFF_S + HOT_FRACTION * self._footprint / bandwidth

    def _other_machine(self) -> Optional[str]:
        """The best available machine that is not the current home."""
        pool = [m for m in self.machines if m != self.location and self._up[m]]
        if not pool:
            return None
        return min(pool, key=lambda m: (self.service_s[m], m))

    def _site(self, step: str, roles: Optional[Dict[str, str]] = None) -> None:
        """Announce a crashable serving protocol step to the chaos hook."""
        if self.chaos is None:
            return
        if roles is None:
            roles = {"serving": self.location}
            other = [m for m in sorted(self.machines) if m != self.location]
            if other:
                roles["standby"] = other[0]
        self.chaos.at_step(step, roles)

    def inject_crash(self, node: str) -> None:
        """Ground-truth crash of ``node`` right now (chaos-harness hook)."""
        if node not in self.machines:
            raise KeyError(f"unknown machine {node!r}")
        self._on_node_crash(node)

    def _queue_depth(self) -> int:
        return len(self.queue) - self._queue_head

    def _pop_queue(self) -> Request:
        request = self.queue[self._queue_head]
        self._queue_head += 1
        if self._queue_head > 4096 and self._queue_head * 2 > len(self.queue):
            del self.queue[: self._queue_head]
            self._queue_head = 0
        return request

    def _push_front(self, request: Request) -> None:
        """Re-insert a replayed request at the head (it is the oldest)."""
        if self._queue_head > 0:
            self._queue_head -= 1
            self.queue[self._queue_head] = request
        else:
            self.queue.insert(0, request)

    def _rate_between(self, t0: float, t1: float) -> float:
        if t1 <= t0:
            return 0.0
        return self.trace.arrivals_between(max(t0, 0.0), t1) / (t1 - t0)

    def _watts(self, busy: bool) -> Dict[str, float]:
        """Each machine's draw, with the home machine serving (``busy``)
        or idle."""
        watts = {}
        for name, power in self._powers.items():
            if not self._up[name]:
                watts[name] = 0.0  # dead, or ostracised: powered off
            elif name == self.location:
                watts[name] = power.cpu_power(1.0 if busy else 0.0)
            elif self._handoff is not None:
                # Both boxes are awake for the duration of a hand-off.
                watts[name] = power.cpu_power(
                    1.0 if self._handoff.phase != "drain" else 0.0
                )
            elif self._hedge is not None and name == self._hedge_machine:
                watts[name] = power.cpu_power(1.0)  # racing the hedge
            else:
                watts[name] = 0.0  # parked: the fleet reclaimed the box
        return watts

    def _hedge_here(self) -> bool:
        """Does the hedge occupy the service's home machine?"""
        return self._hedge is not None and self._hedge_machine == self.location

    def _accrue(self, dt: float) -> None:
        """Integrate both machines' power over ``dt`` seconds."""
        if dt <= 0:
            return
        busy = self.current is not None or self._hedge_here()
        for name, watts in self._watts(busy).items():
            self.energy_joules[name] += watts * dt

    # ----------------------------------------------------------- service

    def _start_next(self) -> None:
        """Begin serving the head-of-queue request (if any, and allowed)."""
        if self.current is not None or self._handoff is not None:
            return
        if self._queue_depth() == 0:
            return
        if not self._up[self.location]:
            return  # home is down; failover/repair will resume service
        if self._hedge is not None and self._hedge_machine == self.location:
            return  # the hedge occupies this box; wait for it to finish
        if self.chaos is not None:
            self._site("serve.serve")
            if not self._up[self.location]:
                return  # the chaos crash fired at the serve site
        request = self._pop_queue()
        request.start_s = self.now
        request.machine = self.location
        request.attempts += 1
        service = self.service_s[self.location]
        if self._warmup_left > 0:
            request.warmup_extra_s = self._warmup_extra
            service += self._warmup_extra
            self._warmup_left -= 1
            if self._warmup_left == 0:
                self._end_warmup()
        self._attribute_stall(request)
        self.current = request
        self._service_end = self.now + service

    def _blackouts_since(self, arrival_s: float):
        """The blackouts that ended after ``arrival_s``: no earlier one
        can overlap a wait that began then."""
        first = bisect.bisect_right(self._blackout_ends, arrival_s)
        return self._blackouts[first:]

    def _attribute_stall(self, request: Request) -> None:
        """Attribute wait overlapping past blackouts to migration stall."""
        for b0, b1, _ in self._blackouts_since(request.arrival_s):
            overlap = min(b1, request.start_s) - max(b0, request.arrival_s)
            if overlap > 1e-12:
                request.migration_stall_s += overlap

    def _on_hedge_departure(self) -> None:
        request = self._hedge
        request.finish_s = self.now
        self.busy_seconds += self.now - request.start_s
        self._hedge = None
        machine = self._hedge_machine
        self._hedge_machine = None
        self.completed.append(request)
        breaker = self._breakers[machine]
        if breaker.state != "closed":
            breaker.record_success(self.now)
        if self.tracer is not None:
            self._emit_request_span(request)
        self._start_next()

    def _emit_request_span(self, request: Request) -> None:
        tracer = self.tracer
        attrs = {
            "req": request.index,
            "queue_s": round(request.queue_wait_s, 9),
            "service_s": round(request.finish_s - request.start_s, 9),
        }
        if request.warmup_extra_s:
            attrs["warmup_s"] = round(request.warmup_extra_s, 9)
        if request.hedged:
            attrs["hedged"] = True
        if request.attempts > 1:
            attrs["attempts"] = request.attempts
        span = tracer.complete(
            "serve.request", "serve", request.arrival_s,
            request.latency_s, track=request.machine, **attrs,
        )
        if request.migration_stall_s > 0.0:
            # The stall is the part of the wait spent inside blackouts:
            # one child per overlapping blackout, flow-linked to the
            # hand-off that caused it — the request's critical path
            # shows exactly which migration cost it how much.
            for b0, b1, cause in self._blackouts_since(request.arrival_s):
                lo = max(b0, request.arrival_s)
                hi = min(b1, request.start_s)
                if hi - lo > 1e-12:
                    stall_attrs = {"req": request.index}
                    if cause is not None:
                        stall_attrs["flow"] = cause
                    tracer.complete(
                        "serve.stall.migration", "serve", lo, hi - lo,
                        track=request.machine, parent=span, **stall_attrs,
                    )
            tracer.metrics.histogram("serve.stall_s").observe(
                request.migration_stall_s
            )
        tracer.metrics.counter("serve.completed").inc()
        tracer.metrics.histogram("serve.latency_s").observe(request.latency_s)
        tracer.metrics.histogram("serve.queue_wait_s").observe(
            request.queue_wait_s
        )

    # ------------------------------------------------------- resilience

    def _retry_u(self) -> float:
        if self._retry_stream is None:
            self._retry_stream = self.rng.stream("serve.retry")
        return self._retry_stream.random()

    def _priority_u(self) -> float:
        if self._priority_stream is None:
            self._priority_stream = self.rng.stream("serve.priority")
        return self._priority_stream.random()

    def _fail_request(self, request: Request, reason: str) -> None:
        """The request fails *loudly*: counted, spanned, never dropped."""
        request.failed_reason = reason
        self.failed.append(request)
        if reason == "deadline-exceeded":
            self._timed_out += 1
        if self.tracer is not None:
            self.tracer.instant(
                "serve.failed", "serve", track=self.location,
                req=request.index, reason=reason,
            )
            self.tracer.metrics.counter("serve.failed").inc()

    def _retry_or_fail(self, request: Request, reason: str) -> None:
        """Replay a crash-killed request under the retry policy, or fail."""
        res = self.resilience
        if (
            res is not None
            and request.attempts < MAX_ATTEMPTS
            and self._retry_budget.allow()
        ):
            self._retry_budget.spend()
            self._retry_attempts += 1
            self._retried_indices.add(request.index)
            backoff = RETRY_BACKOFF.backoff(
                request.attempts, request.last_backoff_s, self._retry_u(),
            )
            request.last_backoff_s = backoff
            self._retries.append((self.now + backoff, request))
            if self.tracer is not None:
                self.tracer.instant(
                    "serve.retry", "serve", track=self.location,
                    req=request.index, attempt=request.attempts,
                    backoff_s=round(backoff, 9),
                )
                self.tracer.metrics.counter("serve.retries").inc()
        elif res is not None and request.attempts >= MAX_ATTEMPTS:
            self._fail_request(request, "retries-exhausted")
        elif res is not None:
            self._fail_request(request, "retry-budget-exhausted")
        else:
            self._fail_request(request, reason)

    def _resolve_orphans(self, node: str) -> None:
        """The verdict on ``node`` is in: replay (or fail) its victims."""
        for request in self._orphans.pop(node, []):
            self._retry_or_fail(request, "service-crashed")

    def _release_retries(self) -> None:
        """Re-queue every replay whose backoff has elapsed."""
        due = [(t, r) for t, r in self._retries if t <= self.now + 1e-12]
        if not due:
            return
        self._retries = [
            (t, r) for t, r in self._retries if t > self.now + 1e-12
        ]
        # Head insertion in reverse-arrival order keeps the queue
        # sorted by arrival (replays are older than anything queued).
        for _, request in sorted(due, key=lambda e: -e[1].index):
            self._push_front(request)
        self._start_next()

    def _expire_deadlines(self) -> None:
        """Fail every waiting request whose client gave up."""
        timeout = self.resilience.request_timeout_s
        while (
            self._queue_depth() > 0
            and self.queue[self._queue_head].arrival_s + timeout
            <= self.now + 1e-12
        ):
            self._fail_request(self._pop_queue(), "deadline-exceeded")
        keep = []
        for ready, request in self._retries:
            if request.arrival_s + timeout <= self.now + 1e-12:
                self._fail_request(request, "deadline-exceeded")
            else:
                keep.append((ready, request))
        self._retries = keep

    def _launch_hedge(self) -> None:
        """Race the longest-waiting request on the other (idle) machine."""
        res = self.resilience
        if (
            self._hedge is not None
            or self._handoff is not None
            or self._queue_depth() == 0
        ):
            return
        machine = self._other_machine()
        if machine is None or not self._breakers[machine].allow(self.now):
            return
        request = self._pop_queue()
        request.start_s = self.now
        request.machine = machine
        request.attempts += 1
        request.hedged = True
        self._attribute_stall(request)
        self._hedge = request
        self._hedge_machine = machine
        self._hedge_end = self.now + self.service_s[machine] + res.hedge_overhead_s
        self._hedged_count += 1
        if self.tracer is not None:
            self.tracer.instant(
                "serve.hedge", "serve", track=machine, req=request.index,
            )
            self.tracer.metrics.counter("serve.hedges").inc()

    # ------------------------------------------------- faults & failover

    def _on_node_crash(
        self, node: str, repair_at: Optional[float] = None
    ) -> None:
        """Ground truth: ``node`` dies *now* (and comes back at
        ``repair_at``, if given).  In-flight work is killed immediately;
        recovery waits for the detector's CONFIRM verdict (instantaneous
        when no detector is attached).  A dead node's crash is a no-op,
        repair included."""
        if not self.membership.crash(node, self.now):
            return
        if repair_at is not None:
            repair = (repair_at, 1, "repair", node)
            idx = self._fault_idx
            pending = [_fault_order(e) for e in self._fault_events[idx:]]
            idx += bisect.bisect_right(pending, _fault_order(repair))
            self._fault_events.insert(idx, repair)
        if self.tracer is not None:
            self.tracer.instant("serve.node.crash", "serve", track=node)
            self.tracer.metrics.counter("serve.node_crashes").inc()
        self._kill_work_on(node)
        handoff = self._handoff
        if handoff is not None and node in (handoff.src, handoff.dst):
            # The protocol stalls until the detector renders a verdict.
            handoff.frozen_by = node
            handoff.next_at = None
        if self.detector is None:
            # Omniscient baseline: crash known the instant it happens.
            self._on_node_confirmed_dead(
                node, self.membership.confirm(node, self.now)
            )

    def _kill_work_on(self, node: str) -> None:
        """Orphan the request (and hedge) running on ``node``; they wait
        for the verdict on ``node`` before replaying."""
        if self.current is not None and self.location == node:
            request = self.current
            self.current = None
            self.busy_seconds += self.now - request.start_s
            request.start_s = None
            request.machine = None
            self._orphans.setdefault(node, []).append(request)
        if self._hedge is not None and self._hedge_machine == node:
            request = self._hedge
            self._hedge = None
            self._hedge_machine = None
            self.busy_seconds += self.now - request.start_s
            request.start_s = None
            request.machine = None
            self._orphans.setdefault(node, []).append(request)

    def _on_node_repair(self, node: str) -> None:
        if not self.membership.repair(node, self.now):
            return
        self._breakers[node].touch(self.now)
        if self.tracer is not None:
            self.tracer.instant("serve.node.repair", "serve", track=node)
            self.tracer.metrics.counter("serve.node_repairs").inc()
        self._resolve_orphans(node)
        handoff = self._handoff
        if handoff is not None and handoff.frozen_by == node:
            handoff.frozen_by = None
            if handoff.phase == "failover":
                handoff.next_at = self.now + PUBLISH_S + COMMIT_S
            elif handoff.phase == "drain":
                if self.current is None:
                    self._begin_blackout(handoff)
            else:
                self._begin_blackout(handoff)  # the transfer restarts
        self._resume_service("repair-failover")

    def _resume_service(self, reason: str) -> None:
        """A machine came back: if the service's home is still down,
        fail over to the best machine that is up, then serve."""
        if (
            not self._up[self.location]
            and self._handoff is None
            and not self._dead_end
        ):
            self._begin_failover(
                reason, warm=False, blackout_start=self._outage_since
            )
            self._outage_since = None
        self._start_next()

    def _on_node_confirmed_dead(self, node: str, verdict: str) -> None:
        """The membership view fenced ``node`` on a DEAD or (false
        confirm) FENCE verdict: trip its breaker, resolve its orphans,
        and fail over if it was hosting the service or party to a
        hand-off."""
        now = self.now
        crash_t = self.membership.crashed_at(node)
        self._breakers[node].trip(now)
        if self.tracer is not None:
            self.tracer.instant(
                "serve.node.dead", "serve", track=node,
                false=verdict == FENCE,
            )
            self.tracer.metrics.counter("serve.node_deaths").inc()
        if verdict == FENCE:
            # False confirm: the live node is ostracised — it must stop
            # serving, so its in-flight work is killed like a crash's.
            self._kill_work_on(node)
        self._resolve_orphans(node)
        handoff = self._handoff
        if handoff is not None:
            if handoff.phase == "failover":
                if node == handoff.dst:
                    self._handoff = None
                    self._begin_failover(
                        handoff.reason, warm=False,
                        blackout_start=handoff.blackout_start,
                    )
            elif node == handoff.dst:
                self._close_handoff(abort="dst-dead")
            elif node == handoff.src:
                transfer_end = dict(handoff.phase_ends).get("transfer")
                death_t = crash_t if crash_t is not None else now
                self._handoff = None
                if (
                    transfer_end is not None
                    and death_t >= transfer_end - 1e-12
                ):
                    # TRANSFER landed before the source died: the hot
                    # set is at dst — promote it (warm restore).
                    self.migrations += 1
                    self._begin_failover(
                        "promote-dst", warm=True,
                        blackout_start=handoff.blackout_start,
                    )
                else:
                    self.handoffs_aborted += 1
                    self._begin_failover(
                        "src-dead", warm=False,
                        blackout_start=(
                            handoff.blackout_start
                            if handoff.blackout_start is not None
                            else now
                        ),
                    )
        if node == self.location and self._handoff is None:
            self._begin_failover("node-dead", warm=False)

    def _begin_failover(
        self,
        reason: str,
        warm: bool,
        blackout_start: Optional[float] = None,
    ) -> None:
        """Restore the service on a surviving node (or record an outage)."""
        now = self.now
        survivors = [m for m in sorted(self.machines) if self._up[m]]
        if not survivors:
            # Total outage: wait for a repair; if none can ever come,
            # every waiting request fails loudly (the dead end).
            self._outage_since = (
                blackout_start if blackout_start is not None else now
            )
            if not self._revive_possible():
                self._fail_everything()
            return
        allowed = [m for m in survivors if self._breakers[m].allow(now)]
        pool = allowed if allowed else survivors
        target = min(pool, key=lambda m: (self.service_s[m], m))
        restore = PUBLISH_S + COMMIT_S
        self._handoff = _Handoff(
            src=self.location, dst=target, decided_at=now, reason=reason,
            phase="failover",
            blackout_start=blackout_start if blackout_start is not None else now,
            next_at=now + restore, commit_at=now + restore, warm=warm,
        )
        self.failovers += 1
        if self.tracer is not None:
            self.tracer.metrics.counter("serve.failovers").inc()

    def _revive_possible(self) -> bool:
        """Can any machine ever serve again (repair pending, or a live
        fenced node that could rejoin)?"""
        for _, _, action, _ in self._fault_events[self._fault_idx:]:
            if action == "repair":
                return True
        return bool(self.membership.ostracised())

    def _fail_everything(self) -> None:
        """Dead end — no machine can ever serve again.  Every waiting
        request fails loudly so nothing is silently stranded."""
        self._dead_end = True
        while self._queue_depth() > 0:
            self._fail_request(self._pop_queue(), "no-capacity")
        for _, request in self._retries:
            self._fail_request(request, "no-capacity")
        self._retries = []
        for node in list(self._orphans):
            for request in self._orphans.pop(node):
                self._fail_request(request, "no-capacity")

    # -------------------------------------------------------- detection

    def _heartbeat_round(self) -> None:
        for event, node in self.membership.heartbeat(self.now):
            if event == REJOIN:
                # A falsely fenced node was heard again.
                self._breakers[node].touch(self.now)
                self._resume_service("rejoin-failover")
            elif event in (DEAD, FENCE):
                self._on_node_confirmed_dead(node, event)
        self._next_hb += self.detector.period

    # ---------------------------------------------------------- hand-off

    def _initiate_handoff(self, target: str, reason: str) -> None:
        handoff = _Handoff(
            src=self.location, dst=target, decided_at=self.now, reason=reason
        )
        self._handoff = handoff
        if self.tracer is not None:
            self.tracer.metrics.counter("serve.handoffs").inc()
        if self.current is None:
            self._begin_blackout(handoff)
        # else: drain — blackout begins when the in-flight request ends.

    def _begin_blackout(self, handoff: _Handoff) -> None:
        handoff.phase = "transform"
        if handoff.blackout_start is None:
            handoff.blackout_start = self.now
        handoff.phase_ends = []
        t = self.now + TRANSFORM_S
        handoff.phase_ends.append(("transform", t))
        t += self._transfer_s(self.membership.bandwidth(DEFAULT_INTERCONNECT_BW))
        handoff.phase_ends.append(("transfer", t))
        t += PUBLISH_S
        handoff.phase_ends.append(("publish", t))
        t += COMMIT_S
        handoff.phase_ends.append(("commit", t))
        handoff.commit_at = t
        if self.chaos is not None:
            # Step through every phase boundary so the chaos harness can
            # crash either party at each protocol site.
            ends = dict(handoff.phase_ends)
            handoff.pending = [
                ("serve.handoff.transfer", ends["transform"]),
                ("serve.handoff.publish", ends["transfer"]),
                ("serve.handoff.commit", ends["publish"]),
            ]
            handoff.next_at = handoff.pending[0][1]
            self._site(
                "serve.handoff.prepare",
                {"src": handoff.src, "dst": handoff.dst},
            )
        else:
            handoff.next_at = t

    def _advance_handoff(self) -> None:
        """Chaos-mode phase stepping: announce the next phase boundary."""
        handoff = self._handoff
        step, _ = handoff.pending.pop(0)
        handoff.phase = step.rsplit(".", 1)[1]
        handoff.next_at = (
            handoff.pending[0][1] if handoff.pending else handoff.commit_at
        )
        self._site(step, {"src": handoff.src, "dst": handoff.dst})

    def _close_handoff(self, abort: Optional[str] = None) -> None:
        """End the hand-off now.  It commits — a migration, or a
        failover's restore — and the service relocates to ``dst``; or,
        given an ``abort`` reason, it rolls back and the service stays.
        Settles the hand-off and blackout time either way."""
        handoff = self._handoff
        self._handoff = None
        now = self.now
        self.handoff_seconds += now - handoff.decided_at
        if abort is not None:
            self.handoffs_aborted += 1
        else:
            self.location = handoff.dst
            self._last_commit = now
            self._warmup_left = DSM_WARMUP_REQUESTS
            self._warmup_extra = (
                self._warmup_normal if handoff.warm else self._warmup_cold
            )
            if handoff.phase != "failover":
                self.migrations += 1
        span_id = None
        if self.tracer is not None:
            span_id = self._emit_handoff_spans(handoff, abort)
        if handoff.blackout_start is not None:
            self.blackout_seconds += now - handoff.blackout_start
            self._blackouts.append((handoff.blackout_start, now, span_id))
            self._blackout_ends.append(now)
        self._start_next()

    def _emit_handoff_spans(
        self, handoff: _Handoff, abort: Optional[str]
    ) -> Optional[int]:
        """Trace a closed hand-off: the ``serve.handoff`` tree of a
        commit, a failover's ``serve.failover``, or an abort instant.
        Returns the span its blackout's stalls flow-link to."""
        tracer = self.tracer
        if abort is not None:
            tracer.instant(
                "serve.handoff.abort", "serve", track=handoff.src,
                dst=handoff.dst, reason=abort,
            )
            tracer.metrics.counter("serve.handoffs_aborted").inc()
            return None
        if handoff.phase == "failover":
            return tracer.complete(
                "serve.failover", "serve", handoff.blackout_start,
                self.now - handoff.blackout_start, track=handoff.dst,
                src=handoff.src, dst=handoff.dst, reason=handoff.reason,
                warm=handoff.warm,
            ).span_id
        parent = tracer.complete(
            "serve.handoff", "serve", handoff.decided_at,
            self.now - handoff.decided_at, track=handoff.dst,
            src=handoff.src, dst=handoff.dst, reason=handoff.reason,
            service=str(self.spec),
        )
        # PREPARE covers the drain to a migration point plus the stack
        # transform; the remaining children mirror the kernel protocol.
        prepare_end = dict(handoff.phase_ends)["transform"]
        tracer.complete(
            "serve.prepare", "serve", handoff.decided_at,
            prepare_end - handoff.decided_at, track=handoff.src,
            parent=parent,
            drain_s=round(handoff.blackout_start - handoff.decided_at, 9),
            transform_s=TRANSFORM_S,
        )
        cursor = prepare_end
        for name, end in handoff.phase_ends[1:]:
            track = handoff.src if name == "transfer" else handoff.dst
            tracer.complete(
                f"serve.{name}", "serve", cursor, end - cursor,
                track=track, parent=parent,
            )
            cursor = end
        tracer.metrics.histogram("serve.blackout_s").observe(
            self.now - handoff.blackout_start
        )
        return parent.span_id

    def _end_warmup(self) -> None:
        if self.tracer is not None and self._blackouts:
            b0, b1, cause = self._blackouts[-1]
            attrs = {"requests": DSM_WARMUP_REQUESTS}
            if cause is not None:
                attrs["flow"] = cause
            self.tracer.complete(
                "serve.warmup", "serve", b1, self.now - b1,
                track=self.location, **attrs,
            )

    # ----------------------------------------------------------- policy

    def _run_epoch(self) -> None:
        w = RATE_WINDOW_S
        view = ServingView(
            now=self.now,
            machine=self.location,
            machines=self._isa_view,
            service_s=self._service_view,
            queue_depth=self._queue_depth(),
            in_service=self.current is not None,
            migrating=self._handoff is not None,
            rate=self._rate_between(self.now - w, self.now),
            prev_rate=self._rate_between(self.now - 2 * w, self.now - w),
            slo_s=self.slo_s,
            blackout_s=self.blackout_estimate_s,
            since_commit_s=self.now - self._last_commit,
            nodes_up={m: self._up[m] for m in self.machines},
            breaker_open={m: self._breakers[m].is_open for m in self.machines},
            shed_recent=self._shed_recent,
        )
        self._shed_recent = 0
        decision = self.policy.decide(view)
        if decision is None:
            return
        if self.tracer is not None:
            self.tracer.instant(
                "serve.decision", "serve", track=self.location,
                policy=self.policy.name, target=decision.target,
                reason=decision.reason,
            )
            self.tracer.metrics.counter("serve.decisions").inc()
        if decision.target is None:
            self._defer(decision.reason)
            return
        if decision.target == self.location:
            return
        if decision.target not in self.machines:
            raise KeyError(f"policy chose unknown machine {decision.target!r}")
        if (
            not self._up[decision.target]
            or not self._up[self.location]
            or not self._breakers[decision.target].allow(self.now)
            or self._hedge is not None
        ):
            # The engine is the last line of defence: a decision aimed
            # at a dead / fenced / breaker-open node (or landing while
            # a hedge occupies the target) becomes an explicit deferral.
            self._defer("target-unavailable")
            return
        self._initiate_handoff(decision.target, decision.reason)

    def _defer(self, reason: str) -> None:
        self.deferrals += 1
        if self.tracer is not None:
            self.tracer.instant(
                "serve.defer", "serve", track=self.location,
                policy=self.policy.name, reason=reason,
            )
            self.tracer.metrics.counter("serve.deferrals").inc()

    # -------------------------------------------------------------- run

    def run(self) -> ServingResult:
        """Drive the trace to completion and summarise the run.

        Each pass finds the next *sparse* event (anything but an
        arrival or a departure), drains the arrivals and departures
        that order before it, and fires it.  A drain that served
        anything finds the next sparse event again before one fires:
        its last departure may have ended the run, and then no epoch
        follows.  It drains again only after it left early or when
        that event changed; otherwise nothing orders before the event.

        Events order by ``(time, rank)``.  The ranks: hand-off phase 0,
        departure 1, hedge departure 2, fault 3, arrival 4, retry
        release 5, deadline 6, hedge launch 7, heartbeat 8, decision
        epoch 9.  The original four (0 < 1 < 4 < 9) keep their relative
        order, so fault-free runs match the pre-resilience engine.
        """
        n = len(self.trace.times)
        next_epoch = DECISION_PERIOD_S
        ran_to = None  # the stop the last drain ran up to
        while True:
            static = self._static_event(n, next_epoch)
            stop = (
                min(static, self._moving_event())
                if self._moving_events else static
            )
            if stop != ran_to:
                ran_to = self._drain(stop, static)
                if ran_to is not None:
                    continue
            ran_to = None
            if stop == _NEVER:
                break
            t, rank = stop
            self._accrue(t - self.now)
            self.now = t
            if rank == 0:
                if self._handoff.pending:
                    self._advance_handoff()
                else:
                    self._close_handoff()
            elif rank == 2:
                self._on_hedge_departure()
            elif rank == 3:
                while (
                    self._fault_idx < len(self._fault_events)
                    and self._fault_events[self._fault_idx][0]
                    <= self.now + 1e-12
                ):
                    _, _, action, payload = self._fault_events[
                        self._fault_idx
                    ]
                    self._fault_idx += 1
                    self._apply_fault(action, payload)
            elif rank == 5:
                self._release_retries()
            elif rank == 6:
                self._expire_deadlines()
            elif rank == 7:
                self._launch_hedge()
            elif rank == 8:
                self._heartbeat_round()
            else:
                self._run_epoch()
                next_epoch = self.now + DECISION_PERIOD_S

        result = self._result(n)
        if validate.enabled():
            from repro.validate.conservation import check_serving

            check_serving(self, n, result)
        return result

    def _static_event(self, n: int, next_epoch: float) -> Tuple[float, int]:
        """The earliest sparse event that arrivals and departures cannot
        move (every rank but 6 and 7), or ``_NEVER``."""
        handoff = self._handoff
        candidates = [_NEVER]
        if handoff is not None and handoff.next_at is not None:
            candidates.append((handoff.next_at, 0))
        if self._hedge is not None:
            candidates.append((self._hedge_end, 2))
        if self._retries:
            candidates.append((min(t for t, _ in self._retries), 5))
        work_left = (
            self._next_arrival < n
            or self._queue_depth() > 0
            or self.current is not None
            or self._hedge is not None
            or handoff is not None
            or bool(self._retries)
            or any(self._orphans.values())
        )
        if work_left:
            if self._fault_idx < len(self._fault_events):
                candidates.append(
                    (self._fault_events[self._fault_idx][0], 3)
                )
            if self.detector is not None:
                candidates.append((self._next_hb, 8))
            candidates.append((next_epoch, 9))
        return min(candidates)

    def _moving_event(self) -> Tuple[float, int]:
        """The earliest deadline (rank 6) or hedge launch (rank 7), or
        ``_NEVER``.  Asks the other machine's breaker ``allow(now)``,
        which can half-open it: call this once before every event."""
        res = self.resilience
        best = _NEVER
        depth = self._queue_depth()
        if res.request_timeout_s is not None:
            deadline = None
            if depth > 0:
                deadline = (
                    self.queue[self._queue_head].arrival_s
                    + res.request_timeout_s
                )
            for _, request in self._retries:
                d = request.arrival_s + res.request_timeout_s
                if deadline is None or d < deadline:
                    deadline = d
            if deadline is not None:
                best = (max(deadline, self.now), 6)
        if (
            res.hedge_delay_s is not None
            and self._hedge is None
            and self._handoff is None
            and depth > 0
        ):
            machine = self._other_machine()
            if machine is not None and self._breakers[machine].allow(
                self.now
            ):
                ready = (
                    self.queue[self._queue_head].arrival_s + res.hedge_delay_s
                )
                best = min(best, (max(ready, self.now), 7))
        return best

    def _drain(
        self, stop: Tuple[float, int], static: Tuple[float, int]
    ) -> Optional[Tuple[float, int]]:
        """Serve, in ``(time, rank)`` order, the arrivals (rank 4) and
        departures (rank 1) that order before the sparse event ``stop``.

        It leaves early whenever the event it served can move the next
        sparse event: a departure while a hand-off is pending (it may
        start the blackout), and any event under a chaos hook (a
        protocol site may crash a node).  With deadlines or hedges on,
        ``stop`` is re-read from ``static`` and :meth:`_moving_event`
        before every event.

        The server lives in locals for the whole drain: the clock, the
        request in service, its end, the busy time and the next
        arrival time, and each machine's energy, which accrues event
        by event in the same order.  They are written back before any
        call that can read them, read again after one that can change
        them, and written back when the drain returns.  A request
        starts here unless a hand-off, a down home, a hedge on it or a
        chaos hook holds it; all four change only at sparse events, so
        they are tested once.  Otherwise (and during the warm-up) it
        starts through :meth:`_start_next`.

        Returns ``None`` if it served nothing, ``_LEFT_EARLY`` if it
        left early, and otherwise the stop it ran up to: the next
        arrival or departure orders after it.
        """
        times = self.trace.times
        n = len(times)
        idx = self._next_arrival
        current = self.current
        if idx >= n and current is None:
            return None
        stop_t, stop_rank = stop
        moving = self._moving_events
        chaos = self.chaos
        tracer = self.tracer
        queue = self.queue
        completed = self.completed
        admission = self._admission
        retry_budget = self._retry_budget
        dead_end = self._dead_end
        # Does an arrival need more than a place in the queue?
        gated = (
            tracer is not None or retry_budget is not None or dead_end
            or chaos is not None or admission is not None
        )
        location = self.location
        breaker = self._breakers[location]
        handoff = self._handoff
        home_up = self._up[location]
        hedge_here = self._hedge_here()
        inline = (
            handoff is None and home_up and not hedge_here and chaos is None
        )
        service = self.service_s[location]
        # No earlier blackout can overlap a wait that began after the
        # last one ended, and blackouts end only at sparse events.
        ends = self._blackout_ends
        last_end = ends[-1] if ends else -math.inf
        # Only the home machine's draw depends on whether it is serving.
        # The others draw a constant until an event this drain stops
        # at, and a parked one (0 W) adds nothing.
        energy = self.energy_joules
        idle = self._watts(hedge_here)
        home_idle = idle[location]
        home_busy = self._powers[location].cpu_power(1.0) if home_up else 0.0
        home_joules = energy[location]
        others = [
            [name, watts, energy[name]]
            for name, watts in idle.items()
            if name != location and watts
        ]
        never = math.inf
        now = self.now
        service_end = self._service_end
        busy = self.busy_seconds
        arrival = times[idx] if idx < n else never
        served = early = False
        while True:
            # On equal times the departure goes first.
            if current is not None and service_end <= arrival:
                t = service_end
                if t > stop_t or (t == stop_t and stop_rank < 1):
                    break
                dt = t - now
                if dt > 0:
                    home_joules += home_busy * dt
                    for other in others:
                        other[2] += other[1] * dt
                now = t
                served = True
                if chaos is not None:
                    self.now, self.current = now, current
                    self._service_end, self.busy_seconds = service_end, busy
                    self._site("serve.complete")
                    current, service_end = self.current, self._service_end
                    busy, handoff = self.busy_seconds, self._handoff
                    if current is None or not self._up[location]:
                        early = True
                        break  # the crash beat the completion: replay
                request, current = current, None
                request.finish_s = now
                busy += now - request.start_s
                completed.append(request)
                if breaker.state != "closed":
                    breaker.record_success(now)
                if tracer is not None:
                    self.now, self.current = now, None
                    self._service_end, self.busy_seconds = service_end, busy
                    self._emit_request_span(request)
                if handoff is not None:
                    if handoff.phase == "drain" and handoff.frozen_by is None:
                        self.now, self.current = now, None
                        self._service_end = service_end
                        self.busy_seconds = busy
                        self._begin_blackout(handoff)
                        current, service_end = self.current, self._service_end
                        busy = self.busy_seconds
                    early = True
                    break
                start = len(queue) > self._queue_head
            elif idx < n:
                t = arrival
                if t > stop_t or (t == stop_t and stop_rank < 4):
                    break
                dt = t - now
                if dt > 0:
                    if current is not None:
                        home_joules += home_busy * dt
                    else:
                        home_joules += home_idle * dt
                    for other in others:
                        other[2] += other[1] * dt
                now = t
                served = True
                request = Request(idx, t)
                idx += 1
                arrival = times[idx] if idx < n else never
                admitted = True
                if gated:
                    if tracer is not None:
                        tracer.metrics.counter("serve.requests").inc()
                    # Admission control at the door: classify, gate,
                    # then enqueue or shed.
                    if retry_budget is not None:
                        retry_budget.offer()
                    if dead_end:
                        self.now, self.current = now, current
                        self._service_end = service_end
                        self.busy_seconds = busy
                        self._fail_request(request, "no-capacity")
                        admitted = False
                    else:
                        if chaos is not None:
                            self.now, self.current = now, current
                            self._service_end = service_end
                            self.busy_seconds = busy
                            self._site("serve.admit")
                            current = self.current
                            service_end = self._service_end
                            busy = self.busy_seconds
                        if admission is not None:
                            if len(admission.cumulative) > 1:
                                priority = admission.classify(
                                    self._priority_u()
                                )
                            else:
                                priority = admission.cumulative[0][1]
                            request.priority = priority.name
                            admitted = admission.admit(
                                now, len(queue) - self._queue_head, priority
                            )
                            if not admitted:
                                self.shed.append(request)
                                self._shed_recent += 1
                                if tracer is not None:
                                    self.now = now
                                    tracer.instant(
                                        "serve.shed", "serve",
                                        track=location, req=request.index,
                                        reason=admission.last_reason,
                                        priority=priority.name,
                                    )
                                    tracer.metrics.counter("serve.shed").inc()
                        if admitted and chaos is not None:
                            self.now, self.current = now, current
                            self._service_end = service_end
                            self.busy_seconds = busy
                            self._site("serve.enqueue")
                            current = self.current
                            service_end = self._service_end
                            busy = self.busy_seconds
                if admitted:
                    queue.append(request)
                start = admitted and current is None
            else:
                break
            if start:
                if inline and not self._warmup_left:
                    # _start_next, with its preconditions tested above.
                    head = self._queue_head
                    request = queue[head]
                    head += 1
                    if head > 4096 and head * 2 > len(queue):
                        del queue[:head]
                        head = 0
                    self._queue_head = head
                    request.start_s = now
                    request.machine = location
                    request.attempts += 1
                    if request.arrival_s < last_end:
                        self._attribute_stall(request)
                    current = request
                    service_end = now + service
                else:
                    self.now, self.current = now, current
                    self._service_end, self.busy_seconds = service_end, busy
                    self._start_next()
                    current, service_end = self.current, self._service_end
                    busy = self.busy_seconds
            if chaos is not None:
                early = True
                break
            if moving:
                self.now = now
                stop_t, stop_rank = min(static, self._moving_event())
        self.now, self.current = now, current
        self._service_end, self.busy_seconds = service_end, busy
        self._next_arrival = idx
        energy[location] = home_joules
        for name, _, joules in others:
            energy[name] = joules
        if not served:
            return None
        return _LEFT_EARLY if early else (stop_t, stop_rank)

    def _apply_fault(self, action: str, payload) -> None:
        if action == "crash":
            self._on_node_crash(
                payload.node,
                None if payload.permanent
                else payload.time + payload.repair_seconds,
            )
        elif action == "repair":
            self._on_node_repair(payload)
        elif action == "degrade-on":
            self.membership.degradations.append(payload)
        elif action == "degrade-off":
            self.membership.degradations.remove(payload)
        elif action == "part-on":
            self.membership.islands.append(tuple(payload.island))
        elif action == "part-off":
            self.membership.islands.remove(tuple(payload.island))

    def _result(self, admitted: int) -> ServingResult:
        # One pass builds the latencies and adds the stall in
        # ``ordered_sum``'s order (see repro.sim.numeric).
        latencies = []
        stall = 0
        for r in self.completed:
            latencies.append(r.finish_s - r.arrival_s)
            stall += r.migration_stall_s
        slo = slo_report(latencies, self.slo_s)
        in_slo = slo["requests_completed"] - slo["slo_violations"]
        detector = self.detector
        return ServingResult(
            makespan=self.now,
            energy_by_machine=dict(self.energy_joules),
            requests=admitted,
            requests_completed=slo["requests_completed"],
            requests_shed=len(self.shed),
            requests_failed=len(self.failed),
            migrations=self.migrations,
            migration_stall_seconds=stall,
            p50_latency_s=slo["p50_latency_s"],
            p99_latency_s=slo["p99_latency_s"],
            p999_latency_s=slo["p999_latency_s"],
            policy=self.policy.name,
            mean_response=slo["mean_response"],
            max_latency_s=slo["max_latency_s"],
            slo_target_s=self.slo_s,
            slo_violations=slo["slo_violations"],
            slo_violation_seconds=slo["slo_violation_seconds"],
            busy_seconds=self.busy_seconds,
            overhead_seconds=self.blackout_seconds,
            handoffs_aborted=self.handoffs_aborted,
            handoff_seconds=self.handoff_seconds,
            mttd=self.membership.mttd,
            false_suspicions=(
                detector.stats.false_suspicions if detector is not None else 0
            ),
            false_confirms=(
                detector.stats.false_confirms if detector is not None else 0
            ),
            requests_retried=len(self._retried_indices),
            requests_hedged=self._hedged_count,
            retry_attempts=self._retry_attempts,
            failovers=self.failovers,
            breaker_opens=ordered_sum(b.opens for b in self._breakers.values()),
            goodput_rps=in_slo / self.now if self.now > 0 else 0.0,
            slo_attainment=in_slo / admitted if admitted else 0.0,
            metrics=(
                self.tracer.metrics.snapshot()
                if self.tracer is not None
                else {}
            ),
        )
