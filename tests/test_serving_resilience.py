"""Fault-tolerant serving: resilience primitives, failover, chaos, and
the request-conservation audit.

Covers the resilience layer (`repro.serving.resilience`), the fault
wiring in the serving engine (crashes mid-request and mid-hand-off,
detector-driven failover, replay with exactly-once accounting), the
serving chaos harness, and the determinism/conservation properties the
ISSUE demands.
"""

import dataclasses
import os

import pytest

from repro import validate
from repro.faults import (
    ChaosHarness,
    DetectorConfig,
    FailureDetector,
    FaultSchedule,
    NodeCrash,
    NodeRepair,
    ServingChaosScenario,
)
from repro.faults.chaos import COMPLETED, FAILED_LOUD
from repro.serving import (
    AdmissionController,
    CircuitBreaker,
    PriorityClass,
    ResilienceConfig,
    RetryBudget,
    ServingEngine,
    ServingView,
    TokenBucket,
    default_resilience,
    make_serving_policy,
    make_trace,
    render_detector_rows,
    render_resilience_rows,
)
from repro.serving.policies import node_available
from repro.serving.resilience import RetryPolicy
from repro.sim.rng import DeterministicRng
from repro.validate.conservation import check_serving
from repro.validate.errors import InvariantViolation

from tests.helpers import ARM, X86

MACHINE_ISAS = {ARM: "arm64", X86: "x86_64"}
SERVICE = {ARM: 1.264e-3, X86: 1.985e-4}


def _trace(shape="flash-crowd", requests=1500, horizon_s=4.0, seed=7):
    return make_trace(
        shape, DeterministicRng(seed), requests=requests, horizon_s=horizon_s
    )


def _engine(policy="latency-aware", trace=None, **kwargs):
    kwargs.setdefault("rng", DeterministicRng(42))
    return ServingEngine(
        make_serving_policy(policy),
        trace if trace is not None else _trace(),
        **kwargs,
    )


def _crash(node=ARM, at=1.5, permanent=True, repair=1.0):
    return FaultSchedule(
        [NodeCrash(time=at, node=node, permanent=permanent,
                   repair_seconds=repair)]
    )


def _strip(result):
    return dataclasses.replace(result, metrics={})


# ------------------------------------------------- resilience primitives


class TestResiliencePrimitives:
    def test_token_bucket_refills_at_rate(self):
        bucket = TokenBucket(rate=10.0, burst=2.0)
        assert bucket.take(0.0)
        assert bucket.take(0.0)
        assert not bucket.take(0.0)  # burst exhausted
        assert bucket.take(0.1)  # 0.1 s * 10/s = 1 token back
        assert not bucket.take(0.1)

    def test_retry_budget_is_a_fraction_of_offered(self):
        budget = RetryBudget(fraction=0.1, min_tokens=2)
        assert budget.allow()  # min_tokens floor
        for _ in range(100):
            budget.offer()
        spent = 0
        while budget.allow():
            budget.spend()
            spent += 1
        assert spent == 12  # 2 + 0.1 * 100

    def test_breaker_trips_opens_and_half_opens(self):
        breaker = CircuitBreaker()
        assert breaker.allow(0.0)
        breaker.trip(0.0)
        assert breaker.is_open
        assert breaker.opens == 1
        assert not breaker.allow(1.0)  # still open inside reset window
        assert breaker.allow(2.5)  # half-open probe after BREAKER_RESET_S
        breaker.record_success(2.5)
        assert breaker.state == "closed"
        assert breaker.allow(2.6)

    def test_breaker_touch_restarts_reset_clock(self):
        breaker = CircuitBreaker()
        breaker.trip(0.0)
        breaker.touch(1.9)
        assert not breaker.allow(2.5)  # clock restarted at 1.9
        assert breaker.allow(4.0)

    def test_decorrelated_jitter_bounds(self):
        policy = RetryPolicy(
            ack_timeout_s=0.0, backoff_base_s=1e-3, max_backoff_s=0.05
        )
        prev = 0.0
        for attempt in range(1, 8):
            for u in (0.0, 0.5, 1.0):
                backoff = policy.backoff(attempt, prev, u)
                assert 1e-3 - 1e-12 <= backoff <= 0.05 + 1e-12
            prev = backoff

    def test_deterministic_backoff_without_jitter(self):
        policy = RetryPolicy(
            ack_timeout_s=0.0, backoff_base_s=1e-3, max_backoff_s=1.0,
            jitter=False,
        )
        assert policy.backoff(0, 0.0, 0.99) == pytest.approx(1e-3)
        assert policy.backoff(3, 0.0, 0.01) == pytest.approx(8e-3)

    def test_admission_queue_gate_sheds_by_class(self):
        config = ResilienceConfig(priority_classes=(
            PriorityClass("gold", 0.5),
            PriorityClass("std", 0.5, max_queue_depth=4),
        ))
        admission = AdmissionController(config)
        gold = admission.classify(0.1)
        std = admission.classify(0.9)
        assert (gold.name, std.name) == ("gold", "std")
        assert admission.admit(0.0, queue_depth=100, priority=gold)
        assert not admission.admit(0.0, queue_depth=100, priority=std)
        assert admission.last_reason == "queue-gate-std"
        assert admission.admit(0.0, queue_depth=3, priority=std)

    def test_admission_rate_limit(self):
        config = ResilienceConfig(admit_rate=10.0, admit_burst=1.0)
        admission = AdmissionController(config)
        std = config.priority_classes[0]
        assert admission.admit(0.0, 0, std)
        assert not admission.admit(0.0, 0, std)
        assert admission.last_reason == "rate-limit"
        assert admission.admit(0.2, 0, std)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ResilienceConfig(priority_classes=())
        # A negative hedge surcharge finished hedged requests before
        # they started (negative latency).
        with pytest.raises(ValueError, match="hedge_overhead_s must be >= 0"):
            ResilienceConfig(hedge_delay_s=0.004, hedge_overhead_s=-1.0)
        assert ResilienceConfig().inert
        assert not default_resilience().inert


    @pytest.mark.parametrize("kwargs, message", [
        (dict(weight=0.0), "weight must be > 0"),
        (dict(weight=-0.5), "weight must be > 0"),
        # A gate of depth 0 (or less) shed every request of the class.
        (dict(weight=1.0, max_queue_depth=0), "max_queue_depth must be None or >= 1"),
        (dict(weight=1.0, max_queue_depth=-1), "max_queue_depth must be None or >= 1"),
    ])
    def test_priority_class_validation(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            PriorityClass("std", **kwargs)
        PriorityClass("std", 1.0, max_queue_depth=1)


# ------------------------------------------------- fault-free identity


class TestFaultFreeIdentity:
    def test_inert_resilience_is_bit_identical(self):
        bare = _engine().run()
        inert = _engine(resilience=ResilienceConfig()).run()
        assert _strip(bare) == _strip(inert)

    def test_resilience_fields_zero_without_faults(self):
        result = _engine().run()
        assert result.requests_shed == 0
        assert result.requests_failed == 0
        assert result.requests_retried == 0
        assert result.requests_hedged == 0
        assert result.failovers == 0
        assert result.breaker_opens == 0
        assert result.goodput_rps > 0.0
        assert 0.0 < result.slo_attainment <= 1.0

    def test_same_seed_same_result(self):
        assert _strip(_engine().run()) == _strip(_engine().run())


# --------------------------------------------------- crashes & failover


class TestCrashFailover:
    def test_omniscient_crash_fails_inflight_loudly_and_fails_over(self):
        # Pin the service to ARM and kill it mid-surge, so a request is
        # guaranteed in flight when the node dies.
        engine = _engine(
            policy="static-arm", faults=_crash(at=1.7)
        )
        result = engine.run()
        assert result.failovers == 1
        assert result.mttd == 0.0  # no detector = known instantly
        # The in-flight request died with the node; everything else
        # completed on the survivor.  Nothing is silently dropped.
        assert result.requests_failed >= 1
        assert result.requests == (
            result.requests_completed
            + result.requests_shed
            + result.requests_failed
        )
        assert all(r.failed_reason for r in engine.failed)
        assert engine.location == X86

    def test_detector_failover_measures_mttd(self):
        detector = FailureDetector(DetectorConfig())
        result = _engine(faults=_crash(), detector=detector).run()
        assert result.failovers == 1
        assert result.mttd > 0.0  # heartbeat misses + lease, not instant
        assert result.requests == (
            result.requests_completed
            + result.requests_shed
            + result.requests_failed
        )

    def test_retries_replay_crash_killed_requests(self):
        result = _engine(
            policy="static-arm", faults=_crash(at=1.7),
            resilience=default_resilience(),
        ).run()
        assert result.requests_retried >= 1
        assert result.retry_attempts >= result.requests_retried
        assert result.requests == (
            result.requests_completed
            + result.requests_shed
            + result.requests_failed
        )

    def test_transient_crash_repairs_and_serves_again(self):
        # Repair lands before the trace ends; service resumes, and the
        # standby carried the load meanwhile via failover.
        result = _engine(
            faults=_crash(at=1.0, permanent=False, repair=0.5)
        ).run()
        assert result.failovers >= 1
        assert result.requests_completed > 0
        assert result.requests == (
            result.requests_completed
            + result.requests_shed
            + result.requests_failed
        )

    def test_total_outage_fails_everything_loudly(self):
        faults = FaultSchedule([
            NodeCrash(time=1.0, node=ARM, permanent=True),
            NodeCrash(time=1.2, node=X86, permanent=True),
        ])
        result = _engine(faults=faults).run()
        assert result.requests_failed > 0
        assert result.requests == (
            result.requests_completed
            + result.requests_shed
            + result.requests_failed
        )

    def test_crash_of_standby_is_harmless(self):
        # latency-aware starts on ARM; kill x86 while the queue is calm.
        trace = _trace(shape="steady", requests=800, horizon_s=4.0)
        bare = _engine(trace=trace).run()
        crashed = _engine(
            trace=trace,
            faults=_crash(node=X86, at=0.5),
        ).run()
        assert crashed.requests_completed == bare.requests_completed
        assert crashed.requests_failed == 0
        assert crashed.failovers == 0

    def test_unknown_crash_node_rejected(self):
        with pytest.raises(ValueError):
            _engine(faults=_crash(node="no-such-box"))

    def test_repair_event_alone_is_accepted(self):
        faults = FaultSchedule([
            NodeCrash(time=1.0, node=ARM, permanent=True),
            NodeRepair(time=2.0, node=ARM),
        ])
        result = _engine(faults=faults).run()
        assert result.requests == (
            result.requests_completed
            + result.requests_shed
            + result.requests_failed
        )


# ------------------------------------------------ shedding and hedging


class TestSheddingAndHedging:
    def test_queue_gate_sheds_under_flash_crowd(self):
        result = _engine(
            policy="static-arm", resilience=default_resilience()
        ).run()
        assert result.requests_shed > 0
        assert result.requests == (
            result.requests_completed
            + result.requests_shed
            + result.requests_failed
        )

    def test_deadline_fails_stale_requests_loudly(self):
        engine = _engine(
            policy="static-arm",
            resilience=ResilienceConfig(request_timeout_s=0.02),
        )
        result = engine.run()
        assert result.requests_failed > 0
        assert engine.failed
        assert {r.failed_reason for r in engine.failed} == {
            "deadline-exceeded"
        }
        assert result.requests == (
            result.requests_completed
            + result.requests_shed
            + result.requests_failed
        )

    def test_hedging_races_the_other_machine(self):
        engine = _engine(
            policy="static-arm",
            resilience=ResilienceConfig(
                hedge_delay_s=0.004, hedge_overhead_s=0.0005
            ),
        )
        result = engine.run()
        assert result.requests_hedged > 0
        hedged = [r for r in engine.completed if r.hedged]
        assert hedged
        assert all(r.machine == X86 for r in hedged)
        assert result.requests == (
            result.requests_completed
            + result.requests_shed
            + result.requests_failed
        )


# --------------------------------------------- conservation audit fires


class TestConservationAudit:
    def test_silent_drop_is_detected(self):
        engine = _engine(trace=_trace(requests=300, horizon_s=1.0))
        result = engine.run()
        engine.completed.pop()  # simulate a silently lost request
        with pytest.raises(InvariantViolation) as exc:
            check_serving(engine, 300, result)
        assert exc.value.invariant == "requests-conserved"

    def test_duplicate_completion_is_detected(self):
        engine = _engine(trace=_trace(requests=300, horizon_s=1.0))
        result = engine.run()
        engine.failed.append(engine.completed[0])  # double-bucketed
        with pytest.raises(InvariantViolation) as exc:
            check_serving(engine, 300, result)
        assert exc.value.invariant == "request-exactly-once"

    def test_validated_faulted_run_passes_the_audit(self):
        before = validate._forced
        validate.set_enabled(True)
        try:
            result = _engine(
                faults=_crash(), resilience=default_resilience()
            ).run()
        finally:
            validate.set_enabled(before)
        assert result.requests == (
            result.requests_completed
            + result.requests_shed
            + result.requests_failed
        )


# --------------------------------------------------- policy awareness


class TestFaultAwarePolicies:
    def _view(self, **overrides):
        base = dict(
            now=5.0,
            machine=ARM,
            machines=dict(MACHINE_ISAS),
            service_s=dict(SERVICE),
            queue_depth=0,
            in_service=False,
            migrating=False,
            rate=100.0,
            prev_rate=100.0,
            slo_s=0.010,
            blackout_s=0.0023,
            since_commit_s=10.0,
            nodes_up={ARM: True, X86: True},
            breaker_open={ARM: False, X86: False},
        )
        base.update(overrides)
        return ServingView(**base)

    def test_node_available_defaults_true(self):
        # The fault-free view: every node up, every breaker closed.
        view = self._view()
        assert node_available(view, ARM)
        assert node_available(view, X86)

    def test_down_or_broken_nodes_are_unavailable(self):
        view = self._view(
            nodes_up={ARM: True, X86: False},
            breaker_open={ARM: True, X86: False},
        )
        assert not node_available(view, X86)  # down
        assert not node_available(view, ARM)  # breaker open

    def test_queue_reactive_skips_dead_fast_machine(self):
        policy = make_serving_policy("queue-reactive")
        surge = self._view(queue_depth=50)
        assert surge.queue_depth > policy.surge_queue
        assert policy.decide(surge).target == X86
        dead = self._view(
            queue_depth=50, nodes_up={ARM: True, X86: False}
        )
        assert policy.decide(dead) is None

    def test_latency_aware_moves_on_shed_pressure(self):
        policy = make_serving_policy("latency-aware")
        view = self._view(shed_recent=5)
        decision = policy.decide(view)
        assert decision is not None
        assert decision.target == X86
        assert decision.reason == "shed-overload"

    def test_latency_aware_ignores_shed_when_fast_is_down(self):
        policy = make_serving_policy("latency-aware")
        view = self._view(
            shed_recent=5, nodes_up={ARM: True, X86: False}
        )
        decision = policy.decide(view)
        assert decision is None or decision.target != X86

    def test_engine_defers_decision_at_dead_target(self):
        # The engine gate, not just the policy: a static policy never
        # decides, so drive queue-reactive into a surge with x86 dead.
        engine = _engine(
            policy="queue-reactive", faults=_crash(node=X86, at=0.1)
        )
        result = engine.run()
        assert result.requests == (
            result.requests_completed
            + result.requests_shed
            + result.requests_failed
        )
        assert engine.location == ARM  # never migrated to the dead box


# -------------------------------------------------------- determinism


class TestDeterminism:
    def test_same_seed_same_faults_bit_identical(self):
        def run():
            return _strip(_engine(
                faults=_crash(),
                detector=FailureDetector(DetectorConfig()),
                resilience=default_resilience(),
            ).run())

        assert run() == run()

    def test_shed_retry_hedge_counts_are_deterministic(self):
        def run():
            r = _engine(
                policy="static-arm",
                faults=_crash(node=ARM, at=2.0),
                resilience=default_resilience(),
            ).run()
            return (
                r.requests_shed, r.requests_retried, r.requests_hedged,
                r.retry_attempts, r.requests_failed,
            )

        assert run() == run()


# ----------------------------------------- to_job_arrivals composition


class TestServingArrivalsUnderClusterFaults:
    def _run(self):
        from repro.datacenter import ClusterSimulator, make_policy
        from repro.faults import make_recovery, single_crash
        from repro.machine import make_xeon_e5_1650v2, make_xgene1
        from repro.serving import to_job_arrivals

        trace = _trace(shape="flash-crowd", requests=800, horizon_s=60.0)
        arrivals = to_job_arrivals(
            trace, DeterministicRng(11), every=100
        )
        sim = ClusterSimulator(
            [make_xgene1("arm"), make_xeon_e5_1650v2("x86")],
            make_policy("dynamic-balanced"),
            faults=single_crash(5.0, "x86", repair_seconds=30.0),
            recovery=make_recovery("evacuate-live"),
        )
        return arrivals, sim.run_periodic(arrivals)

    def test_jobs_conserved_under_node_crash(self):
        arrivals, result = self._run()
        assert result.requests == len(arrivals)
        assert result.requests_failed == 0

    def test_bit_identical_across_reruns(self):
        _, a = self._run()
        _, b = self._run()
        assert dataclasses.replace(a, metrics={}, fault_trace=[]) == \
            dataclasses.replace(b, metrics={}, fault_trace=[])
        assert len(a.fault_trace) == len(b.fault_trace)


# --------------------------------------------------------------- chaos


class TestServingChaos:
    @pytest.fixture(scope="class")
    def report(self):
        scenario = ServingChaosScenario(
            name="test.flash.qr", requests=1200, horizon_s=3.0
        )
        return ChaosHarness(scenario).enumerate()

    def test_no_violations(self, report):
        assert report.violations == []
        assert report.cases

    def test_handoff_phases_enumerated(self, report):
        steps = {case.site.step for case in report.cases}
        assert {
            "serve.admit", "serve.enqueue", "serve.serve",
            "serve.complete", "serve.handoff.prepare",
            "serve.handoff.transfer", "serve.handoff.publish",
            "serve.handoff.commit",
        } <= steps

    def test_every_case_completed_or_failed_loud(self, report):
        assert all(
            case.outcome in (COMPLETED, FAILED_LOUD)
            for case in report.cases
        )

    def test_soak_is_deterministic(self):
        scenario = ServingChaosScenario(
            name="test.soak", requests=600, horizon_s=2.0
        )

        def run():
            rep = ChaosHarness(scenario).soak(6, seed=77)
            return [
                (c.site.seq, c.victim, c.outcome) for c in rep.cases
            ]

        picks = run()
        assert picks == run()
        # Pinned: the soak stream name and the pick order are part of
        # the harness contract (CI soak lines must not move silently).
        assert picks == [
            (905, X86, COMPLETED), (972, X86, COMPLETED),
            (1876, X86, COMPLETED), (2081, ARM, COMPLETED),
            (920, X86, COMPLETED), (2150, X86, COMPLETED),
        ]

    def test_resilient_scenario_has_no_violations(self):
        scenario = ServingChaosScenario(
            name="test.res", requests=800, horizon_s=2.5, resilient=True
        )
        report = ChaosHarness(scenario).enumerate()
        assert report.violations == []


# ------------------------------------------------------------- reports


class TestReportRows:
    def test_resilience_rows_render(self):
        result = _engine(
            faults=_crash(), resilience=default_resilience()
        ).run()
        rows = dict(render_resilience_rows(result))
        assert rows["requests shed"] == result.requests_shed
        assert rows["failovers"] == result.failovers
        assert rows["SLO attainment"].endswith("%")

    def test_detector_rows_match_faults_report_stats(self):
        detector = FailureDetector(DetectorConfig())
        result = _engine(faults=_crash(), detector=detector).run()
        rows = dict(render_detector_rows(result))
        assert rows["detector MTTD (s)"] == f"{result.mttd:.3f}"
        assert rows["false suspicions"] == result.false_suspicions
        assert rows["false confirms"] == result.false_confirms
