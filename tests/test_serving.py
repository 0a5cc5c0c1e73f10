"""Open-loop serving subsystem tests (traffic, engine, SLO, policies)."""

import dataclasses
import hashlib

import pytest

from repro import validate
from repro.datacenter.job import (
    COMMIT_S, DEFAULT_INTERCONNECT_BW, HANDOFF_S, PUBLISH_S, RESPONSE_S,
    TRANSFORM_S, migration_penalty,
)
from repro.faults import (
    DetectorConfig,
    FailureDetector,
    FaultSchedule,
    LinkDegradation,
    NetworkPartition,
    NodeCrash,
)
from repro.serving import (
    DEFAULT_SLO_S,
    ArrivalTrace,
    Decision,
    LatencyAwareServing,
    PriorityClass,
    QueueReactiveServing,
    ResilienceConfig,
    ServingEngine,
    ServingView,
    StaticArmServing,
    StaticX86Serving,
    TRAFFIC_SHAPES,
    default_resilience,
    diurnal,
    flash_crowd,
    make_serving_policy,
    make_trace,
    predicted_tail_s,
    render_slo_rows,
    slo_report,
    steady,
    to_job_arrivals,
)
from repro.serving.engine import DECISION_PERIOD_S
from repro.sim.rng import DeterministicRng
from repro.telemetry.metrics import SampleHistogram, percentiles, quantile
from repro.telemetry.spans import Tracer, check_causality

from tests.helpers import ARM, X86

MACHINE_ISAS = {ARM: "arm64", X86: "x86_64"}
#: Rough measured per-request service times (redis.A, seconds).
SERVICE = {ARM: 1.264e-3, X86: 1.985e-4}


def _view(**overrides):
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
        since_commit_s=5.0,
        nodes_up={ARM: True, X86: True},
        breaker_open={ARM: False, X86: False},
    )
    base.update(overrides)
    return ServingView(**base)


# ----------------------------------------------------------------- traffic


class TestTrafficDeterminism:
    @pytest.mark.parametrize("shape", sorted(TRAFFIC_SHAPES))
    def test_same_seed_bit_identical(self, shape):
        a = make_trace(shape, DeterministicRng(7), requests=500)
        b = make_trace(shape, DeterministicRng(7), requests=500)
        assert a.times == b.times
        assert a.checksum() == b.checksum()

    @pytest.mark.parametrize("shape", sorted(TRAFFIC_SHAPES))
    def test_distinct_seeds_distinct(self, shape):
        a = make_trace(shape, DeterministicRng(7), requests=500)
        b = make_trace(shape, DeterministicRng(8), requests=500)
        assert a.times != b.times
        assert a.checksum() != b.checksum()

    @pytest.mark.parametrize("shape", sorted(TRAFFIC_SHAPES))
    def test_count_conserved_and_sorted(self, shape):
        trace = make_trace(shape, DeterministicRng(3), requests=777,
                           horizon_s=10.0)
        assert trace.requests == 777
        assert list(trace.times) == sorted(trace.times)
        assert all(0.0 <= t <= 10.0 for t in trace.times)

    def test_unknown_shape_rejected(self):
        with pytest.raises(KeyError, match="unknown traffic shape"):
            make_trace("tsunami", DeterministicRng(1))


class TestTrafficShapes:
    def test_flash_crowd_concentrates_not_adds(self):
        """The surge redistributes the same requests into the window."""
        base = steady(DeterministicRng(5), requests=4000, horizon_s=20.0)
        crowd = flash_crowd(DeterministicRng(5), requests=4000,
                            horizon_s=20.0, surge_multiplier=8.0)
        assert crowd.requests == base.requests == 4000
        # Surge window [8, 11): far denser than the same steady window.
        assert crowd.arrivals_between(8.0, 11.0) > 3 * base.arrivals_between(
            8.0, 11.0
        )

    def test_flash_crowd_surge_density(self):
        trace = flash_crowd(DeterministicRng(2), requests=4000,
                            horizon_s=20.0, surge_multiplier=8.0)
        surge_rate = trace.arrivals_between(8.0, 11.0) / 3.0
        base_rate = trace.arrivals_between(0.0, 8.0) / 8.0
        assert surge_rate == pytest.approx(8.0 * base_rate, rel=0.25)

    def test_diurnal_peaks_mid_cycle(self):
        trace = diurnal(DeterministicRng(4), requests=4000, horizon_s=20.0,
                        peak_to_trough=4.0, periods=1.0)
        trough = trace.arrivals_between(0.0, 2.0)
        peak = trace.arrivals_between(9.0, 11.0)
        assert peak > 2 * trough

    def test_mean_rate(self):
        trace = steady(DeterministicRng(1), requests=4000, horizon_s=20.0)
        assert trace.mean_rate() == pytest.approx(200.0)

    def test_guards(self):
        with pytest.raises(ValueError):
            diurnal(DeterministicRng(1), peak_to_trough=0.5)
        with pytest.raises(ValueError):
            flash_crowd(DeterministicRng(1), surge_multiplier=0.5)
        with pytest.raises(ValueError):
            flash_crowd(DeterministicRng(1), surge_start_frac=0.9,
                        surge_duration_frac=0.5)

    @pytest.mark.parametrize("shape", sorted(TRAFFIC_SHAPES))
    @pytest.mark.parametrize("kwargs", [
        {"requests": -5}, {"horizon_s": 0.0}, {"horizon_s": -1.0},
    ])
    def test_bad_count_or_horizon_rejected(self, shape, kwargs):
        with pytest.raises(ValueError):
            make_trace(shape, DeterministicRng(1), **kwargs)

    @pytest.mark.parametrize("shape", sorted(TRAFFIC_SHAPES))
    def test_empty_trace_allowed(self, shape):
        assert make_trace(shape, DeterministicRng(1), requests=0).times == ()


class TestJobArrivalComposition:
    def test_subsamples_trace_deterministically(self):
        trace = diurnal(DeterministicRng(9), requests=1000)
        a = to_job_arrivals(trace, DeterministicRng(11), every=100)
        b = to_job_arrivals(trace, DeterministicRng(11), every=100)
        assert a == b
        assert len(a) == 10
        times = [t for t, _ in a]
        assert times == [trace.times[i] for i in range(0, 1000, 100)]

    def test_feeds_cluster_simulator(self):
        from repro.datacenter import ClusterSimulator, make_policy
        from repro.machine import make_xeon_e5_1650v2, make_xgene1

        trace = flash_crowd(DeterministicRng(9), requests=800, horizon_s=60.0)
        arrivals = to_job_arrivals(trace, DeterministicRng(11), every=100)
        sim = ClusterSimulator(
            [make_xgene1("arm"), make_xeon_e5_1650v2("x86")],
            make_policy("dynamic-balanced"),
        )
        result = sim.run_periodic(arrivals)
        assert result.requests == len(arrivals)


# ------------------------------------------------- shared percentile helper


class TestSharedQuantiles:
    def test_quantile_interpolates(self):
        values = [0.0, 10.0]
        assert quantile(values, 0.5) == pytest.approx(5.0)
        assert quantile(values, 0.0) == 0.0
        assert quantile(values, 1.0) == 10.0

    def test_percentiles_empty_is_zeros(self):
        assert percentiles([]) == (0.0, 0.0, 0.0)

    def test_sample_histogram_tracks_samples(self):
        hist = SampleHistogram("h")
        for v in (3.0, 1.0, 2.0):
            hist.observe(v)
        assert hist.count == 3
        assert hist.quantile(0.5) == pytest.approx(2.0)

    def test_analysis_stats_uses_shared_helper(self):
        from repro.analysis import stats
        from repro.telemetry import metrics

        assert stats._quantile is metrics.quantile


# --------------------------------------------------------------------- SLO


class TestSloReport:
    def test_counts_violations_and_excess(self):
        slo = slo_report([0.001, 0.002, 0.015, 0.030], 0.010)
        assert slo["requests_completed"] == 4
        assert slo["slo_violations"] == 2
        assert slo["slo_violation_seconds"] == pytest.approx(0.005 + 0.020)
        assert slo["max_latency_s"] == 0.030
        assert (slo["p50_latency_s"] <= slo["p99_latency_s"]
                <= slo["p999_latency_s"] <= slo["max_latency_s"])

    def test_render_rows_cover_percentiles(self):
        _, result = _run(requests=200)
        rendered = dict(render_slo_rows(result))
        for key in ("latency p50", "latency p99", "latency p999",
                    "SLO violations", "SLO violation seconds"):
            assert key in rendered
        fraction = result.slo_violations / result.requests_completed
        assert rendered["SLO violations"] == (
            f"{result.slo_violations} ({fraction * 100:.2f}%)"
        )

    def test_bad_target_rejected(self):
        with pytest.raises(ValueError):
            slo_report([0.001], 0.0)


# ----------------------------------------------------------------- policies


class TestServingPolicies:
    def test_start_machine_by_isa(self):
        assert StaticX86Serving().start_machine(MACHINE_ISAS) == X86
        assert StaticArmServing().start_machine(MACHINE_ISAS) == ARM
        assert LatencyAwareServing().start_machine(MACHINE_ISAS) == ARM

    def test_predicted_tail_saturates(self):
        assert predicted_tail_s(_view(rate=2000.0), ARM) == float("inf")
        light = predicted_tail_s(_view(rate=100.0), ARM)
        queued = predicted_tail_s(_view(rate=100.0, queue_depth=50), ARM)
        assert queued > light

    def test_latency_aware_upgrades_on_predicted_breach(self):
        decision = LatencyAwareServing().decide(
            _view(machine=ARM, rate=2000.0, queue_depth=20, in_service=True)
        )
        assert decision == Decision(X86, "predicted-tail-breach")

    def test_latency_aware_drains_in_trough(self):
        decision = LatencyAwareServing().decide(
            _view(machine=X86, rate=100.0, prev_rate=100.0)
        )
        assert decision == Decision(ARM, "trough-drain")

    def test_latency_aware_defers_drain_while_crowd_builds(self):
        """Rising arrival rate turns a would-be drain into a deferral."""
        decision = LatencyAwareServing().decide(
            _view(machine=X86, rate=300.0, prev_rate=100.0)
        )
        assert decision == Decision(None, "defer-flash-crowd")

    def test_latency_aware_respects_cooldown(self):
        decision = LatencyAwareServing().decide(
            _view(machine=X86, since_commit_s=0.2)
        )
        assert decision is None

    def test_no_decision_mid_migration(self):
        assert LatencyAwareServing().decide(_view(migrating=True)) is None
        assert QueueReactiveServing().decide(_view(migrating=True)) is None

    def test_queue_reactive_hysteresis(self):
        policy = QueueReactiveServing()
        surge = policy.decide(_view(machine=ARM, queue_depth=20))
        assert surge == Decision(X86, "queue-over-threshold")
        calm = policy.decide(_view(machine=X86, queue_depth=0))
        assert calm == Decision(ARM, "queue-drained")
        assert policy.decide(_view(machine=ARM, queue_depth=5)) is None

    def test_unknown_policy_rejected(self):
        with pytest.raises(KeyError, match="unknown serving policy"):
            make_serving_policy("clairvoyant")


# ------------------------------------------------------------------- engine


def _run(policy="latency-aware", shape="flash-crowd", seed=7, tracer=None,
         requests=2000, **engine_kwargs):
    trace = make_trace(shape, DeterministicRng(seed), requests=requests)
    engine = ServingEngine(
        make_serving_policy(policy), trace, tracer=tracer, **engine_kwargs
    )
    return engine, engine.run()


class TestServingEngine:
    def test_same_seed_identical_result(self):
        _, a = _run()
        _, b = _run()
        assert a == b

    def test_tracing_does_not_perturb_results(self):
        """Traced-on runs are bit-identical to traced-off (metrics aside)."""
        _, untraced = _run()
        _, traced = _run(tracer=Tracer())
        assert dataclasses.replace(traced, metrics={}) == untraced
        assert traced.metrics  # the tracer did record something

    def test_all_requests_complete_open_loop(self):
        engine, result = _run()
        assert result.requests == 2000
        assert result.requests_completed == 2000
        assert result.slo_target_s == DEFAULT_SLO_S
        assert result.p50_latency_s <= result.p99_latency_s
        assert result.p99_latency_s <= result.p999_latency_s

    def test_validate_invariants_pass(self, monkeypatch):
        monkeypatch.setattr(validate, "enabled", lambda: True)
        _, result = _run()
        assert result.requests_completed == result.requests

    def test_static_x86_beats_static_arm_on_latency(self):
        _, x86 = _run("static-x86")
        _, arm = _run("static-arm")
        assert x86.p99_latency_s < arm.p99_latency_s
        assert x86.migrations == arm.migrations == 0

    def test_static_arm_beats_static_x86_on_energy(self):
        _, x86 = _run("static-x86", shape="steady")
        _, arm = _run("static-arm", shape="steady")
        assert arm.total_energy < 0.25 * x86.total_energy

    def test_latency_aware_migrates_under_flash_crowd(self):
        engine, result = _run(requests=8000)
        assert result.migrations >= 1
        assert result.handoff_seconds > 0
        assert result.overhead_seconds > 0
        assert result.migration_stall_seconds > 0

    def test_warmup_surcharge_after_commit(self):
        engine, result = _run(requests=8000)
        warmed = [r for r in engine.completed if r.warmup_extra_s > 0]
        assert len(warmed) == engine.config.dsm_warmup_requests * result.migrations

    def test_run_keeps_its_slo_report(self):
        engine, result = _run()
        slo = slo_report([r.latency_s for r in engine.completed], engine.slo_s)
        assert {name: getattr(result, name) for name in slo} == slo
        assert result.slo_target_s == engine.slo_s

    @pytest.mark.parametrize("slo_s", [0.0, -0.01])
    def test_nonpositive_slo_rejected(self, slo_s):
        trace = make_trace("steady", DeterministicRng(1), requests=10)
        with pytest.raises(ValueError, match="SLO target"):
            ServingEngine(make_serving_policy("static-arm"), trace,
                          slo_s=slo_s)

    def test_unknown_start_machine_rejected(self):
        trace = make_trace("steady", DeterministicRng(1), requests=10)
        with pytest.raises(KeyError):
            ServingEngine(make_serving_policy("static-arm"), trace,
                          start_machine="riscv-server")


class TestServingSpans:
    def test_handoff_spans_mirror_protocol(self):
        tracer = Tracer()
        _, result = _run(requests=8000, tracer=tracer)
        assert result.migrations >= 1
        assert check_causality(tracer.spans) == []
        handoffs = [s for s in tracer.spans if s.name == "serve.handoff"]
        assert len(handoffs) == result.migrations
        phases = {"serve.prepare", "serve.transfer", "serve.publish",
                  "serve.commit"}
        for handoff in handoffs:
            children = {
                s.name for s in tracer.spans
                if s.parent_id == handoff.span_id
            }
            assert phases <= children

    def test_stall_spans_on_affected_critical_paths(self):
        """Requests stalled by a hand-off carry the stall as a child
        span flow-linked to the hand-off that caused it."""
        tracer = Tracer()
        engine, result = _run(requests=8000, tracer=tracer)
        stalled = [r for r in engine.completed if r.migration_stall_s > 0]
        assert stalled, "the flash crowd hand-off should stall requests"
        stalls = [s for s in tracer.spans if s.name == "serve.stall.migration"]
        assert len(stalls) >= len(stalled)
        handoff_ids = {
            s.span_id for s in tracer.spans if s.name == "serve.handoff"
        }
        requests = {
            s.span_id: s for s in tracer.spans if s.name == "serve.request"
        }
        for stall in stalls:
            assert stall.parent_id in requests  # on the request's path
            assert stall.attrs["flow"] in handoff_ids  # caused by a hand-off
        # The per-request breakdown matches the span durations.
        total_span_stall = sum(s.end_s - s.start_s for s in stalls)
        assert total_span_stall == pytest.approx(
            result.migration_stall_seconds
        )

    def test_decisions_are_visible(self):
        tracer = Tracer()
        _run(requests=8000, tracer=tracer)
        decisions = [s for s in tracer.spans if s.name == "serve.decision"]
        assert decisions
        for span in decisions:
            assert span.attrs["policy"] == "latency-aware"
            assert "reason" in span.attrs

    def test_metrics_snapshot_in_result(self):
        _, result = _run(tracer=Tracer())
        assert result.metrics["serve.requests"] == 2000
        assert result.metrics["serve.completed"] == 2000
        assert result.metrics["serve.latency_s"]["count"] == 2000


class TestOnePriceTable:
    """The serving hand-off and ``migration_penalty`` (cluster and
    fleet) price a move from the same table."""

    def test_handoff_pays_the_migration_penalty_terms(self):
        tracer = Tracer()
        engine, result = _run(requests=8000, tracer=tracer)
        assert result.migrations >= 1
        spec = engine.spec
        assert spec.threads == 1
        bw = DEFAULT_INTERCONNECT_BW
        footprint = spec.profile().params(spec.cls).footprint_bytes
        handoff = next(s for s in tracer.spans if s.name == "serve.handoff")
        phases = {
            s.name: s for s in tracer.spans if s.parent_id == handoff.span_id
        }
        # The same transform and hand-off-message terms.
        transform = phases["serve.prepare"].attrs["transform_s"]
        assert transform == TRANSFORM_S * spec.threads
        hot_push = phases["serve.transfer"].duration_s - HANDOFF_S * spec.threads
        assert hot_push > 0
        # The same bytes: the hot set in the blackout, plus the warm-up
        # surcharge times the requests that pay it, is the footprint
        # migration_penalty pulls.
        warm = [r.warmup_extra_s for r in engine.completed if r.warmup_extra_s]
        assert len(warm) >= engine.config.dsm_warmup_requests
        moved = (hot_push + warm[0] * engine.config.dsm_warmup_requests) * bw
        assert moved == pytest.approx(footprint, rel=1e-9)
        assert migration_penalty(spec, bw) == pytest.approx(
            RESPONSE_S + transform + HANDOFF_S * spec.threads + moved / bw,
            rel=1e-12,
        )


# ------------------------------------------------------------ golden pins


def _bench_trace(shape, **kwargs):
    return make_trace(shape, DeterministicRng(7), requests=8000, **kwargs)


def _golden_tie_order():
    """A hand-built trace whose arrivals land exactly on other events.

    Sixteen arrivals share one instant, and a queue gate of 14 sheds the
    last.  Four more arrive exactly when a request departs (previous
    start + service).  The first three are admitted only because the
    departure goes first and frees a queue slot; the fourth lands on
    the departure that starts the hand-off the 0.05 s epoch decided.
    One arrival lands on the 0.1 s epoch while x86 is busy, so the
    policy sees it queued and keeps the service there.  The rest land
    on the crash (which must go first, or the request would start on
    the dying node), on the failover's commit, on the 0.15 s epoch and
    on the repair.
    """
    service = ServingEngine(
        make_serving_policy("static-arm"), ArrivalTrace("steady", 1.0, ())
    ).service_s
    period = DECISION_PERIOD_S
    epochs = [period]
    while len(epochs) < 3:
        epochs.append(epochs[-1] + period)
    burst_at, crash_at, repair_s = 0.045, 0.12, 0.05
    times = [burst_at] * 16
    departs = burst_at + service[ARM]
    for _ in range(4):
        times.append(departs)
        departs += service[ARM]
    times += [
        epochs[1] - service[X86] / 2, epochs[1], crash_at,
        crash_at + (PUBLISH_S + COMMIT_S), epochs[2], crash_at + repair_s,
    ]
    return ServingEngine(
        make_serving_policy("queue-reactive"),
        ArrivalTrace("ties", 0.25, tuple(sorted(times))),
        faults=FaultSchedule([
            NodeCrash(time=crash_at, node=X86, repair_seconds=repair_s)
        ]),
        resilience=ResilienceConfig(priority_classes=(
            PriorityClass("std", 1.0, max_queue_depth=14),
        )),
        rng=DeterministicRng(42),
    )


#: name -> a function that makes the engine.  Three are bench cells;
#: the rest put resilience, partitions and exact ties through the
#: engine.  The deadline and hedge delay of "deadline-hedge/static-arm"
#: are shorter than a decision period, so an arrival into an empty
#: queue can bring the next sparse event forward.
_GOLDEN = {
    "flash-crowd/queue-reactive": lambda: ServingEngine(
        make_serving_policy("queue-reactive"), _bench_trace("flash-crowd"),
    ),
    "diurnal/latency-aware": lambda: ServingEngine(
        make_serving_policy("latency-aware"),
        _bench_trace("diurnal", peak_to_trough=6.0, periods=2.0),
    ),
    "crash/failover-only": lambda: ServingEngine(
        make_serving_policy("latency-aware"), _bench_trace("flash-crowd"),
        faults=FaultSchedule([
            NodeCrash(time=8.5, node=X86, repair_seconds=5.0)
        ]),
        detector=FailureDetector(DetectorConfig()),
        rng=DeterministicRng(7),
    ),
    "resilient/static-arm": lambda: ServingEngine(
        make_serving_policy("static-arm"),
        make_trace("flash-crowd", DeterministicRng(7), requests=1500,
                   horizon_s=4.0),
        faults=FaultSchedule([
            NodeCrash(time=2.0, node=ARM, repair_seconds=0.5)
        ]),
        detector=FailureDetector(DetectorConfig()),
        resilience=default_resilience(),
        rng=DeterministicRng(42),
    ),
    "deadline-hedge/static-arm": lambda: ServingEngine(
        make_serving_policy("static-arm"),
        make_trace("flash-crowd", DeterministicRng(7), requests=1500,
                   horizon_s=4.0),
        resilience=ResilienceConfig(
            request_timeout_s=0.02, hedge_delay_s=0.004,
            hedge_overhead_s=0.0005,
        ),
        rng=DeterministicRng(42),
    ),
    "degrade-partition": lambda: ServingEngine(
        make_serving_policy("latency-aware"),
        make_trace("flash-crowd", DeterministicRng(7), requests=4000,
                   horizon_s=10.0),
        faults=FaultSchedule([
            LinkDegradation(time=3.5, duration=2.0, bandwidth_factor=0.25,
                            latency_factor=3.0),
            NetworkPartition(time=3.5, duration=4.0, island=(X86,)),
        ]),
        detector=FailureDetector(DetectorConfig()),
        rng=DeterministicRng(42),
    ),
    "tie-order": _golden_tie_order,
}


def _golden_fingerprint(engine, result):
    """``repr`` of every non-zero scalar and per-machine energy of the
    result, and a digest over every scalar's ``repr`` (zeros too, so an
    int 0 turning into 0.0 shows) and every finished request's
    timeline."""
    scalars = {}
    digest = hashlib.sha256()
    for f in dataclasses.fields(result):
        value = getattr(result, f.name)
        if isinstance(value, (int, float)):
            digest.update(f"{f.name}={value!r};".encode())
            if value:
                scalars[f.name] = repr(value)
    for machine, joules in result.energy_by_machine.items():
        scalars[f"energy:{machine}"] = repr(joules)
    for bucket in (engine.completed, engine.shed, engine.failed):
        for r in bucket:
            digest.update(repr((
                r.index, r.start_s, r.finish_s, r.machine,
                r.migration_stall_s, r.warmup_extra_s, r.attempts, r.hedged,
                r.failed_reason,
            )).encode())
        digest.update(b"|")
    return scalars, digest.hexdigest()


#: name -> (repr of each non-zero scalar, digest), recorded on CPython
#: 3.11 before the drain loop replaced the per-event one.  When the
#: result became ``ServingResult`` the digests were re-derived by
#: feeding the previous engine's runs through this fingerprint in the
#: new field order; every value string stayed the same.
_PINS = {
    "crash/failover-only": (
        {
            "breaker_opens": "1",
            "busy_seconds": "9.3459555146462",
            "energy:arm-server": "43.95057813912404",
            "energy:x86-server": "16.071485501567388",
            "failovers": "1",
            "goodput_rps": "129.99498986909236",
            "handoff_seconds": "0.003643256251928406",
            "makespan": "20.000770819077363",
            "max_latency_s": "5.060474801623748",
            "mean_response": "2.299250616188587",
            "migration_stall_seconds": "1.316027194364871",
            "migrations": "1",
            "mttd": "2.5",
            "overhead_seconds": "0.0026582911999994963",
            "p50_latency_s": "2.8742522877718564",
            "p999_latency_s": "5.057117691170545",
            "p99_latency_s": "5.012258543159676",
            "requests": "8000",
            "requests_completed": "7999",
            "requests_failed": "1",
            "slo_attainment": "0.325",
            "slo_target_s": "0.01",
            "slo_violation_seconds": "18334.514201421553",
            "slo_violations": "5399",
        },
        "a91c81f58b81a8cc2792a944ad8593315082f223c03706872214d9b151f300f0",
    ),
    "deadline-hedge/static-arm": (
        {
            "busy_seconds": "1.660691857142817",
            "energy:arm-server": "9.746910548831572",
            "energy:x86-server": "13.366222628573926",
            "goodput_rps": "375.5195274755823",
            "makespan": "3.9944660403779815",
            "max_latency_s": "0.008064036367412708",
            "mean_response": "0.0035401018282679654",
            "p50_latency_s": "0.0044385273299837325",
            "p999_latency_s": "0.007844821642693012",
            "p99_latency_s": "0.007033367157222838",
            "requests": "1500",
            "requests_completed": "1500",
            "requests_hedged": "416",
            "slo_attainment": "1.0",
            "slo_target_s": "0.01",
        },
        "ea268c2b09f7d9bcb37c0b73a2e992e342a6ee35c14d6802ae9809cc31afd2bb",
    ),
    "degrade-partition": (
        {
            "breaker_opens": "1",
            "busy_seconds": "2.5064184558860867",
            "energy:arm-server": "19.212007394595922",
            "energy:x86-server": "65.01638553417543",
            "false_confirms": "1",
            "false_suspicions": "1",
            "goodput_rps": "390.6144687481232",
            "handoff_seconds": "0.008630963525965818",
            "makespan": "9.984269175944954",
            "max_latency_s": "0.03392083887123398",
            "mean_response": "0.0013229843756002808",
            "migration_stall_seconds": "0.278067979938883",
            "migrations": "2",
            "overhead_seconds": "0.008491456000000674",
            "p50_latency_s": "0.0003453598718703432",
            "p999_latency_s": "0.03374108450431186",
            "p99_latency_s": "0.02437706439480467",
            "requests": "4000",
            "requests_completed": "4000",
            "slo_attainment": "0.975",
            "slo_target_s": "0.01",
            "slo_violation_seconds": "1.1962793877682156",
            "slo_violations": "100",
        },
        "33c567cb0c717d24ae3b268a6ffff2a3501706032ef9b19cbd00c366be44248b",
    ),
    "diurnal/latency-aware": (
        {
            "busy_seconds": "4.938254411771348",
            "energy:arm-server": "29.069392775270078",
            "energy:x86-server": "257.63427911314307",
            "goodput_rps": "399.3915724533142",
            "handoff_seconds": "0.011428957904732417",
            "makespan": "20.00042201925464",
            "max_latency_s": "0.015677947262612957",
            "mean_response": "0.0008835942603232094",
            "migration_stall_seconds": "0.03951042751849343",
            "migrations": "4",
            "overhead_seconds": "0.009433164799997229",
            "p50_latency_s": "0.00019848571428582318",
            "p999_latency_s": "0.012334093940175931",
            "p99_latency_s": "0.005307146201517914",
            "requests": "8000",
            "requests_completed": "8000",
            "slo_attainment": "0.9985",
            "slo_target_s": "0.01",
            "slo_violation_seconds": "0.0381223160479479",
            "slo_violations": "12",
        },
        "7af107e30c67be5e3c48a234683c06de2d8a309b07101712202e9f83fbe2bcb3",
    ),
    "flash-crowd/queue-reactive": (
        {
            "busy_seconds": "6.5827519609139635",
            "energy:arm-server": "44.716612722852354",
            "energy:x86-server": "66.95463549253316",
            "goodput_rps": "250.49034586313567",
            "handoff_seconds": "0.17161250773433778",
            "makespan": "20.000770819077363",
            "max_latency_s": "0.041470701862476034",
            "mean_response": "0.009816918498978758",
            "migration_stall_seconds": "3.5783793799992925",
            "migrations": "58",
            "overhead_seconds": "0.13678088960001134",
            "p50_latency_s": "0.002303034930087655",
            "p999_latency_s": "0.04076309003890035",
            "p99_latency_s": "0.036965720859583696",
            "requests": "8000",
            "requests_completed": "8000",
            "slo_attainment": "0.62625",
            "slo_target_s": "0.01",
            "slo_violation_seconds": "38.64798364741399",
            "slo_violations": "2990",
        },
        "94c9034dd41742b3908ab3d09b874864469410da57e3f6a9b02bf69278319b18",
    ),
    "resilient/static-arm": (
        {
            "busy_seconds": "1.9386819179282884",
            "energy:arm-server": "8.469950111381387",
            "energy:x86-server": "37.78259417142863",
            "goodput_rps": "143.19811314402207",
            "makespan": "3.9944660403779815",
            "max_latency_s": "0.10518095406760031",
            "mean_response": "0.02948676710976849",
            "p50_latency_s": "0.002355072628147603",
            "p999_latency_s": "0.10512698637225634",
            "p99_latency_s": "0.10476101442892796",
            "requests": "1500",
            "requests_completed": "1041",
            "requests_failed": "135",
            "requests_hedged": "158",
            "requests_retried": "1",
            "requests_shed": "324",
            "retry_attempts": "1",
            "slo_attainment": "0.38133333333333336",
            "slo_target_s": "0.01",
            "slo_violation_seconds": "25.114436984748373",
            "slo_violations": "469",
        },
        "01c0f1707243b9a8e23c21dbbb8aa87a15dc366645e543d88447744724429dda",
    ),
    "tie-order": (
        {
            "breaker_opens": "1",
            "busy_seconds": "0.016904958628571387",
            "energy:arm-server": "0.23636285064000004",
            "energy:x86-server": "2.2338434852571423",
            "failovers": "1",
            "goodput_rps": "104.98041187991468",
            "handoff_seconds": "0.0027140911999999975",
            "makespan": "0.17146055799999999",
            "max_latency_s": "0.011543853257142835",
            "mean_response": "0.00653764077857142",
            "migration_stall_seconds": "0.03331607680000011",
            "migrations": "1",
            "overhead_seconds": "0.002658291200000003",
            "p50_latency_s": "0.008352673485714286",
            "p999_latency_s": "0.011535218300114263",
            "p99_latency_s": "0.01145750368685712",
            "requests": "26",
            "requests_completed": "24",
            "requests_shed": "2",
            "slo_attainment": "0.6923076923076923",
            "slo_target_s": "0.01",
            "slo_violation_seconds": "0.004620273314285602",
            "slo_violations": "6",
        },
        "979d4a91602098ebe3e0deed60aa3e10e591ae39d52317b5c21fd5f99c28f995",
    ),
}


class TestServingGolden:
    """Full-precision pins of seven runs.  The committed bench facts
    round to 3-6 decimals and cover only the sweep, so they cannot see a
    reassociated float sum or two same-time events swapped; these can.
    A zero-valued field is pinned by its absence and by the digest."""

    @pytest.mark.parametrize("name", sorted(_GOLDEN))
    def test_bit_identical(self, name):
        engine = _GOLDEN[name]()
        scalars, digest = _golden_fingerprint(engine, engine.run())
        pinned_scalars, pinned_digest = _PINS[name]
        assert scalars == pinned_scalars
        assert digest == pinned_digest
