"""Open-loop serving subsystem tests (traffic, engine, SLO, policies)."""

import dataclasses

import pytest

from repro import validate
from repro.datacenter.energy import RunResult
from repro.datacenter.job import (
    DEFAULT_INTERCONNECT_BW, HANDOFF_S, RESPONSE_S, TRANSFORM_S,
    migration_penalty,
)
from repro.serving import (
    DEFAULT_SLO_S,
    Decision,
    LatencyAwareServing,
    QueueReactiveServing,
    ServingEngine,
    ServingView,
    StaticArmServing,
    StaticX86Serving,
    TRAFFIC_SHAPES,
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
        assert result.job_count == len(arrivals)


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
        report = slo_report([0.001, 0.002, 0.015, 0.030], 0.010, requests=4)
        assert report.violations == 2
        assert report.violation_seconds == pytest.approx(0.005 + 0.020)
        assert report.violation_fraction == pytest.approx(0.5)
        assert report.p50_s <= report.p99_s <= report.p999_s <= report.max_s

    def test_render_rows_cover_percentiles(self):
        report = slo_report([0.001] * 10, DEFAULT_SLO_S, requests=10)
        rendered = dict(render_slo_rows(report))
        for key in ("latency p50", "latency p99", "latency p999",
                    "SLO violations", "SLO violation seconds"):
            assert key in rendered

    def test_bad_target_rejected(self):
        with pytest.raises(ValueError):
            slo_report([0.001], 0.0, requests=1)


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

    def test_batch_runresult_defaults_stay_zero(self):
        batch = RunResult(policy="p", makespan=1.0, energy_by_machine={},
                          migrations=0, job_count=1)
        assert batch.requests == 0
        assert batch.p99_latency_s == 0.0
        assert batch.migration_stall_seconds == 0.0

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
