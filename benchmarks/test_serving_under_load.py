"""Serving under load — tail latency and energy across serving policies.

Not a figure from the paper: the paper's Redis rows (Figs. 1, 12, 13)
only measure batch throughput.  This experiment asks the datacenter-
serving question those rows gesture at — what request-level tail
latency does each placement policy deliver under realistic traffic,
and is a latency-aware hand-off worth its blackout?

Claims checked:

* Under a flash crowd, the latency-aware policy beats the static-ARM
  placement on p99 latency *and* SLO-violation seconds (the surge
  saturates the ARM box), and beats the flapping queue-reactive
  baseline on violation seconds.
* Under a diurnal cycle, the latency-aware policy lands within the
  static envelope: close to static-x86 on tail latency at a fraction
  of its energy (the service drains to ARM through the troughs).
* Migration stalls are visible: every stalled request carries a
  ``serve.stall.migration`` span on its critical path, flow-linked to
  the hand-off that caused it, and the summed span durations equal the
  run's reported stall seconds.
"""

import pytest

from conftest import run_once
from repro.render import Table
from repro.serving import ServingEngine, make_serving_policy, make_trace
from repro.sim.rng import DeterministicRng
from repro.telemetry.spans import Tracer, check_causality

POLICIES = ("static-x86", "static-arm", "queue-reactive", "latency-aware")
SEED = 7
REQUESTS = 8000
SLO_S = 0.010

SHAPE_KWARGS = {
    "flash-crowd": {},
    "diurnal": {"peak_to_trough": 6.0, "periods": 2.0},
}


def _serve(shape, policy, tracer=None):
    trace = make_trace(
        shape, DeterministicRng(SEED), requests=REQUESTS,
        **SHAPE_KWARGS[shape],
    )
    engine = ServingEngine(
        make_serving_policy(policy), trace, slo_s=SLO_S, tracer=tracer
    )
    return engine, engine.run()


def _sweep(shape):
    return {policy: _serve(shape, policy)[1] for policy in POLICIES}


def _render(shape, results):
    table = Table(
        f"Serving {REQUESTS} redis requests, {shape} traffic "
        f"(SLO {SLO_S * 1e3:.0f} ms, seed {SEED})",
        ["policy", "p50 (ms)", "p99 (ms)", "p999 (ms)", "SLO viol",
         "viol (s)", "hand-offs", "stall (ms)", "energy (J)"],
    )
    for policy, r in results.items():
        table.add_row(
            policy,
            f"{r.p50_latency_s * 1e3:.3f}",
            f"{r.p99_latency_s * 1e3:.3f}",
            f"{r.p999_latency_s * 1e3:.3f}",
            r.slo_violations,
            f"{r.slo_violation_seconds:.3f}",
            r.migrations,
            f"{r.migration_stall_seconds * 1e3:.2f}",
            f"{r.total_energy:.1f}",
        )
    return table.render()


class TestServingUnderLoad:
    def test_flash_crowd_latency_aware_wins(self, benchmark, save_result):
        results = run_once(benchmark, lambda: _sweep("flash-crowd"))
        save_result("serving_flash_crowd", _render("flash-crowd", results))
        aware = results["latency-aware"]
        arm = results["static-arm"]
        reactive = results["queue-reactive"]
        # The surge saturates the ARM box; a predictive hand-off to x86
        # collapses the tail.
        assert aware.p99_latency_s < 0.5 * arm.p99_latency_s
        assert aware.slo_violation_seconds < 0.5 * arm.slo_violation_seconds
        # The flapping queue-reactive baseline pays for its hand-offs
        # mid-load; prediction beats reaction on SLO debt.
        assert aware.slo_violation_seconds < reactive.slo_violation_seconds
        assert aware.migrations < reactive.migrations
        # Every completed request is accounted for (open loop conserves).
        for r in results.values():
            assert r.requests_completed == REQUESTS

    def test_diurnal_latency_aware_saves_energy(self, benchmark, save_result):
        results = run_once(benchmark, lambda: _sweep("diurnal"))
        save_result("serving_diurnal", _render("diurnal", results))
        aware = results["latency-aware"]
        x86 = results["static-x86"]
        arm = results["static-arm"]
        # Drains to ARM through the troughs: a real energy cut vs the
        # always-fast placement...
        assert aware.total_energy < 0.6 * x86.total_energy
        # ...while keeping the tail it was bought for: far closer to
        # static-x86 than the always-efficient placement gets.
        assert aware.p99_latency_s < 0.5 * arm.p99_latency_s
        assert aware.slo_violations < arm.slo_violations

    def test_migration_stalls_on_critical_paths(self, benchmark):
        def run():
            tracer = Tracer()
            engine, result = _serve("flash-crowd", "latency-aware", tracer)
            return tracer, engine, result

        tracer, engine, result = run_once(benchmark, run)
        assert result.migrations >= 1
        assert check_causality(tracer.spans) == []
        stalls = [
            s for s in tracer.spans if s.name == "serve.stall.migration"
        ]
        stalled = [r for r in engine.completed if r.migration_stall_s > 0]
        assert stalled and stalls
        requests = {
            s.span_id for s in tracer.spans if s.name == "serve.request"
        }
        handoffs = {
            s.span_id for s in tracer.spans if s.name == "serve.handoff"
        }
        for stall in stalls:
            assert stall.parent_id in requests
            assert stall.attrs["flow"] in handoffs
        total = sum(s.end_s - s.start_s for s in stalls)
        assert total == pytest.approx(result.migration_stall_seconds)
