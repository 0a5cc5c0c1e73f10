"""Serving under failure — resilience vs bare failover, chaos-proven.

The robustness question behind the paper's migration story: fleet-scale
ISA migration runs on machines that crash constantly, so the serving
plane's *behavior under failure* is part of the result.  The scenario
is the worst case the traffic shapes can produce: a flash crowd whose
surge the latency-aware policy rides onto the fast x86 box — and the
x86 box dies mid-surge, taking the service with it.

Claims checked:

* With the resilience layer on (deadlines, retry budget, hedging,
  circuit breakers, priority-class shedding), the latency-aware policy
  sustains **strictly higher goodput** (completed-in-SLO requests per
  second) and **strictly lower SLO violation-seconds** than the same
  policy with bare detector-driven failover.  Graceful degradation —
  shedding what cannot be served in time — beats queueing everything
  and blowing the SLO on all of it.
* Both runs conserve requests: admitted == completed + shed +
  failed-loudly.  Nothing is silently dropped, with or without the
  resilience layer.
* The fault-free path is untouched: with no ``FaultSchedule`` and no
  ``ResilienceConfig``, the engine's results are bit-identical to the
  pre-resilience engine (enforced separately by
  ``python3 bench/run.py --workload serving-sweep`` against
  ``BENCH_serving.json``).
"""

from conftest import run_once
from repro.faults import (
    DetectorConfig,
    FailureDetector,
    FaultSchedule,
    NodeCrash,
)
from repro.render import Table
from repro.serving import (
    ServingEngine,
    default_resilience,
    make_serving_policy,
    make_trace,
)
from repro.sim.rng import DeterministicRng

SEED = 7
REQUESTS = 6000
HORIZON_S = 12.0
SLO_S = 0.010
#: The flash-crowd surge spans 4.8 s – 6.6 s; the crash lands inside it,
#: on the box the latency-aware policy migrates to for the surge.
CRASH_AT = 5.5
CRASH_NODE = "x86-server"
REPAIR_S = 3.0


def _serve(resilient: bool):
    trace = make_trace(
        "flash-crowd", DeterministicRng(SEED),
        requests=REQUESTS, horizon_s=HORIZON_S,
    )
    faults = FaultSchedule([
        NodeCrash(time=CRASH_AT, node=CRASH_NODE, repair_seconds=REPAIR_S)
    ])
    engine = ServingEngine(
        make_serving_policy("latency-aware"), trace, slo_s=SLO_S,
        faults=faults, detector=FailureDetector(DetectorConfig()),
        resilience=default_resilience(SLO_S) if resilient else None,
        rng=DeterministicRng(42),
    )
    return engine.run()


def _sweep():
    return {
        "failover-only": _serve(resilient=False),
        "resilient": _serve(resilient=True),
    }


def _render(results):
    table = Table(
        f"Serving {REQUESTS} redis requests, flash crowd + {CRASH_NODE} "
        f"crash at {CRASH_AT:.1f}s (SLO {SLO_S * 1e3:.0f} ms, seed {SEED})",
        ["mode", "goodput (req/s)", "attainment", "viol (s)", "p99 (ms)",
         "shed", "failed", "retried", "hedged", "failovers", "MTTD (s)"],
    )
    for mode, r in results.items():
        table.add_row(
            mode,
            f"{r.goodput_rps:.1f}",
            f"{r.slo_attainment * 100:.1f}%",
            f"{r.slo_violation_seconds:.3f}",
            f"{r.p99_latency_s * 1e3:.3f}",
            r.requests_shed,
            r.requests_failed,
            r.requests_retried,
            r.requests_hedged,
            r.failovers,
            f"{r.mttd:.3f}",
        )
    return table.render()


class TestServingResilience:
    def test_resilient_beats_bare_failover_under_crash(
        self, benchmark, save_result
    ):
        results = run_once(benchmark, _sweep)
        save_result("serving_resilience", _render(results))
        bare = results["failover-only"]
        resilient = results["resilient"]
        # Both modes detect the crash and fail over.
        assert bare.failovers >= 1 and resilient.failovers >= 1
        assert bare.mttd > 0.0 and resilient.mttd > 0.0
        # The headline: graceful degradation strictly wins on goodput
        # AND on SLO debt.  Queue-everything blows the SLO on the whole
        # backlog; shed-what-can't-make-it keeps the served tail sharp.
        assert resilient.goodput_rps > bare.goodput_rps
        assert (
            resilient.slo_violation_seconds < bare.slo_violation_seconds
        )
        # Degraded-mode SLO attainment is the same story per-request.
        assert resilient.slo_attainment > bare.slo_attainment
        # The resilience layer actually engaged: load was shed and the
        # other machine raced hedges through the outage.
        assert resilient.requests_shed > 0
        assert resilient.requests_hedged > 0
        # Conservation on both sides: nothing silently dropped.
        for r in results.values():
            assert r.requests == (
                r.requests_completed + r.requests_shed + r.requests_failed
            )

    def test_crash_benchmark_is_deterministic(self, benchmark):
        import dataclasses

        a, b = run_once(benchmark, lambda: (_serve(True), _serve(True)))
        assert dataclasses.replace(a, metrics={}) == dataclasses.replace(
            b, metrics={}
        )
