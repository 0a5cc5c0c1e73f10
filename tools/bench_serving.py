#!/usr/bin/env python
"""Serving performance baseline: run the standard policy sweep, write
``BENCH_serving.json``.

The baseline has two kinds of fields:

* **deterministic run facts** — trace checksums, p99 latencies, SLO
  violations, hand-off counts.  These must be bit-identical on every
  machine; ``python3 bench/run.py --workload serving-sweep`` checks
  them on every pass (a silent behaviour change in the engine, the
  traffic sampler, or the cost model fails it).
* **throughput** — wall-clock seconds and simulated requests processed
  per wall second.  Informational: they vary with hardware and are
  never compared.

This script only writes; it takes no arguments.  Rerun it after an
intentional model change::

    PYTHONPATH=src python tools/bench_serving.py
"""

import argparse
import json
import pathlib
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from repro.faults import (  # noqa: E402
    DetectorConfig,
    FailureDetector,
    FaultSchedule,
    NodeCrash,
)
from repro.serving import (  # noqa: E402
    ServingEngine,
    default_resilience,
    make_serving_policy,
    make_trace,
)
from repro.sim.rng import DeterministicRng  # noqa: E402

BASELINE = ROOT / "BENCH_serving.json"

SEED = 7
REQUESTS = 8000
SLO_S = 0.010
SWEEP = [
    ("flash-crowd", {}),
    ("diurnal", {"peak_to_trough": 6.0, "periods": 2.0}),
]
POLICIES = ("static-x86", "static-arm", "queue-reactive", "latency-aware")

#: Faulted cells: the same flash crowd with the surge host crashing
#: mid-surge (detector-driven failover), bare vs resilient.  Keyed
#: ``faulted/<mode>`` so the fault-free cells above keep their exact
#: historical keys and values.
FAULT_CRASH_AT = 8.5  # mid-surge, after the policy moved to x86
FAULT_REPAIR_S = 5.0
FAULT_NODE = "x86-server"
FAULT_MODES = ("failover-only", "resilient")


def run_sweep():
    """Run every (shape, policy) cell; return (facts, throughput)."""
    facts = {}
    wall = 0.0
    simulated_requests = 0
    for shape, kwargs in SWEEP:
        trace = make_trace(
            shape, DeterministicRng(SEED), requests=REQUESTS, **kwargs
        )
        for policy in POLICIES:
            engine = ServingEngine(
                make_serving_policy(policy), trace, slo_s=SLO_S
            )
            start = time.perf_counter()
            result = engine.run()
            wall += time.perf_counter() - start
            simulated_requests += result.requests_completed
            facts[f"{shape}/{policy}"] = {
                "trace_checksum": trace.checksum(),
                "requests": result.requests,
                "completed": result.requests_completed,
                "p50_us": round(result.p50_latency_s * 1e6, 3),
                "p99_us": round(result.p99_latency_s * 1e6, 3),
                "p999_us": round(result.p999_latency_s * 1e6, 3),
                "slo_violations": result.slo_violations,
                "slo_violation_seconds": round(
                    result.slo_violation_seconds, 6
                ),
                "handoffs": result.migrations,
                "migration_stall_ms": round(
                    result.migration_stall_seconds * 1e3, 6
                ),
                "energy_joules": round(result.total_energy, 3),
            }
    for mode in FAULT_MODES:
        trace = make_trace(
            "flash-crowd", DeterministicRng(SEED), requests=REQUESTS
        )
        engine = ServingEngine(
            make_serving_policy("latency-aware"), trace, slo_s=SLO_S,
            faults=FaultSchedule([
                NodeCrash(
                    time=FAULT_CRASH_AT, node=FAULT_NODE,
                    repair_seconds=FAULT_REPAIR_S,
                )
            ]),
            detector=FailureDetector(DetectorConfig()),
            resilience=(
                default_resilience(SLO_S) if mode == "resilient" else None
            ),
            rng=DeterministicRng(SEED),
        )
        start = time.perf_counter()
        result = engine.run()
        wall += time.perf_counter() - start
        simulated_requests += result.requests_completed
        facts[f"faulted/{mode}"] = {
            "trace_checksum": trace.checksum(),
            "requests": result.requests,
            "completed": result.requests_completed,
            "shed": result.requests_shed,
            "failed": result.requests_failed,
            "retried": result.requests_retried,
            "hedged": result.requests_hedged,
            "failovers": result.failovers,
            "mttd_ms": round(result.mttd * 1e3, 3),
            "goodput_rps": round(result.goodput_rps, 3),
            "slo_attainment": round(result.slo_attainment, 6),
            "slo_violation_seconds": round(
                result.slo_violation_seconds, 6
            ),
        }
    throughput = {
        "wall_seconds": round(wall, 3),
        "simulated_requests": simulated_requests,
        "requests_per_wall_second": round(simulated_requests / wall),
    }
    return facts, throughput


def main(argv=None) -> int:
    """Rewrite the baseline (any argument is an error: nothing to check)."""
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args(argv)
    facts, throughput = run_sweep()
    document = {
        "benchmark": "serving policy sweep",
        "config": {
            "seed": SEED,
            "requests": REQUESTS,
            "slo_ms": SLO_S * 1e3,
            "shapes": [shape for shape, _ in SWEEP],
            "policies": list(POLICIES),
        },
        "facts": facts,
        "throughput": throughput,
    }
    BASELINE.write_text(json.dumps(document, indent=2) + "\n")
    print(f"wrote {BASELINE.name}: {len(facts)} cells, "
          f"{throughput['requests_per_wall_second']} req/s wall")
    return 0


if __name__ == "__main__":
    sys.exit(main())
