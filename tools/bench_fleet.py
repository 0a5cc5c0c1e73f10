#!/usr/bin/env python
"""Fleet performance baseline: run the warehouse-scale migration wave,
write ``BENCH_fleet.json``.

Two cells:

* ``wave/1k-nodes`` — the headline scale cell: a 1024-node mixed-ISA
  fleet (512 x86-64 + 512 arm64), 1500 services, one million jobs over
  a simulated day, migrated x86→ARM under the canary/ramp wave policy.
* ``wave/faulted`` — a smaller fleet with node crashes and a link
  degradation mid-ramp, covering the evacuate-live and
  bandwidth-scaling paths.

The baseline has two kinds of fields:

* **deterministic run facts** — trace checksum, result checksum, job /
  migration / SLO counters, energy totals.  These must be bit-identical
  on every machine; ``python3 bench/run.py --workload fleet-wave``
  checks them on every pass (a silent behaviour change in the fleet
  simulator, the wave policy, the traffic sampler, or the cost models
  fails it).
* **throughput** — wall-clock seconds of ``FleetSimulator.run`` (trace
  generation excluded) and simulated jobs per wall second.
  Informational: they vary with hardware and are never compared.

This script only writes; it takes no arguments.  Rerun it after an
intentional model change::

    PYTHONPATH=src python tools/bench_fleet.py
"""

import argparse
import json
import pathlib
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from repro.faults import (  # noqa: E402
    FaultSchedule,
    LinkDegradation,
    NodeCrash,
)
from repro.fleet import (  # noqa: E402
    FleetConfig,
    FleetSimulator,
    WavePolicy,
    node_name,
)
from repro.serving import make_trace  # noqa: E402
from repro.sim.rng import DeterministicRng  # noqa: E402

BASELINE = ROOT / "BENCH_fleet.json"

SEED = 11

#: The 1k-node / 1M-job headline cell.  Steady arrivals: the diurnal
#: sampler inverts its rate integral numerically per arrival, which is
#: fine at serving scale but not at 10^6 jobs.
BIG = {
    "nodes": {"x86-64": 512, "arm64": 512},
    "slots": 4,
    "services": 1500,
    "jobs": 1_000_000,
    "horizon_s": 86_400.0,
    "policy": WavePolicy(
        canary_fraction=0.05,
        ramp=(0.25, 0.5, 1.0),
        wave_interval_s=600.0,
        bake_s=1800.0,
    ),
}

#: Fault-plane coverage cell: two crashes (one while the canary bakes,
#: one mid-ramp) and a degraded interconnect across the second crash.
#: ``slo_factor`` is raised above the default so ep's queueing delay on
#: ARM fits inside the SLO at this load and the pause-on-regression
#: gate reacts to the injected faults, not to steady-state queueing.
FAULTED = {
    "nodes": {"x86-64": 64, "arm64": 64},
    "slots": 4,
    "services": 192,
    "jobs": 60_000,
    "horizon_s": 7200.0,
    "slo_factor": 16.0,
    "policy": WavePolicy(
        canary_fraction=0.05,
        ramp=(0.25, 0.5, 1.0),
        wave_interval_s=300.0,
        bake_s=600.0,
    ),
    "faults": lambda: FaultSchedule([
        NodeCrash(time=400.0, node=node_name(3), repair_seconds=900.0),
        NodeCrash(time=2500.0, node=node_name(70), repair_seconds=600.0),
        LinkDegradation(
            time=2400.0, duration=1200.0, bandwidth_factor=0.25
        ),
    ]),
}


def run_cell(params):
    """Run one fleet cell; return (facts, wall_seconds, jobs)."""
    config = FleetConfig(
        nodes=params["nodes"],
        slots_per_node=params["slots"],
        services=params["services"],
        slo_factor=params.get("slo_factor", 8.0),
    )
    faults = params["faults"]() if "faults" in params else None
    sim = FleetSimulator(
        config, params["policy"], DeterministicRng(SEED), faults=faults
    )
    trace = make_trace(
        "steady",
        DeterministicRng(SEED),
        requests=params["jobs"],
        horizon_s=params["horizon_s"],
    )
    start = time.perf_counter()
    result = sim.run(trace)
    wall = time.perf_counter() - start
    facts = {
        "trace_checksum": trace.checksum(),
        "result_checksum": result.checksum(),
        "jobs_offered": result.requests,
        "jobs_completed": result.requests_completed,
        "jobs_shed": result.requests_shed,
        "p50_latency_ms": round(result.p50_latency_s * 1e3, 6),
        "p99_latency_ms": round(result.p99_latency_s * 1e3, 6),
        "slo_attainment": round(result.slo_attainment, 6),
        "services_migrated": result.services_migrated,
        "migrations": result.migrations,
        "migration_stall_s": round(result.migration_stall_seconds, 6),
        "paused_waves": result.paused_waves,
        "deferred_migrations": result.deferred_migrations,
        "waves": len(result.waves),
        "crashes": result.crashes,
        "evacuations": result.evacuations,
        "failovers": result.failovers,
        "energy_mj": round(result.total_energy / 1e6, 6),
        "makespan_s": round(result.makespan, 6),
    }
    return facts, wall, result.requests_completed


def run_sweep():
    """Run both cells; return (facts, throughput)."""
    facts = {}
    wall = 0.0
    simulated_jobs = 0
    for name, params in (("wave/1k-nodes", BIG), ("wave/faulted", FAULTED)):
        cell_facts, cell_wall, jobs = run_cell(params)
        facts[name] = cell_facts
        wall += cell_wall
        simulated_jobs += jobs
    throughput = {
        "wall_seconds": round(wall, 3),
        "simulated_jobs": simulated_jobs,
        "jobs_per_wall_second": round(simulated_jobs / wall),
    }
    return facts, throughput


def main(argv=None) -> int:
    """Rewrite the baseline (any argument is an error: nothing to check)."""
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args(argv)
    facts, throughput = run_sweep()
    document = {
        "benchmark": "fleet migration wave",
        "config": {
            "seed": SEED,
            "cells": {
                "wave/1k-nodes": {
                    "nodes": BIG["nodes"],
                    "services": BIG["services"],
                    "jobs": BIG["jobs"],
                    "horizon_s": BIG["horizon_s"],
                },
                "wave/faulted": {
                    "nodes": FAULTED["nodes"],
                    "services": FAULTED["services"],
                    "jobs": FAULTED["jobs"],
                    "horizon_s": FAULTED["horizon_s"],
                },
            },
        },
        "facts": facts,
        "throughput": throughput,
    }
    BASELINE.write_text(json.dumps(document, indent=2) + "\n")
    print(f"wrote {BASELINE.name}: {len(facts)} cells, "
          f"{throughput['jobs_per_wall_second']} jobs/s wall")
    return 0


if __name__ == "__main__":
    sys.exit(main())
