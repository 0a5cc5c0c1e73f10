"""One benchmark pass: every cell of one workload, in this process.

``bench/run.py`` starts this script in a fresh subprocess for every
pass, so each pass pays what a command-line user pays: interpreter
imports, IR build, compile and link, boot, and the fast engine's region
compilation (its code cache lives in the process).

Usage (normally only through ``bench/run.py``)::

    PYTHONPATH=src python bench/passes.py WORKLOAD --seed N --trace 0|1 \
        --pass-id K

The last line of standard output is one JSON document: per-cell facts
and simulated work units, the set-up and measured-phase time, peak RSS
and, on a traced pass, the per-layer metrics.  A cell that
raises is reported with its traceback and the pass goes on.
"""

import argparse
import contextlib
import json
import math
import resource
import sys
import traceback
from pathlib import Path

from hostspeed import HostSpeed, reference_seconds
from spans import END, PHASE, START, Spans, self_times, to_chrome

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(__file__).resolve().parent / "out"

SETUP = "setup"
RUN = "run"

#: Self-time metric of each span name.  The spans tile the pass: every
#: host second of a traced pass lands in exactly one of these.
SELF_METRICS = {
    "bench.pass": "bench.unattributed_s",
    "bench.import": "bench.import_s",
    "bench.facts": "bench.facts_s",
    "workloads.build": "workloads.build_s",
    "compiler.build": "compiler.build_s",
    "kernel.boot": "kernel.boot_s",
    "runtime.run": "runtime.self_s",
    "kernel.dsm.ensure_range": "kernel.dsm.ensure_range_s",
    "kernel.dsm.access": "kernel.dsm.access_s",
    "kernel.migration": "kernel.migration.self_s",
    "runtime.transform": "runtime.transform_s",
    "serving.traffic.generate": "serving.traffic.generate_s",
    "serving.construct": "serving.construct_s",
    "serving.engine": "serving.engine.self_s",
    "serving.policies.decide": "serving.policies.decide_s",
    "serving.resilience.admit": "serving.resilience.admit_s",
    "serving.slo.report": "serving.slo.report_s",
    "fleet.construct": "fleet.construct_s",
    "fleet.run": "fleet.run_s",
}

#: Call counts of a span name reported as metrics.
COUNT_METRICS = {
    "compiler.build": "compiler.builds",
    "kernel.dsm.ensure_range": "kernel.dsm.ensure_range_calls",
    "kernel.dsm.access": "kernel.dsm.access_calls",
    "kernel.migration": "kernel.migration.count",
    "runtime.transform": "runtime.transform.count",
    "serving.policies.decide": "serving.policies.decide_calls",
}

#: Counters reported as they are.
COUNTERS = (
    "kernel.dsm.page_transfers",
    "runtime.slices",
    "runtime.regions_compiled",
    "runtime.transform.frames",
    "runtime.transform.values_copied",
    "serving.traffic.arrivals",
    "sim.events",
)


class FactError(RuntimeError):
    """A cell's result broke an invariant checked inside the pass."""


def _check(condition, message):
    if not condition:
        raise FactError(message)


# A cell is ``run(spans) -> (facts_of, units)``: it does the measured
# work and returns the simulated work done, in the workload's unit, and
# a zero-argument function that describes the outcome as deterministic
# facts (called apart, so its time shows as ``bench.facts``).

# ------------------------------------------------------------ node cells

def _import_node_layers():
    """Import what every node cell calls, inside the pass's import span."""
    import repro.compiler  # noqa: F401
    import repro.kernel  # noqa: F401
    import repro.runtime.execution  # noqa: F401


def _node_cell(spans, build, toolchain=None, ping_pong=False):
    """Build, compile, boot and run one program on the fast engine.

    Returns (system, process, engine, sim-instructions retired).
    """
    from repro.compiler import Toolchain
    from repro.kernel import boot_testbed
    from repro.runtime.execution import EngineHooks, make_engine

    with spans.span("workloads.build", SETUP):
        module = build()
    with spans.span("compiler.build", SETUP):
        binary = (toolchain or Toolchain)().build(module)
    with spans.span("kernel.boot", SETUP):
        system = boot_testbed()
        process = system.exec_process(binary, "x86-server")
        hooks = EngineHooks()
        if ping_pong:
            hooks.on_migration_point = _ping_pong(system)
        engine = make_engine(system, process, hooks, engine="fast")
    with spans.span("runtime.run", RUN):
        engine.run()
    spans.count("runtime.slices", engine.steps)
    spans.count("kernel.dsm.page_transfers", process.dsm.stats.page_transfers)
    units = math.fsum(m.instructions_retired for m in system.machines.values())
    return system, process, engine, units


def _ping_pong(system):
    """Migration-point hook: move to the other machine at every 2nd point
    (the Fig. 10 stack-transformation experiment)."""
    seen = [0]

    def hook(thread, fn, point_id, instructions):
        seen[0] += 1
        if seen[0] % 2 == 0:
            other = [m for m in system.machine_order if m != thread.machine_name]
            system.request_thread_migration(thread, other[0])

    return hook


def _interp_facts(system, process, engine):
    """The fact record ``tools/bench_interp.py`` commits per program."""
    return {
        "output": [repr(v) for v in process.output],
        "exit_code": process.exit_code,
        "slices": engine.steps,
        "sim_seconds": repr(system.clock.now),
        "dsm_page_transfers": process.dsm.stats.page_transfers,
    }


def registry_cells(seed):
    import bench_interp
    from repro.workloads import build_workload, workload_names
    from repro.workloads.golden import GOLDEN_CLASS, GOLDEN_SCALE

    _import_node_layers()

    def cell(name, threads):
        def run(spans):
            system, process, engine, units = _node_cell(
                spans, lambda: build_workload(name, GOLDEN_CLASS, threads, GOLDEN_SCALE)
            )
            return (lambda: _interp_facts(system, process, engine)), units
        return run

    return [
        (f"{name}/t{threads}", cell(name, threads))
        for name in sorted(workload_names())
        for threads in bench_interp.THREADS
    ]


def migrate_cells(seed):
    from repro.compiler import Toolchain
    from repro.compiler.migration_points import DEFAULT_TARGET_GAP
    from repro.workloads import build_workload
    from repro.workloads.golden import GOLDEN_CLASS, GOLDEN_SCALE

    _import_node_layers()
    gap = int(DEFAULT_TARGET_GAP * GOLDEN_SCALE)

    def cell(name):
        def run(spans):
            system, process, engine, units = _node_cell(
                spans,
                lambda: build_workload(name, GOLDEN_CLASS, 1, GOLDEN_SCALE),
                toolchain=lambda: Toolchain(target_gap=gap),
                ping_pong=True,
            )
            return (lambda: {
                "checksum": int(process.output[0]) if process.output else None,
                "exit_code": process.exit_code,
                "migrations": engine.migration.migrations,
                "page_transfers": process.dsm.stats.page_transfers,
            }), units
        return run

    return [(name, cell(name)) for name in ("cg", "ep", "ft", "is")]


def dispatch_cells(seed):
    import bench_interp
    from repro.workloads.interp_stress import interp_stress_module

    _import_node_layers()

    def run(spans):
        system, process, engine, units = _node_cell(
            spans, lambda: interp_stress_module(bench_interp.STRESS_ITERATIONS)
        )
        return (lambda: _interp_facts(system, process, engine)), units

    return [("stress", run)]


# ---------------------------------------------------------- serving cells

def _sweep_facts(trace, r):
    """The fact record ``tools/bench_serving.py`` commits per sweep cell."""
    return {
        "trace_checksum": trace.checksum(),
        "requests": r.requests,
        "completed": r.requests_completed,
        "p50_us": round(r.p50_latency_s * 1e6, 3),
        "p99_us": round(r.p99_latency_s * 1e6, 3),
        "p999_us": round(r.p999_latency_s * 1e6, 3),
        "slo_violations": r.slo_violations,
        "slo_violation_seconds": round(r.slo_violation_seconds, 6),
        "handoffs": r.migrations,
        "migration_stall_ms": round(r.migration_stall_seconds * 1e3, 6),
        "energy_joules": round(r.total_energy, 3),
    }


def _faulted_facts(trace, r):
    """The fact record ``tools/bench_serving.py`` commits per faulted cell."""
    return {
        "trace_checksum": trace.checksum(),
        "requests": r.requests,
        "completed": r.requests_completed,
        "shed": r.requests_shed,
        "failed": r.requests_failed,
        "retried": r.requests_retried,
        "hedged": r.requests_hedged,
        "failovers": r.failovers,
        "mttd_ms": round(r.mttd * 1e3, 3),
        "goodput_rps": round(r.goodput_rps, 3),
        "slo_attainment": round(r.slo_attainment, 6),
        "slo_violation_seconds": round(r.slo_violation_seconds, 6),
    }


def serving_cells(seed):
    import bench_serving as cfg
    from repro.faults import DetectorConfig, FailureDetector, FaultSchedule, NodeCrash
    from repro.serving import (
        ServingEngine, default_resilience, make_serving_policy, make_trace,
    )
    from repro.sim.rng import DeterministicRng

    seed = cfg.SEED if seed is None else seed
    shared = {}

    def generate(spans, shape, kwargs):
        with spans.span("serving.traffic.generate", SETUP, shape=shape):
            trace = make_trace(shape, DeterministicRng(seed), requests=cfg.REQUESTS, **kwargs)
        spans.count("serving.traffic.arrivals", trace.requests)
        return trace

    def serve(spans, engine, trace):
        with spans.span("serving.engine", RUN):
            r = engine.run()
        spans.count("serving.requests", r.requests)
        _check(r.requests == trace.requests == cfg.REQUESTS,
               f"offered {r.requests} of {cfg.REQUESTS} requests")
        _check(r.requests == r.requests_completed + r.requests_shed + r.requests_failed,
               "requests not conserved: completed + shed + failed != offered")
        return r

    def sweep_cell(shape, kwargs, policy):
        def run(spans):
            # The four policies of a shape replay one trace, as the
            # committed baseline does.
            if shape not in shared:
                shared[shape] = generate(spans, shape, kwargs)
            trace = shared[shape]
            with spans.span("serving.construct", SETUP):
                engine = ServingEngine(make_serving_policy(policy), trace, slo_s=cfg.SLO_S)
            r = serve(spans, engine, trace)
            return (lambda: _sweep_facts(trace, r)), r.requests
        return run

    def faulted_cell(mode):
        def run(spans):
            trace = generate(spans, "flash-crowd", {})
            with spans.span("serving.construct", SETUP):
                engine = ServingEngine(
                    make_serving_policy("latency-aware"), trace, slo_s=cfg.SLO_S,
                    faults=FaultSchedule([NodeCrash(
                        time=cfg.FAULT_CRASH_AT, node=cfg.FAULT_NODE,
                        repair_seconds=cfg.FAULT_REPAIR_S,
                    )]),
                    detector=FailureDetector(DetectorConfig()),
                    resilience=(
                        default_resilience(cfg.SLO_S) if mode == "resilient" else None
                    ),
                    rng=DeterministicRng(seed),
                )
            r = serve(spans, engine, trace)
            return (lambda: _faulted_facts(trace, r)), r.requests
        return run

    cells = [
        (f"{shape}/{policy}", sweep_cell(shape, kwargs, policy))
        for shape, kwargs in cfg.SWEEP
        for policy in cfg.POLICIES
    ]
    cells += [(f"faulted/{mode}", faulted_cell(mode)) for mode in cfg.FAULT_MODES]
    return cells


# ------------------------------------------------------------ fleet cells

def _fleet_facts(trace, r):
    """The fact record ``tools/bench_fleet.py`` commits per cell."""
    return {
        "trace_checksum": trace.checksum(),
        "result_checksum": r.checksum(),
        "jobs_offered": r.jobs_offered,
        "jobs_completed": r.jobs_completed,
        "jobs_shed": r.jobs_shed,
        "p50_latency_ms": round(r.p50_latency_s * 1e3, 6),
        "p99_latency_ms": round(r.p99_latency_s * 1e3, 6),
        "slo_attainment": round(r.slo_attainment, 6),
        "services_migrated": r.services_migrated,
        "migrations": r.migrations,
        "migration_stall_s": round(r.migration_stall_seconds, 6),
        "paused_waves": r.paused_waves,
        "deferred_migrations": r.deferred_migrations,
        "waves": len(r.waves),
        "crashes": r.crashes,
        "evacuations": r.evacuations,
        "failovers": r.failovers,
        "energy_mj": round(r.total_energy / 1e6, 6),
        "makespan_s": round(r.makespan, 6),
    }


def fleet_cells(seed):
    import bench_fleet as cfg
    from repro.fleet import FleetConfig, FleetSimulator
    from repro.serving import make_trace
    from repro.sim.rng import DeterministicRng

    seed = cfg.SEED if seed is None else seed

    def cell(params):
        def run(spans):
            with spans.span("fleet.construct", SETUP):
                config = FleetConfig(
                    nodes=params["nodes"],
                    slots_per_node=params["slots"],
                    services=params["services"],
                    slo_factor=params.get("slo_factor", 8.0),
                )
                faults = params["faults"]() if "faults" in params else None
                sim = FleetSimulator(config, params["policy"], DeterministicRng(seed),
                                     faults=faults)
            with spans.span("serving.traffic.generate", SETUP, shape="steady"):
                trace = make_trace("steady", DeterministicRng(seed),
                                   requests=params["jobs"], horizon_s=params["horizon_s"])
            spans.count("serving.traffic.arrivals", trace.requests)
            with spans.span("fleet.run", RUN):
                r = sim.run(trace)
            spans.count("fleet.jobs", r.jobs_offered)
            _check(r.jobs_offered == params["jobs"],
                   f"offered {r.jobs_offered} of {params['jobs']} jobs")
            _check(r.jobs_offered == r.jobs_completed + r.jobs_shed,
                   "jobs not conserved: completed + shed != offered")
            return (lambda: _fleet_facts(trace, r)), r.jobs_offered
        return run

    return [("wave/1k-nodes", cell(cfg.BIG)), ("wave/faulted", cell(cfg.FAULTED))]


#: Workload name -> cell factory.  ``bench/run.py`` owns the workload
#: descriptions; this table only says how to run one.
CELLS = {
    "registry": registry_cells,
    "migrate-pingpong": migrate_cells,
    "dispatch": dispatch_cells,
    "serving-sweep": serving_cells,
    "fleet-wave": fleet_cells,
}


# ---------------------------------------------------------------- tracing

def install_layer_wrappers(spans):
    """Wrap the deep entry points of each layer for a traced pass."""
    from repro.kernel.dsm import DsmService
    from repro.kernel.migration import MigrationService
    from repro.linker.layout import page_of
    from repro.runtime.transform import StackTransformer
    from repro.serving import engine as serving_engine
    from repro.serving.policies import ServingPolicy
    from repro.serving.resilience import AdmissionController
    from repro.sim.events import EventQueue

    def range_pages(spans, args, result):
        base, span = args[2], args[3]
        if span > 0:
            spans.count("kernel.dsm.pages", page_of(base + span - 1) - page_of(base) + 1)

    def one_page(spans, args, result):
        spans.count("kernel.dsm.pages")

    def migrated(spans, args, result):
        if result.aborted:
            spans.count("kernel.migration.aborted")

    def transformed(spans, args, result):
        spans.count("runtime.transform.frames", result.frames)
        spans.count("runtime.transform.values_copied", result.values_copied)

    def event(spans, args, result):
        if result is not None:
            spans.count("sim.events")

    spans.wrap(DsmService, "ensure_range", "kernel.dsm.ensure_range", range_pages)
    spans.wrap(DsmService, "access", "kernel.dsm.access", one_page)
    spans.wrap(MigrationService, "migrate_thread", "kernel.migration", migrated)
    spans.wrap(StackTransformer, "transform", "runtime.transform", transformed)
    policies = [ServingPolicy]
    for cls in policies:
        policies.extend(cls.__subclasses__())
        if "decide" in vars(cls):
            spans.wrap(cls, "decide", "serving.policies.decide")
    spans.wrap(AdmissionController, "admit", "serving.resilience.admit")
    spans.wrap(serving_engine, "slo_report", "serving.slo.report")
    spans.wrap(EventQueue, "pop", on_result=event)


def layer_metrics(spans):
    """Per-layer metrics of a traced pass, from its spans and counters."""
    times = self_times(spans.records)
    none = {"self_s": 0.0, "total_s": 0.0, "count": 0}
    metrics = {}
    for name, metric in SELF_METRICS.items():
        metrics[metric] = times.get(name, none)["self_s"]
    for name, metric in COUNT_METRICS.items():
        metrics[metric] = times.get(name, none)["count"]
    counters = spans.counters
    for name in COUNTERS:
        metrics[name] = counters.get(name, 0)

    def per(seconds, scale, counter):
        n = counters.get(counter, 0)
        return seconds * scale / n if n else 0.0

    metrics["kernel.dsm.host_ns_per_page"] = per(
        metrics["kernel.dsm.ensure_range_s"] + metrics["kernel.dsm.access_s"],
        1e9, "kernel.dsm.pages")
    migrations = metrics["kernel.migration.count"]
    metrics["kernel.migration.abort_ratio"] = (
        counters.get("kernel.migration.aborted", 0) / migrations if migrations else 0.0
    )
    metrics["serving.engine.host_us_per_request"] = per(
        times.get("serving.engine", none)["total_s"], 1e6, "serving.requests")
    metrics["fleet.host_ns_per_job"] = per(
        times.get("fleet.run", none)["total_s"], 1e9, "fleet.jobs")
    return metrics


# ------------------------------------------------------------------- pass

def run_pass(workload, seed, traced, pass_id):
    """Run every cell of ``workload`` once; return the pass document.

    An untraced pass runs under the host-speed probe and reports its
    set-up and measured-phase time in reference seconds (``setup_s``,
    ``run_s``) besides host seconds (``*_wall_s``).  ``wall_s`` is the
    pass's host time without the probes.
    """
    spans = Spans()
    probe = None if traced else HostSpeed()
    with probe or contextlib.nullcontext():
        root = spans.begin("bench.pass")
        with spans.span("bench.import", SETUP):
            sys.path.insert(0, str(ROOT / "tools"))
            cells = CELLS[workload](seed)
            if traced:
                install_layer_wrappers(spans)
        results = []
        units = []
        for cell, run in cells:
            try:
                facts_of, cell_units = run(spans)
                with spans.span("bench.facts"):
                    facts = facts_of()
                facts["units"] = cell_units
                units.append(cell_units)
                results.append({"cell": cell, "facts": facts, "error": None})
            except Exception:
                results.append({"cell": cell, "facts": None,
                                "error": traceback.format_exc()})
        fastforward = sys.modules.get("repro.runtime.fastforward")
        if fastforward is not None:
            spans.count("runtime.regions_compiled", len(fastforward._CODE_CACHE))
        spans.end(root)

    wall = spans.records[root][END] - spans.records[root][START]
    document = {
        "workload": workload,
        "seed": seed,
        "pass": pass_id,
        "traced": traced,
        "cells": results,
        "units": math.fsum(units),
        "setup_wall_s": spans.phase_seconds(SETUP),
        "run_wall_s": spans.phase_seconds(RUN),
        "wall_s": wall - (probe.probe_seconds() if probe else 0.0),
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if probe is not None:
        for key, phase in (("setup_s", SETUP), ("run_s", RUN)):
            document[key] = sum(reference_seconds(probe.probes, r[START], r[END])
                                for r in spans.records if r[PHASE] == phase)
        document["probe_s"] = probe.median_probe_s()
    if traced:
        document["layers"] = layer_metrics(spans)
        document["trace_problems"] = write_trace(spans, workload, pass_id)
    return document


def write_trace(spans, workload, pass_id):
    """Write ``bench/out/trace-<workload>.json``; return schema problems."""
    from repro.analysis.export import validate_chrome_trace

    OUT.mkdir(exist_ok=True)
    text = json.dumps(to_chrome(spans.records, workload, pass_id))
    (OUT / f"trace-{workload}.json").write_text(text)
    return validate_chrome_trace(text)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=sorted(CELLS))
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pass-id", type=int, default=0)
    args = parser.parse_args(argv)
    document = run_pass(args.workload, args.seed, bool(args.trace), args.pass_id)
    print(json.dumps(document))
    return 0


if __name__ == "__main__":
    sys.exit(main())
