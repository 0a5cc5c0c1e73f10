"""Command-line interface.

Usage (also available as ``python -m repro``)::

    python -m repro list
    python -m repro run is --cls A --threads 4 --migrate-at 3
    python -m repro trace is --out trace.json --critical-path
    python -m repro layout cg --cls A
    python -m repro gaps ft --cls A
    python -m repro lint --all --format json
    python -m repro schedule --pattern periodic --sets 5
    python -m repro serve redis --traffic diurnal --policy latency-aware
"""

import argparse
import contextlib
import sys
from typing import List, Optional, Tuple

from repro.compiler import Toolchain
from repro.compiler.migration_points import scaled_target_gap
from repro.render import Table
from repro.sim.numeric import ordered_sum


def _add_workload_args(parser, with_threads=True):
    parser.add_argument("workload", help="benchmark name (see `repro list`)")
    _add_size_args(parser, with_threads)


def _add_size_args(parser, with_threads=True):
    """``--cls``, ``--threads`` and ``--scale``: the size of every
    registry workload a command builds."""
    parser.add_argument("--cls", default="A", choices=("A", "B", "C"),
                        help="NPB problem class")
    if with_threads:
        parser.add_argument("--threads", type=_at_least(1), default=2)
    parser.add_argument("--scale", type=_positive, default=0.01,
                        help="instruction-budget scale (1.0 = full size)")


def _non_negative(text: str) -> float:
    value = float(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {text}")
    return value


def _positive(text: str) -> float:
    value = float(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {text}")
    return value


def _at_least(minimum: int):
    """An argparse type: an int no smaller than ``minimum``."""
    def count(text: str) -> int:
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be >= {minimum}, got {text}")
        return value
    return count


def _add_fault_args(parser, span: str, detector: bool = True) -> None:
    """The crash flags ``faults``, ``serve`` and ``fleet`` share:
    ``--crash-at`` / ``--repair-after`` (defaults: 40% / 30% of
    ``span``) and, with ``detector``, ``--permanent`` plus the
    heartbeat/lease failure detector's flags.  Bad values exit 2."""
    parser.add_argument("--crash-at", type=_non_negative, default=None,
                        metavar="T", help="crash time in seconds "
                        f"(default: 40%% of {span})")
    parser.add_argument("--repair-after", type=_positive, default=None,
                        metavar="T", help="repair delay in seconds "
                        f"(default: 30%% of {span})")
    if not detector:
        return
    parser.add_argument("--permanent", action="store_true",
                        help="the crashed node never comes back")
    parser.add_argument("--detector", action="store_true",
                        help="detect crashes with a heartbeat/lease "
                        "failure detector (measured MTTD, false "
                        "suspicions and confirms, fencing) instead of "
                        "omniscient instant recovery")
    parser.add_argument("--heartbeat", type=_positive, default=0.5, metavar="S",
                        help="detector heartbeat period in seconds")
    parser.add_argument("--lease", type=_non_negative, default=1.5, metavar="S",
                        help="suspicion-to-confirm lease in seconds")


def _make_detector(args):
    """The failure detector ``--detector`` asks for, else None."""
    if not args.detector:
        return None
    from repro.faults import DetectorConfig, FailureDetector

    return FailureDetector(DetectorConfig(
        heartbeat_period_s=args.heartbeat, lease_s=args.lease,
    ))


def _crash_times(
    args, span: float, crash_at: Optional[float] = None
) -> Tuple[float, float]:
    """(crash time, repair delay): the flags' values, else ``crash_at``
    (or 40% of ``span``) and 30% of ``span``."""
    if args.crash_at is not None:
        crash_at = args.crash_at
    elif crash_at is None:
        crash_at = 0.4 * span
    repair = args.repair_after if args.repair_after is not None else 0.3 * span
    return crash_at, repair


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Heterogeneous-ISA datacenter reproduction toolkit",
    )
    parser.add_argument(
        "--validate", action="store_true",
        help="enable runtime invariant checking (DSM coherence, stack "
        "transformation, cluster conservation); equivalent to "
        "REPRO_VALIDATE=1",
    )
    parser.add_argument(
        "--validate-roundtrip", action="store_true",
        help="with --validate: also check that every cross-ISA stack "
        "transform round-trips bit-exactly (A->B->A)",
    )
    parser.add_argument(
        "--lint", action="store_true",
        help="run the migration-safety static analyzer over every binary "
        "built by this command and fail on error-severity diagnostics",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list available workloads")

    run = sub.add_parser("run", help="run a workload on the testbed")
    _add_workload_args(run)
    run.add_argument("--start", default="x86", choices=("x86", "arm"),
                     help="machine the process starts on")
    run.add_argument("--migrate-at", type=_at_least(1), default=None, metavar="N",
                     help="migrate the whole process at the Nth migration point")
    run.add_argument("--engine", default="exact", choices=("exact", "fast"),
                     help="execution engine: 'exact' steps every "
                     "instruction, 'fast' fast-forwards compiled regions "
                     "with bit-identical results (default: exact)")

    trace = sub.add_parser(
        "trace", help="run a workload with span tracing on and export "
        "the trace (see docs/observability.md)")
    _add_workload_args(trace)
    trace.add_argument("--start", default="x86", choices=("x86", "arm"),
                       help="machine the process starts on")
    trace.add_argument("--migrate-at", type=_at_least(1), default=2, metavar="N",
                       help="migrate the whole process at the Nth migration "
                       "point (default: 2, the Fig. 11 scenario)")
    trace.add_argument("--out", default="trace.json", metavar="PATH",
                       help="trace output file (default: trace.json)")
    trace.add_argument("--format", default="chrome",
                       choices=("chrome", "jsonl"),
                       help="chrome = Perfetto-loadable trace-event JSON; "
                       "jsonl = one span object per line")
    trace.add_argument("--critical-path", action="store_true",
                       help="print the per-migration transform / hand-off / "
                       "DSM-tail latency decomposition")

    layout = sub.add_parser("layout", help="show the common multi-ISA layout")
    _add_workload_args(layout, with_threads=False)
    layout.add_argument("--script", action="store_true",
                        help="print the full per-ISA linker script")

    gaps = sub.add_parser("gaps", help="migration-point gap histograms (pre/post)")
    _add_workload_args(gaps, with_threads=False)

    lint = sub.add_parser(
        "lint", help="migration-safety static analysis of multi-ISA binaries")
    lint.add_argument("workload", nargs="?", default=None,
                      help="benchmark name, or use --all")
    lint.add_argument("--all", action="store_true",
                      help="lint every registered workload")
    _add_size_args(lint)
    lint.add_argument("--format", default="text", choices=("text", "json"))
    lint.add_argument("--verbose", action="store_true",
                      help="include info-severity notes in text output")
    lint.add_argument("--pass", dest="passes", action="append", default=None,
                      metavar="NAME",
                      help="run only the named pass (repeatable); see "
                      "docs/lint.md")
    lint.add_argument("--baseline", default=None, metavar="PATH",
                      help="suppress diagnostics fingerprinted in this "
                      "baseline file")
    lint.add_argument("--write-baseline", default=None, metavar="PATH",
                      help="write the surviving error fingerprints to a "
                      "baseline file and exit 0")

    dump = sub.add_parser("dump", help="print a workload's IR in text form")
    _add_workload_args(dump, with_threads=True)
    dump.add_argument("--optimize", action="store_true",
                      help="run the middle-end passes before printing")

    sched = sub.add_parser("schedule", help="scheduling/energy study")
    sched.add_argument("--pattern", default="sustained",
                       choices=("sustained", "periodic"))
    sched.add_argument("--sets", type=_at_least(1), default=3)
    sched.add_argument("--jobs", type=_at_least(1), default=40)
    sched.add_argument("--seed", type=int, default=1200)

    faults = sub.add_parser(
        "faults", help="fault injection: crash a node, compare recovery")
    faults.add_argument("--pattern", default="sustained",
                        choices=("sustained", "periodic"))
    faults.add_argument("--jobs", type=_at_least(1), default=24)
    faults.add_argument("--seed", type=int, default=1200)
    faults.add_argument("--crash", default="x86", choices=("x86", "arm"),
                        help="which node dies")
    _add_fault_args(faults, "the fault-free makespan")
    faults.add_argument("--checkpoint-interval", type=_positive, default=60.0)
    faults.add_argument("--trace", action="store_true",
                        help="print the fault timelines")

    serve = sub.add_parser(
        "serve", help="open-loop serving: run a KV workload under a "
        "traffic shape with latency-aware migration (see docs/serving.md)")
    serve.add_argument("workload", help="benchmark name (see `repro list`)")
    serve.add_argument("--cls", default="A", choices=("A", "B", "C"),
                       help="NPB problem class (sets the working set the "
                       "hand-off must move)")
    serve.add_argument("--traffic", default="steady",
                       choices=("steady", "diurnal", "flash-crowd"),
                       help="arrival-trace shape (see docs/serving.md)")
    serve.add_argument("--policy", default="latency-aware",
                       choices=("static-x86", "static-arm",
                                "queue-reactive", "latency-aware"),
                       help="serving policy deciding where the service "
                       "lives and when it migrates")
    serve.add_argument("--seed", type=int, default=7,
                       help="trace seed (same seed = bit-identical trace)")
    serve.add_argument("--requests", type=int, default=8000,
                       help="total requests in the trace (conserved by "
                       "every shape)")
    serve.add_argument("--horizon", type=float, default=20.0, metavar="S",
                       help="trace horizon in simulated seconds")
    serve.add_argument("--slo-ms", type=float, default=None, metavar="MS",
                       help="end-to-end latency SLO in milliseconds "
                       "(default: 10)")
    serve.add_argument("--out", default=None, metavar="PATH",
                       help="also export the span trace (Perfetto-loadable "
                       "trace-event JSON)")
    serve.add_argument("--faults", action="store_true",
                       help="inject a node crash mid-run (shape it with "
                       "--crash/--crash-at/--repair-after/--permanent); "
                       "the service fails over to the surviving machine")
    serve.add_argument("--crash", default="arm", choices=("x86", "arm"),
                       help="which node dies (default: arm — the "
                       "latency-aware policy's home)")
    _add_fault_args(serve, "the trace horizon")
    serve.add_argument("--resilient", action="store_true",
                       help="attach the resilience layer: request "
                       "deadlines, crash replays under a retry budget, "
                       "tail-latency hedging, circuit breakers, and "
                       "priority-class load shedding (docs/serving.md)")

    fleet = sub.add_parser(
        "fleet", help="warehouse-scale fleet simulation: migrate a "
        "service population across the ISA boundary in waves "
        "(see docs/fleet.md)")
    fleet.add_argument("--x86-nodes", type=int, default=8, metavar="N",
                       help="x86-64 node count")
    fleet.add_argument("--arm-nodes", type=int, default=8, metavar="N",
                       help="arm64 node count")
    fleet.add_argument("--slots", type=int, default=4, metavar="N",
                       help="service slots per node")
    fleet.add_argument("--services", type=int, default=24, metavar="N",
                       help="size of the migrating service population")
    fleet.add_argument("--jobs", type=int, default=2000, metavar="N",
                       help="total jobs in the arrival trace")
    fleet.add_argument("--traffic", default="steady",
                       choices=("steady", "diurnal", "flash-crowd"),
                       help="arrival-trace shape (see docs/serving.md)")
    fleet.add_argument("--horizon", type=float, default=900.0, metavar="S",
                       help="trace horizon in simulated seconds")
    fleet.add_argument("--seed", type=int, default=42,
                       help="run seed (same seed = bit-identical result)")
    fleet.add_argument("--canary", type=float, default=0.05, metavar="F",
                       help="first-wave (canary) fraction of services")
    fleet.add_argument("--ramp", default="0.25,0.5,1.0", metavar="F,F,...",
                       help="cumulative migrated fractions per wave")
    fleet.add_argument("--wave-interval", type=float, default=120.0,
                       metavar="S", help="seconds between wave slots")
    fleet.add_argument("--bake", type=float, default=60.0, metavar="S",
                       help="warm-up before the canary (sets the SLO "
                       "baseline the regression gate compares against)")
    fleet.add_argument("--regression-threshold", type=float, default=0.05,
                       metavar="F", help="pause waves when SLO attainment "
                       "drops this far below the baked baseline")
    fleet.add_argument("--slo-factor", type=float, default=8.0, metavar="F",
                       help="latency SLO as a multiple of each service's "
                       "source-ISA duration")
    fleet.add_argument("--direction", default="x86-to-arm",
                       choices=("x86-to-arm", "arm-to-x86"),
                       help="which way the wave migrates")
    fleet.add_argument("--crash", type=int, default=None, metavar="IDX",
                       help="crash fleet node IDX mid-run (evacuate-live "
                       "failover; repairs after --repair-after)")
    _add_fault_args(fleet, "the horizon", detector=False)
    fleet.add_argument("--nested", action="store_true",
                       help="price service durations by running each "
                       "(workload, ISA) pair on a real nested "
                       "PopcornSystem instead of the analytic model")

    chaos = sub.add_parser(
        "chaos", help="deterministic crash-point enumeration over the "
        "two-phase migration and hDSM recovery protocols")
    chaos.add_argument("--workloads", default="is,ep", metavar="A,B,...",
                       help="comma-separated registry workloads")
    _add_size_args(chaos)
    chaos.add_argument("--migrate-at", type=_at_least(1), default=2, metavar="N",
                       help="migrate the process at the Nth migration point "
                       "(the hand-off protocol is what chaos crashes into)")
    chaos.add_argument("--dsm-backup", action="store_true",
                       help="enable dirty-page backup-home replication "
                       "(the recovery ablation)")
    chaos.add_argument("--serving", action="store_true",
                       help="enumerate the serving-plane crash points "
                       "instead (admit/enqueue/serve/complete and every "
                       "hand-off phase, request-conservation audited)")
    chaos.add_argument("--soak", type=_at_least(0), default=0, metavar="N",
                       help="additionally run N seeded random crash "
                       "injections per workload")
    chaos.add_argument("--seed", type=int, default=1234)
    chaos.add_argument("--verbose", action="store_true",
                       help="print every case, not just violations")
    return parser


# ------------------------------------------------------------- commands

def cmd_list(args) -> int:
    from repro.workloads import profile_for, workload_names

    table = Table("Available workloads", ["name", "classes", "mix (top)",
                                          "parallel fraction"])
    for name in workload_names():
        profile = profile_for(name)
        top = max(profile.mix, key=profile.mix.get)
        table.add_row(
            name,
            "/".join(sorted(profile.classes)),
            f"{top.value} ({profile.mix[top] * 100:.0f}%)",
            f"{profile.parallel_fraction:.2f}",
        )
    print(table.render())
    return 0


def _machine_name(short: str) -> str:
    return {"x86": "x86-server", "arm": "arm-server"}[short]


def cmd_run(args) -> int:
    from repro.kernel import boot_testbed
    from repro.runtime.execution import EngineHooks, make_engine
    from repro.telemetry import PowerRecorder
    from repro.workloads import build_workload

    toolchain = Toolchain(
        target_gap=scaled_target_gap(args.scale),
        lint=args.lint,
    )
    binary = toolchain.build(
        build_workload(args.workload, args.cls, args.threads, args.scale)
    )
    system = boot_testbed()
    recorder = PowerRecorder(system, rate_hz=min(100 / args.scale, 1e6))
    process = system.exec_process(binary, _machine_name(args.start))

    hooks = EngineHooks()
    hits = [0]

    def maybe_migrate(thread, fn, point_id, instrs):
        hits[0] += 1
        if args.migrate_at is not None and hits[0] == args.migrate_at:
            other = [m for m in system.machine_order
                     if m != thread.machine_name][0]
            print(f"migrating process to {other} "
                  f"(at {fn}, point {point_id})")
            system.request_migration(process, other)

    hooks.on_migration_point = maybe_migrate
    hooks.on_migration = lambda thread, outcome: print(
        f"  tid {thread.tid}: {outcome.src_machine} -> {outcome.dst_machine} "
        f"(transform {outcome.transform_seconds * 1e6:.0f} us)"
    )
    engine = make_engine(system, process, hooks, sampler=recorder.sampler,
                         engine=args.engine)
    engine.run()
    recorder.finish()

    table = Table(f"{args.workload}.{args.cls} x{args.threads}", ["metric", "value"])
    table.add_row("exit code", process.exit_code)
    table.add_row("output", " ".join(f"{v:.0f}" for v in process.output))
    table.add_row("simulated time (s)", f"{system.clock.now:.4f}")
    table.add_row("engine", "fast" if type(engine).__name__.startswith("Fast")
                  else "exact")
    table.add_row("migrations", engine.migration.migrations)
    table.add_row("DSM pages moved", process.dsm.stats.page_transfers)
    for name in system.machine_order:
        traces = recorder.machine(name)
        table.add_row(f"{name} energy (J)", f"{traces.cpu_energy():.2f}")
    if args.lint:
        from repro.telemetry.lintlog import default_lint_log

        table.add_row("lint checks", default_lint_log().summary())
    if system.tracer is not None:
        # REPRO_TRACE=1 attached a tracer; surface its aggregate view.
        table.add_row("spans recorded", len(system.tracer.spans))
        for name, value in system.tracer.metrics.render_rows():
            table.add_row(name, value)
    print(table.render())
    return 0 if process.exit_code == 0 else 1


def cmd_trace(args) -> int:
    from repro.analysis.critical_path import (
        migration_critical_path,
        render_critical_path,
    )
    from repro.analysis.export import (
        spans_to_chrome,
        spans_to_jsonl,
        validate_chrome_trace,
    )
    from repro.kernel import boot_testbed
    from repro.runtime.execution import EngineHooks, ExecutionEngine
    from repro.telemetry.spans import Tracer, check_causality
    from repro.workloads import build_workload

    toolchain = Toolchain(
        target_gap=scaled_target_gap(args.scale),
        lint=args.lint,
    )
    binary = toolchain.build(
        build_workload(args.workload, args.cls, args.threads, args.scale)
    )
    tracer = Tracer()
    system = boot_testbed(tracer=tracer)
    process = system.exec_process(binary, _machine_name(args.start))

    hooks = EngineHooks()
    hits = [0]

    def maybe_migrate(thread, fn, point_id, instrs):
        hits[0] += 1
        if args.migrate_at is not None and hits[0] == args.migrate_at:
            other = [m for m in system.machine_order
                     if m != thread.machine_name][0]
            system.request_migration(process, other)

    hooks.on_migration_point = maybe_migrate
    ExecutionEngine(system, process, hooks).run()

    problems = check_causality(tracer.spans)
    if args.format == "chrome":
        text = spans_to_chrome(tracer.spans)
        problems += validate_chrome_trace(text)
    else:
        text = spans_to_jsonl(tracer.spans)
    with open(args.out, "w") as fh:
        fh.write(text)

    table = Table(
        f"trace of {args.workload}.{args.cls} x{args.threads}",
        ["metric", "value"],
    )
    table.add_row("exit code", process.exit_code)
    table.add_row("simulated time (s)", f"{system.clock.now:.4f}")
    table.add_row("spans", len(tracer.spans))
    for category, count in tracer.by_category().items():
        table.add_row(f"spans[{category}]", count)
    for name, value in tracer.metrics.render_rows():
        table.add_row(name, value)
    table.add_row("wrote", f"{args.out} ({args.format})")
    print(table.render())
    if args.critical_path:
        print()
        print(render_critical_path(migration_critical_path(tracer.spans)))
    for problem in problems:
        print(f"trace problem: {problem}", file=sys.stderr)
    if problems:
        return 1
    return 0 if process.exit_code == 0 else 1


def cmd_layout(args) -> int:
    from repro.workloads import build_workload

    binary = Toolchain(lint=args.lint).build(
        build_workload(args.workload, args.cls, 1, args.scale)
    )
    table = Table(
        f"Common layout of {args.workload}.{args.cls} "
        f"(identical on {', '.join(binary.isa_names)})",
        ["symbol", "address", "padded", "arm64 size", "x86_64 size"],
    )
    for placed in binary.layout.in_section(".text"):
        table.add_row(
            placed.name,
            hex(placed.address),
            placed.padded_size,
            placed.sizes.get("arm64", "-"),
            placed.sizes.get("x86_64", "-"),
        )
    print(table.render())
    print(f".text footprint (padded): {binary.text_footprint('x86_64')} bytes; "
          f"TLS block: {binary.tls.block_size} bytes; "
          f"{binary.migration_point_count} migration points, "
          f"{binary.site_count} call sites")
    if args.script:
        print(binary.binary_for("x86_64").linker_script)
    return 0


def cmd_gaps(args) -> int:
    from repro.compiler.profiling import GapProfile, GapRecorder
    from repro.kernel import boot_testbed
    from repro.runtime.execution import EngineHooks, ExecutionEngine
    from repro.workloads import build_workload

    target = scaled_target_gap(args.scale)
    for mode in ("boundary", "profiled"):
        toolchain = Toolchain(
            migration_points=mode, target_gap=target, lint=args.lint
        )
        binary = toolchain.build(
            build_workload(args.workload, args.cls, 1, args.scale)
        )
        system = boot_testbed()
        process = system.exec_process(binary, "x86-server")
        profile = GapProfile()
        recorder = GapRecorder(profile)
        hooks = EngineHooks(on_migration_point=(
            lambda thread, fn, pid, instrs: recorder.on_migration_point(
                thread.tid, fn, pid, instrs)
        ))
        ExecutionEngine(system, process, hooks).run()
        label = "pre-insertion" if mode == "boundary" else "post-insertion"
        print(profile.format_histogram(
            f"{args.workload}.{args.cls} {label} "
            f"(max gap {profile.max_gap():.3g} instructions)"
        ))
        print()
    return 0


def cmd_lint(args) -> int:
    from repro.analyze import Baseline, render_json, render_text, run_lint
    from repro.telemetry.lintlog import default_lint_log
    from repro.workloads import build_workload, workload_names

    if args.all and args.workload:
        print("error: give a workload name or --all, not both",
              file=sys.stderr)
        return 2
    if not args.all and not args.workload:
        print("error: a workload name (or --all) is required",
              file=sys.stderr)
        return 2
    names = workload_names() if args.all else [args.workload]
    baseline = Baseline.load(args.baseline) if args.baseline else Baseline()
    # Lint is a reporting tool: build even modules the strict toolchain
    # would refuse, so the coverage pass can flag them instead.
    toolchain = Toolchain(
        target_gap=scaled_target_gap(args.scale),
        allow_unmigratable=True,
    )
    log = default_lint_log()
    reports = []
    failed = False
    for name in names:
        subject = f"{name}.{args.cls}"
        module = build_workload(name, args.cls, args.threads, args.scale)
        report = run_lint(module, passes=args.passes, subject=subject)
        if not any(d.code == "MIG001" for d in report.diagnostics):
            binary = toolchain.build(module)
            report = run_lint(binary, passes=args.passes, subject=subject)
        report.apply_baseline(baseline)
        log.note_report(report)
        reports.append(report)
        if report.error_count:
            failed = True
        if args.format == "text":
            print(render_text(report, verbose=args.verbose))
    if args.write_baseline:
        wrote = Baseline.from_reports(reports)
        wrote.save(args.write_baseline)
        print(f"wrote {len(wrote.fingerprints)} suppression(s) to "
              f"{args.write_baseline}")
        return 0
    if args.format == "json":
        print(render_json(reports))
    else:
        print(log.summary())
    return 1 if failed else 0


def cmd_dump(args) -> int:
    from repro.compiler.optimize import optimize_module
    from repro.ir.printer import print_module
    from repro.workloads import build_workload

    module = build_workload(args.workload, args.cls, args.threads, args.scale)
    if args.optimize:
        optimize_module(module)
    print(print_module(module))
    return 0


def cmd_schedule(args) -> int:
    from repro.datacenter import (
        ClusterSimulator,
        POLICIES,
        make_policy,
        periodic_waves,
        summarize_runs,
        sustained_backfill,
    )
    from repro.machine import make_xeon_e5_1650v2, make_xgene1
    from repro.sim.rng import DeterministicRng

    baseline = "static-x86(2)"

    def machines_for(name):
        if name == baseline:
            return [make_xeon_e5_1650v2("x86-1"), make_xeon_e5_1650v2("x86-2")]
        return [make_xgene1("arm"), make_xeon_e5_1650v2("x86")]

    runs = {name: [] for name in POLICIES}
    for index in range(args.sets):
        rng = DeterministicRng(args.seed + index)
        for name in POLICIES:
            sim = ClusterSimulator(machines_for(name), make_policy(name))
            if args.pattern == "sustained":
                specs, conc = sustained_backfill(
                    DeterministicRng(args.seed + index), args.jobs, 6
                )
                runs[name].append(sim.run_sustained(specs, conc))
            else:
                arrivals = periodic_waves(DeterministicRng(args.seed + index))
                runs[name].append(sim.run_periodic(arrivals))
    summary = summarize_runs(runs, baseline)
    table = Table(
        f"{args.pattern} workload, {args.sets} sets (vs {baseline})",
        ["policy", "energy (kJ)", "saving", "makespan ratio", "EDP red."],
    )
    for name, s in summary.items():
        table.add_row(
            name,
            f"{s.mean_energy / 1e3:.2f}",
            f"{s.mean_energy_reduction * 100:+.1f}%",
            f"{s.mean_makespan_ratio:.2f}",
            f"{s.mean_edp_reduction * 100:+.1f}%",
        )
    print(table.render())
    return 0


def cmd_faults(args) -> int:
    from repro.datacenter import (
        ClusterSimulator,
        make_policy,
        periodic_waves,
        sustained_backfill,
    )
    from repro.faults import (
        CheckpointRestart,
        EvacuateLive,
        FailStop,
        render_fault_timeline,
        render_recovery_comparison,
        single_crash,
    )
    from repro.machine import make_xeon_e5_1650v2, make_xgene1
    from repro.sim.rng import DeterministicRng

    def machines():
        return [make_xgene1("arm"), make_xeon_e5_1650v2("x86")]

    def run(faults=None, recovery=None):
        sim = ClusterSimulator(
            machines(), make_policy("dynamic-balanced"),
            faults=faults, recovery=recovery,
            detector=_make_detector(args) if faults is not None else None,
        )
        if args.pattern == "sustained":
            specs, conc = sustained_backfill(
                DeterministicRng(args.seed), args.jobs, 6
            )
            return sim.run_sustained(specs, conc)
        return sim.run_periodic(periodic_waves(DeterministicRng(args.seed)))

    fault_free = run()
    mid_wave = None
    if args.pattern == "periodic":
        # A fraction of the makespan often falls into an idle gap
        # between waves; crash while the cluster is provably busy.
        waves = sorted({t for t, _ in periodic_waves(DeterministicRng(args.seed))})
        mid_wave = waves[len(waves) // 2] + 5.0
    crash_at, repair_after = _crash_times(args, fault_free.makespan, mid_wave)
    schedule = single_crash(
        crash_at, args.crash,
        repair_seconds=repair_after, permanent=args.permanent,
    )
    strategies = {
        "evacuate-live": EvacuateLive(),
        "checkpoint-restart": CheckpointRestart(args.checkpoint_interval),
        "fail-stop": FailStop(),
    }
    results = {"fault-free": fault_free}
    for name, recovery in strategies.items():
        results[name] = run(faults=schedule, recovery=recovery)

    crash_desc = (
        f"{args.crash} crash at t={crash_at:.0f}s, "
        + ("permanent" if args.permanent else f"repair after {repair_after:.0f}s")
    )
    print(render_recovery_comparison(
        results, f"{args.pattern} workload under failure ({crash_desc})"
    ))
    if args.trace:
        for name in strategies:
            print()
            print(render_fault_timeline(results[name], f"{name} timeline"))
    return 0


def cmd_serve(args) -> int:
    from repro.serving import (
        DEFAULT_SLO_S,
        ServingEngine,
        default_resilience,
        make_serving_policy,
        make_trace,
        render_detector_rows,
        render_resilience_rows,
        render_slo_rows,
    )
    from repro.sim.rng import DeterministicRng
    from repro.telemetry.spans import Tracer, check_causality

    #: Per-shape trace parameters: the diurnal default runs two
    #: day/night cycles with a 6:1 peak:trough ratio so the peak
    #: actually breaches the default SLO on the ARM box.
    shape_kwargs = {
        "steady": {},
        "diurnal": {"peak_to_trough": 6.0, "periods": 2.0},
        "flash-crowd": {},
    }[args.traffic]
    slo_s = DEFAULT_SLO_S if args.slo_ms is None else args.slo_ms / 1e3
    tracer = Tracer()
    try:
        trace = make_trace(
            args.traffic, DeterministicRng(args.seed),
            requests=args.requests, horizon_s=args.horizon, **shape_kwargs,
        )
        faults = None
        if args.faults:
            from repro.faults import FaultSchedule, NodeCrash

            crash_at, repair = _crash_times(args, args.horizon)
            faults = FaultSchedule([
                NodeCrash(
                    time=crash_at, node=_machine_name(args.crash),
                    permanent=args.permanent, repair_seconds=repair,
                )
            ])
        engine = ServingEngine(
            make_serving_policy(args.policy), trace,
            workload=args.workload, cls=args.cls, slo_s=slo_s, tracer=tracer,
            faults=faults, detector=_make_detector(args),
            resilience=default_resilience(slo_s) if args.resilient else None,
            rng=DeterministicRng(args.seed),
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    result = engine.run()

    table = Table(
        f"serve {args.workload}.{args.cls} — {args.traffic} traffic, "
        f"{args.policy} policy (seed {args.seed})",
        ["metric", "value"],
    )
    table.add_row("trace checksum", trace.checksum())
    table.add_row("mean arrival rate", f"{trace.mean_rate():.1f} req/s")
    table.add_row("simulated time (s)", f"{result.makespan:.4f}")
    for metric, value in render_slo_rows(result):
        table.add_row(metric, value)
    table.add_row("hand-offs", result.migrations)
    table.add_row("hand-off seconds", f"{result.handoff_seconds:.6f}")
    table.add_row("blackout seconds", f"{result.overhead_seconds:.6f}")
    table.add_row("migration stall seconds",
                  f"{result.migration_stall_seconds:.6f}")
    table.add_row("deferrals", engine.deferrals)
    if args.faults or args.detector or args.resilient:
        for metric, value in render_resilience_rows(result):
            table.add_row(metric, value)
    if args.detector:
        for metric, value in render_detector_rows(result):
            table.add_row(metric, value)
    for name, joules in sorted(result.energy_by_machine.items()):
        table.add_row(f"{name} energy (J)", f"{joules:.2f}")
    table.add_row("total energy (J)", f"{result.total_energy:.2f}")
    table.add_row("spans recorded", len(tracer.spans))
    print(table.render())

    problems = check_causality(tracer.spans)
    if args.out:
        from repro.analysis.export import (
            spans_to_chrome,
            validate_chrome_trace,
        )

        text = spans_to_chrome(tracer.spans)
        problems += validate_chrome_trace(text)
        with open(args.out, "w") as fh:
            fh.write(text)
        print(f"wrote {args.out} (chrome)")
    for problem in problems:
        print(f"trace problem: {problem}", file=sys.stderr)
    return 1 if problems else 0


def cmd_chaos(args) -> int:
    from repro.faults import registry_scenario, run_chaos_suite, serving_scenarios

    if args.serving:
        scenarios = serving_scenarios()
    else:
        names = [n.strip() for n in args.workloads.split(",") if n.strip()]
        if not names:
            print("error: --workloads named no workloads", file=sys.stderr)
            return 2
        scenarios = [
            registry_scenario(
                name, cls=args.cls, threads=args.threads, scale=args.scale,
                migrate_at=args.migrate_at, dsm_backup=args.dsm_backup,
            )
            for name in names
        ]
    reports = run_chaos_suite(
        scenarios, soak_iterations=args.soak, seed=args.seed
    )
    violations = 0
    for report in reports:
        print(report.render(verbose=args.verbose))
        violations += len(report.violations)
    total = ordered_sum(len(r.cases) for r in reports)
    plane = "serving chaos" if args.serving else "chaos"
    print(f"{plane} total: {total} armed runs, {violations} violations")
    return 1 if violations else 0


def cmd_fleet(args) -> int:
    from repro.fleet import (
        FleetConfig,
        FleetSimulator,
        WavePolicy,
        node_name,
        render_result,
    )
    from repro.serving.traffic import make_trace
    from repro.sim.rng import DeterministicRng

    if args.direction == "x86-to-arm":
        source, target = "x86-64", "arm64"
    else:
        source, target = "arm64", "x86-64"
    nested = None
    if args.nested:
        from repro.datacenter.nested import NestedNodeSampler

        nested = NestedNodeSampler()
    rng = DeterministicRng(args.seed)
    try:
        # First: it checks the horizon that the crash time derives from.
        trace = make_trace(
            args.traffic, rng, requests=args.jobs, horizon_s=args.horizon
        )
        faults = None
        if args.crash is not None:
            from repro.faults import FaultSchedule, NodeCrash

            crash_at, repair = _crash_times(args, args.horizon)
            faults = FaultSchedule([
                NodeCrash(
                    time=crash_at, node=node_name(args.crash),
                    repair_seconds=repair,
                )
            ])
        config = FleetConfig(
            nodes={"x86-64": args.x86_nodes, "arm64": args.arm_nodes},
            slots_per_node=args.slots,
            services=args.services,
            source_isa=source,
            target_isa=target,
            slo_factor=args.slo_factor,
        )
        config.validate()
        ramp = tuple(float(f) for f in args.ramp.split(",") if f.strip())
        policy = WavePolicy(
            canary_fraction=args.canary,
            ramp=ramp,
            wave_interval_s=args.wave_interval,
            bake_s=args.bake,
            regression_threshold=args.regression_threshold,
        )
        # Inside the try: it rejects fault schedules naming unknown nodes.
        sim = FleetSimulator(config, policy, rng, faults=faults, nested=nested)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    result = sim.run(trace)
    print(render_result(result))
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    from repro import validate

    handler = {
        "list": cmd_list,
        "run": cmd_run,
        "trace": cmd_trace,
        "layout": cmd_layout,
        "gaps": cmd_gaps,
        "lint": cmd_lint,
        "dump": cmd_dump,
        "schedule": cmd_schedule,
        "faults": cmd_faults,
        "serve": cmd_serve,
        "fleet": cmd_fleet,
        "chaos": cmd_chaos,
    }[args.command]
    # An in-process caller gets checking back as it was.
    override = (
        validate.forced(True, roundtrip=args.validate_roundtrip or None)
        if args.validate or args.validate_roundtrip
        else contextlib.nullcontext()
    )
    with override:
        try:
            status = handler(args)
        except KeyError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        if validate.enabled():
            from repro.telemetry.validation import default_log

            # stderr, so that stdout stays what the command prints
            # (JSON included).
            print(f"invariant checks: {default_log().summary()}",
                  file=sys.stderr)
    return status


if __name__ == "__main__":
    sys.exit(main())
