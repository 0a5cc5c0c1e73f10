"""Figure 11 — PadMig (Java serialisation) vs multi-ISA binary
migration: power and load traces for serial NPB IS class B, migrating
``full_verify()`` from the x86 server to the ARM server.

Paper numbers: 23 s total for Java vs 11 s for native; serialisation +
deserialisation stall the Java run for up to ~8 s, while the native
run "resumes execution immediately on ARM", with a ~2 s hDSM page-pull
burst visible on the power rails.
"""

import pytest

from conftest import WORK_SCALE, run_once
from repro.compiler import Toolchain
from repro.compiler.migration_points import DEFAULT_TARGET_GAP
from repro.kernel import boot_testbed
from repro.managed import ManagedArray, ManagedObject, ObjectGraph, PadMigRuntime
from repro.render import Table
from repro.runtime.execution import ExecutionEngine
from repro.telemetry import PowerRecorder
from repro.workloads.npb_is import build_serial
from repro.workloads.profiles import PROFILES

ARM, X86 = "arm-server", "x86-server"
# IS class B keys: 2^25 4-byte Java ints (the serialised heap),
# scaled with the instruction budgets so both sides shrink together.
IS_B_KEYS = max(int((1 << 25) * WORK_SCALE), 1024)


def _native_run():
    """Run serial IS B natively, migrating before full_verify."""
    system = boot_testbed()
    recorder = PowerRecorder(system, rate_hz=100 / WORK_SCALE)
    toolchain = Toolchain(target_gap=int(DEFAULT_TARGET_GAP * WORK_SCALE))
    module = build_serial("B", scale=WORK_SCALE, migrate_before_verify=0)
    binary = toolchain.build(module)
    process = system.exec_process(binary, X86)
    engine = ExecutionEngine(
        system, process, sampler=recorder.sampler, batch=64
    )
    migrations = []
    engine.hooks.on_migration = lambda thread, outcome: migrations.append(outcome)
    engine.run()
    recorder.finish()
    assert process.exit_code == 0
    return system, recorder, migrations, process


def _padmig_run():
    """The same application under the PadMig model."""
    system = boot_testbed()
    recorder = PowerRecorder(system, rate_hz=100 / WORK_SCALE)
    root = ManagedObject("ISBenchmark")
    root.set_field("iteration", "int", 10)
    root.set_ref("key_array", ManagedArray("int", [0] * IS_B_KEYS))
    root.set_ref("rank_array", ManagedArray("int", [0] * 1024))
    graph = ObjectGraph([root])
    runtime = PadMigRuntime(system)
    # Native phase durations from the engine's own model of IS B serial
    # (75% ranking before the migration, 25% verification after).
    params = PROFILES["is"].params("B")
    x86 = system.machines[X86]
    arm = system.machines[ARM]
    from repro.datacenter.job import JobSpec, job_duration

    native_total_x86 = job_duration(JobSpec("is", "B", 1), x86) * WORK_SCALE
    arm_ratio = job_duration(JobSpec("is", "B", 1), arm) / job_duration(
        JobSpec("is", "B", 1), x86
    )
    run = runtime.run_with_migration(
        graph,
        src_machine=X86,
        dst_machine=ARM,
        native_compute_before_s=native_total_x86 * 0.75,
        native_compute_after_s=native_total_x86 * 0.25,
        dst_native_ratio=arm_ratio,
        sampler=recorder.sampler,
    )
    recorder.finish()
    return system, recorder, run


def test_padmig_vs_native_migration(benchmark, save_result):
    def measure():
        return _native_run(), _padmig_run()

    (nat_sys, nat_rec, migrations, process), (pad_sys, pad_rec, pad_run) = run_once(
        benchmark, measure
    )

    native_total = nat_sys.clock.now
    padmig_total = pad_sys.clock.now
    blackout = pad_run.migration_blackout_seconds()
    native_handoff = migrations[0].total_seconds if migrations else 0.0

    table = Table(
        "Figure 11: PadMig (Java) vs multi-ISA binary migration — IS B serial",
        ["quantity", "PadMig", "native"],
    )
    table.add_row("total time (s)", f"{padmig_total:.3f}", f"{native_total:.3f}")
    table.add_row(
        "migration stall (s)", f"{blackout:.3f}", f"{native_handoff:.6f}"
    )
    table.add_row(
        "x86 peak cpu power (W)",
        f"{pad_rec.machine(X86).cpu_power.max():.1f}",
        f"{nat_rec.machine(X86).cpu_power.max():.1f}",
    )
    table.add_row(
        "arm peak cpu power (W)",
        f"{pad_rec.machine(ARM).cpu_power.max():.1f}",
        f"{nat_rec.machine(ARM).cpu_power.max():.1f}",
    )
    table.add_row(
        "bytes shipped",
        f"{pad_run.payload_bytes}",
        f"{process.dsm.stats.bytes_transferred}",
    )
    save_result("fig11_migration_traces", table.render())

    # One cross-ISA migration happened natively.
    assert len(migrations) == 1 and migrations[0].cross_isa

    # Java end-to-end is a small multiple of the native end-to-end
    # (23s vs 11s in the paper; our compute model is lighter relative
    # to the fixed serialisation cost, so the band is wider).
    ratio = padmig_total / native_total
    assert 1.5 < ratio < 8.0

    # Serialisation stalls dominate the PadMig run; native migration is
    # more than three orders of magnitude cheaper.
    assert blackout > 100 * native_handoff
    assert native_handoff < 0.005  # sub-5ms hand-off

    # The application resumed immediately: ARM saw load right after the
    # native migration (hDSM pulled pages on demand rather than up
    # front).
    assert nat_rec.machine(ARM).load.max() > 0
    assert process.dsm.stats.page_transfers > 0


def test_power_traces_proportional(benchmark):
    """External (system) readings track internal (CPU) readings — the
    paper's justification for reporting internal power only."""

    def measure():
        return _native_run()

    _, recorder, _, _ = run_once(benchmark, measure)
    for machine in (X86, ARM):
        traces = recorder.machine(machine)
        cpu = traces.cpu_power.values
        system = traces.system_power.values
        assert len(cpu) == len(system)
        diffs = {round(s - c, 6) for s, c in zip(system, cpu)}
        # system = cpu + constant platform draw
        assert len(diffs) == 1
