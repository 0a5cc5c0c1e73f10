"""Extension experiment: checkpoint/restore vs live heterogeneous
migration.

The paper's related-work claim: its design migrates threads "without
the overheads of checkpoint/restore mechanisms" — and C/R cannot cross
the ISA boundary at all.  This bench quantifies both halves on the same
workload.
"""

import pytest

from conftest import WORK_SCALE, run_once
from repro.compiler import Toolchain
from repro.compiler.migration_points import DEFAULT_TARGET_GAP
from repro.kernel import PopcornSystem, boot_testbed
from repro.kernel.checkpoint import (
    CrossIsaRestoreError,
    checkpoint_process,
    checkpoint_transfer_seconds,
    restore_process,
)
from repro.machine import make_xeon_e5_1650v2
from repro.machine.interconnect import make_dolphin_pxh810
from repro.render import Table
from repro.runtime.execution import EngineHooks, ExecutionEngine
from repro.workloads import build_workload

BENCH = ("is", "A", 2)


def _toolchain():
    return Toolchain(target_gap=int(DEFAULT_TARGET_GAP * WORK_SCALE))


def _cr_downtime():
    """Checkpoint mid-run between two identical Xeons; measure the
    serial downtime (freeze + ship image + restore)."""
    system = PopcornSystem(
        [make_xeon_e5_1650v2("x86-a"), make_xeon_e5_1650v2("x86-b")]
    )
    binary = _toolchain().build(build_workload(*BENCH, scale=WORK_SCALE))
    process = system.exec_process(binary, "x86-a")
    engine = ExecutionEngine(system, process, batch=16)
    hits = [0]

    def pause(thread, fn, point_id, instrs):
        hits[0] += 1
        if hits[0] == 8:
            engine.request_pause()

    engine.hooks.on_migration_point = pause
    engine.run()
    assert engine.paused
    ckpt = checkpoint_process(process, system)
    downtime = checkpoint_transfer_seconds(ckpt, make_dolphin_pxh810())
    system.reap_process(process)
    restored = restore_process(system, binary, ckpt, "x86-b")
    ExecutionEngine(system, restored).run()
    assert restored.exit_code == 0
    return downtime, ckpt


def _live_stall():
    """Cross-ISA live migration stall on the heterogeneous testbed."""
    system = boot_testbed()
    binary = _toolchain().build(build_workload(*BENCH, scale=WORK_SCALE))
    process = system.exec_process(binary, "x86-server")
    hooks = EngineHooks()
    outcomes = []
    hits = [0]

    def once(thread, fn, point_id, instrs):
        hits[0] += 1
        if hits[0] == 8:
            system.request_migration(process, "arm-server")

    hooks.on_migration_point = once
    hooks.on_migration = lambda t, o: outcomes.append(o)
    ExecutionEngine(system, process, hooks, batch=16).run()
    assert process.exit_code == 0
    stall = max(o.total_seconds for o in outcomes)
    return stall, outcomes


def test_cr_vs_live_migration(benchmark, save_result):
    def measure():
        return _cr_downtime(), _live_stall()

    (downtime, ckpt), (stall, outcomes) = run_once(benchmark, measure)

    table = Table(
        "Extension: checkpoint/restore vs live heterogeneous migration "
        f"({BENCH[0]}.{BENCH[1]} x{BENCH[2]})",
        ["mechanism", "downtime (ms)", "bytes up front", "crosses ISAs?"],
    )
    table.add_row(
        "CRIU-style C/R", f"{downtime * 1e3:.3f}", ckpt.image_bytes, "no"
    )
    table.add_row(
        "live migration (this work)", f"{stall * 1e3:.3f}",
        "0 (hDSM on demand)", "yes",
    )
    save_result("extension_cr_vs_live", table.render())

    # Live migration's stall beats shipping the whole image up front.
    assert stall < downtime
    # And C/R structurally cannot do what the paper's system does:
    system = boot_testbed()
    binary = _toolchain().build(build_workload(*BENCH, scale=WORK_SCALE))
    process = system.exec_process(binary, "x86-server")
    engine = ExecutionEngine(system, process, batch=16)
    hits = [0]

    def pause(thread, fn, point_id, instrs):
        hits[0] += 1
        if hits[0] == 4:
            engine.request_pause()

    engine.hooks.on_migration_point = pause
    engine.run()
    assert engine.paused
    ckpt2 = checkpoint_process(process, system)
    with pytest.raises(CrossIsaRestoreError):
        restore_process(system, binary, ckpt2, "arm-server")
