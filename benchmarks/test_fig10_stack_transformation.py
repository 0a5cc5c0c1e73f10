"""Figure 10 — stack transformation latency distributions.

CG, EP, FT and IS: the thread ping-pongs between the machines so the
runtime transforms the stack at many distinct migration points; the
five-number summaries (min/Q1/median/Q3/max) per direction reproduce
the figure's box plots.  Expected shape: x86 transforms the stack in
under ~400 us for the majority of cases, ARM needs ~2x as long, and FT
(deepest call chain, most live values) is the most expensive.
"""

import pytest

from conftest import WORK_SCALE, run_once
from repro.analysis import five_number_summary
from repro.compiler import Toolchain
from repro.compiler.migration_points import DEFAULT_TARGET_GAP
from repro.kernel import boot_testbed
from repro.render import Table
from repro.runtime.execution import EngineHooks, ExecutionEngine
from repro.workloads import build_workload

BENCHES = ("cg", "ep", "ft", "is")
TARGET_GAP = int(DEFAULT_TARGET_GAP * WORK_SCALE)


def _collect_latencies(name):
    """Per-direction transformation latencies from a ping-pong run."""
    toolchain = Toolchain(target_gap=TARGET_GAP)
    binary = toolchain.build(build_workload(name, "A", threads=1, scale=WORK_SCALE))
    system = boot_testbed()
    process = system.exec_process(binary, "x86-server")
    latencies = {"x86_64": [], "arm64": []}
    details = []
    hooks = EngineHooks()
    counter = [0]

    def ping_pong(thread, fn, point_id, instrs):
        counter[0] += 1
        if counter[0] % 2 == 0:  # every other point: migrate away
            other = [m for m in system.machine_order if m != thread.machine_name]
            system.request_thread_migration(thread, other[0])

    def record(thread, outcome):
        if outcome.transform is None:
            return
        src_isa = system.isa_of(outcome.src_machine)
        latencies[src_isa].append(outcome.transform.latency_seconds(src_isa))
        details.append((outcome.transform.frames, outcome.transform.values_copied))

    hooks.on_migration_point = ping_pong
    hooks.on_migration = record
    ExecutionEngine(system, process, hooks).run()
    assert process.exit_code == 0
    return latencies, details


def test_stack_transformation_latency(benchmark, save_result):
    def measure():
        return {name: _collect_latencies(name) for name in BENCHES}

    results = run_once(benchmark, measure)

    table = Table(
        "Figure 10: stack transformation latency (microseconds)",
        ["bench", "dir", "min", "q1", "median", "q3", "max", "samples"],
    )
    summaries = {}
    for name in BENCHES:
        latencies, _ = results[name]
        for isa in ("x86_64", "arm64"):
            values_us = [t * 1e6 for t in latencies[isa]]
            assert values_us, f"{name}/{isa}: no transformations recorded"
            summary = five_number_summary(values_us)
            summaries[(name, isa)] = summary
            table.add_row(
                name, isa, f"{summary.minimum:.0f}", f"{summary.q1:.0f}",
                f"{summary.median:.0f}", f"{summary.q3:.0f}",
                f"{summary.maximum:.0f}", len(values_us),
            )
    save_result("fig10_stack_transformation", table.render())

    for name in BENCHES:
        x86 = summaries[(name, "x86_64")]
        arm = summaries[(name, "arm64")]
        # Majority under ~400us on x86; "less than one-half millisecond
        # on x86 and less than a millisecond on ARM" on average.
        assert x86.median < 400.0
        assert arm.median < 1000.0
        # ARM needs roughly 2x the latency.
        assert 1.5 < arm.median / x86.median < 3.0

    # FT's deep chain (fftz2: 7 frames, ~31 live values) is the worst.
    ft_max = summaries[("ft", "x86_64")].maximum
    for other in ("ep", "is"):
        assert ft_max >= summaries[(other, "x86_64")].maximum


def test_latency_grows_with_frames_and_values(benchmark):
    def measure():
        return _collect_latencies("ft")

    latencies, details = run_once(benchmark, measure)
    assert details
    # Deeper transformations took more modelled work.
    from repro.runtime.transform import TransformStats

    shallow = TransformStats(frames=2, values_copied=8, metadata_entries=16)
    deep = TransformStats(frames=7, values_copied=31, metadata_entries=62)
    assert deep.latency_seconds("x86_64") > shallow.latency_seconds("x86_64")
    assert deep.latency_seconds("arm64") > deep.latency_seconds("x86_64")

    # FT really does reach a multi-frame chain at its migration points.
    assert max(frames for frames, _ in details) >= 5
