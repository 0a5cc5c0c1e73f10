"""Figure 1 — emulation slowdown of KVM/QEMU-style cross-ISA execution.

Top graph: ARM binaries emulated on the x86 host vs native on ARM.
Bottom graph: x86 binaries emulated on the ARM host vs native on x86.
Plus the Redis datapoints quoted in the text (2.6x / 34x).
"""

import pytest

from conftest import WORK_SCALE, run_once
from repro.analysis import geomean
from repro.compiler import Toolchain
from repro.emulation import make_emulated_machine
from repro.kernel import PopcornSystem
from repro.machine import make_xeon_e5_1650v2, make_xgene1
from repro.render import Table, format_series
from repro.runtime.execution import ExecutionEngine
from repro.workloads import build_workload

BENCHES = ("sp", "is", "ft", "bt", "cg")
CLASSES = ("A", "B", "C")
THREADS = (1, 2, 4, 8)


def _run(machine, name, cls, threads):
    system = PopcornSystem([machine])
    binary = Toolchain().build(build_workload(name, cls, threads, WORK_SCALE))
    process = system.exec_process(binary, machine.name)
    ExecutionEngine(system, process).run()
    assert process.exit_code == 0, f"{name}.{cls}x{threads} failed on {machine.name}"
    return system.clock.now


def _slowdowns(guest_isa):
    """slowdown[bench][(cls, threads)] for one emulation direction."""
    out = {}
    for name in BENCHES:
        out[name] = {}
        for cls in CLASSES:
            for threads in THREADS:
                if guest_isa == "arm64":
                    native = _run(make_xgene1("native"), name, cls, threads)
                    host = make_xeon_e5_1650v2("host")
                else:
                    native = _run(make_xeon_e5_1650v2("native"), name, cls, threads)
                    host = make_xgene1("host")
                emul = _run(
                    make_emulated_machine(host, guest_isa), name, cls, threads
                )
                out[name][(cls, threads)] = emul / native
    return out


def _render(direction, slowdowns):
    table = Table(
        f"Figure 1 ({direction}): emulation slowdown vs native",
        ["bench"] + [f"{c}{t}" for t in THREADS for c in CLASSES],
    )
    for name in BENCHES:
        row = [name]
        for threads in THREADS:
            for cls in CLASSES:
                row.append(f"{slowdowns[name][(cls, threads)]:.1f}x")
        table.add_row(*row)
    return table.render()


class TestFigure1:
    def test_arm_binaries_emulated_on_x86(self, benchmark, save_result):
        slowdowns = run_once(benchmark, lambda: _slowdowns("arm64"))
        save_result("fig01_top_arm_on_x86", _render("ARM guest on x86 host", slowdowns))
        values = [v for per in slowdowns.values() for v in per.values()]
        # Paper envelope (top graph, log axis 1..100).
        assert min(values) > 1.0
        assert max(values) < 150.0
        # More guest threads -> worse relative slowdown (TCG serialises).
        for name in BENCHES:
            assert (
                slowdowns[name][("A", 8)] > slowdowns[name][("A", 1)]
            ), f"{name}: threading should hurt emulation"

    def test_x86_binaries_emulated_on_arm(self, benchmark, save_result):
        slowdowns = run_once(benchmark, lambda: _slowdowns("x86_64"))
        save_result(
            "fig01_bottom_x86_on_arm", _render("x86 guest on ARM host", slowdowns)
        )
        values = [v for per in slowdowns.values() for v in per.values()]
        # Paper envelope (bottom graph, log axis 10..10000).
        assert min(values) > 10.0
        assert max(values) < 10000.0
        # This direction is categorically worse than the other.
        assert geomean(values) > 50.0

    def test_redis_datapoints(self, benchmark, save_result):
        def measure():
            native_arm = _run(make_xgene1("na"), "redis", "A", 1)
            emul_arm_guest = _run(
                make_emulated_machine(make_xeon_e5_1650v2("h1"), "arm64"),
                "redis", "A", 1,
            )
            native_x86 = _run(make_xeon_e5_1650v2("nx"), "redis", "A", 1)
            emul_x86_guest = _run(
                make_emulated_machine(make_xgene1("h2"), "x86_64"),
                "redis", "A", 1,
            )
            return emul_arm_guest / native_arm, emul_x86_guest / native_x86

        arm_dir, x86_dir = run_once(benchmark, measure)
        save_result(
            "fig01_redis",
            f"Redis emulation slowdown: ARM-guest {arm_dir:.1f}x, "
            f"x86-guest {x86_dir:.1f}x (paper: 2.6x and 34x)",
        )
        # Shape: ARM-guest direction is single-digit, the reverse is
        # an order of magnitude worse.
        assert arm_dir < 12.0
        assert x86_dir > 3 * arm_dir
