"""Table 1 — cost of the unified (aligned) layout: execution time and
L1 instruction cache miss ratios, aligned vs unaligned builds.

IS and CG, classes A/B/C, -O3 equivalent, on both machines.  The paper
finds execution-time changes of at most ~1% (some speedups, some
slowdowns — placement luck), L1I miss ratios strongly correlated with
the timing delta, and < 0.001% change in L1D misses.
"""

import pytest

from conftest import run_once
from repro.compiler import Toolchain
from repro.machine import make_xeon_e5_1650v2, make_xgene1
from repro.render import Table
from repro.workloads import build_workload

BENCHES = ("is", "cg")
CLASSES = ("A", "B", "C")
MACHINES = {"x86_64": make_xeon_e5_1650v2("m"), "arm64": make_xgene1("m")}

# Fraction of execution time attributable to L1I stalls at the base
# miss ratio — scales cache effects into wall-clock effects.
L1I_TIME_SHARE = 0.03


def _alignment_ratios(name, cls, isa_name):
    """(exec_ratio, l1i_miss_ratio): aligned / unaligned."""
    machine = MACHINES[isa_name]
    binary = Toolchain().build(build_workload(name, cls, 1, 0.001))
    aligned_fp = binary.layout.footprint(isa_name, ".text", padded=True)
    natural_fp = binary.unaligned_layouts[isa_name].footprint(
        isa_name, ".text", padded=False
    )
    cache = machine.l1i
    miss_aligned = cache.miss_ratio(aligned_fp)
    miss_natural = cache.miss_ratio(natural_fp)
    # Moving symbols perturbs set conflicts either way (the reason the
    # paper's table shows both speedups and slowdowns).
    perturb = cache.placement_perturbation(f"{name}.{cls}.{isa_name}")
    miss_ratio = (miss_aligned / miss_natural) * (1.0 + perturb)
    exec_ratio = 1.0 + (miss_ratio - 1.0) * L1I_TIME_SHARE
    return exec_ratio, miss_ratio


def _render(rows):
    table = Table(
        "Table 1: aligned/unaligned ratios (exec time, L1I misses)",
        ["metric"] + [f"{b.upper()} {c}" for c in CLASSES for b in BENCHES],
    )
    for metric in ("x86Exec", "x86L1IMiss", "ARMExec", "ARML1IMiss"):
        table.add_row(metric, *[f"{v:.4f}" for v in rows[metric]])
    return table.render()


def test_alignment_overhead(benchmark, save_result):
    def measure():
        rows = {"x86Exec": [], "x86L1IMiss": [], "ARMExec": [], "ARML1IMiss": []}
        for cls in CLASSES:
            for name in BENCHES:
                ex, miss = _alignment_ratios(name, cls, "x86_64")
                rows["x86Exec"].append(ex)
                rows["x86L1IMiss"].append(miss)
                ex, miss = _alignment_ratios(name, cls, "arm64")
                rows["ARMExec"].append(ex)
                rows["ARML1IMiss"].append(miss)
        return rows

    rows = run_once(benchmark, measure)
    save_result("tab1_alignment_overhead", _render(rows))

    # "Execution time changes up to 1%" — symbol alignment is noise.
    for metric in ("x86Exec", "ARMExec"):
        for value in rows[metric]:
            assert 0.98 < value < 1.02
    # Both speedups and slowdowns occur across the configurations.
    exec_values = rows["x86Exec"] + rows["ARMExec"]
    assert any(v < 1.0 for v in exec_values)
    assert any(v > 1.0 for v in exec_values)
    # Exec deltas track L1I deltas (same sign), the paper's correlation.
    for exec_metric, miss_metric in (("x86Exec", "x86L1IMiss"), ("ARMExec", "ARML1IMiss")):
        for ex, miss in zip(rows[exec_metric], rows[miss_metric]):
            assert (ex - 1.0) * (miss - 1.0) >= 0


def test_alignment_grows_text_footprint(benchmark):
    def measure():
        binary = Toolchain().build(build_workload("is", "A", 1, 0.001))
        out = {}
        for isa_name in binary.isa_names:
            padded = binary.layout.footprint(isa_name, ".text", padded=True)
            natural = binary.unaligned_layouts[isa_name].footprint(
                isa_name, ".text", padded=False
            )
            out[isa_name] = (padded, natural)
        return out

    footprints = run_once(benchmark, measure)
    for isa_name, (padded, natural) in footprints.items():
        assert padded >= natural
    # The padded footprint is common, the natural ones differ.
    padded_values = {p for p, _ in footprints.values()}
    natural_values = {n for _, n in footprints.values()}
    assert len(padded_values) == 1
    assert len(natural_values) == 2
