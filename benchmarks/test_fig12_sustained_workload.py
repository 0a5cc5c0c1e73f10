"""Figure 12 — sustained workload: energy by machine per policy and
makespan ratios over 10 workload sets of 40 jobs.

Paper: migration trades execution time for energy — the dynamic
policies save energy versus the static two-Xeon baseline (unbalanced up
to ~22%, on average ~12%; balanced ~8%) at ~1.5x makespan, and the
static heterogeneous policies are strictly worse than the dynamic ones.
"""

import pytest

from conftest import run_once
from repro.datacenter import (
    ClusterSimulator,
    POLICIES,
    make_policy,
    summarize_runs,
    sustained_backfill,
)
from repro.machine import make_xeon_e5_1650v2, make_xgene1
from repro.render import Table
from repro.sim.rng import DeterministicRng

SETS = 10
JOBS_PER_SET = 40
CONCURRENCY = 6
BASELINE = "static-x86(2)"


def _machines(policy_name):
    if policy_name == BASELINE:
        return [make_xeon_e5_1650v2("x86-1"), make_xeon_e5_1650v2("x86-2")]
    return [make_xgene1("arm"), make_xeon_e5_1650v2("x86")]


def _run_all():
    runs = {name: [] for name in POLICIES}
    for set_index in range(SETS):
        rng = DeterministicRng(1200 + set_index)
        specs, concurrency = sustained_backfill(rng, JOBS_PER_SET, CONCURRENCY)
        for name in POLICIES:
            sim = ClusterSimulator(_machines(name), make_policy(name))
            runs[name].append(sim.run_sustained(list(specs), concurrency))
    return runs


def _render(runs, summary):
    per_set = Table(
        "Figure 12 (sustained): per-set energy (kJ) by policy",
        ["set"] + list(POLICIES),
    )
    for i in range(SETS):
        per_set.add_row(
            f"set-{i}", *[f"{runs[p][i].total_energy / 1e3:.2f}" for p in POLICIES]
        )
    agg = Table(
        "Figure 12 (sustained): averages vs static x86(2)",
        ["policy", "energy red. avg", "energy red. max", "makespan ratio"],
    )
    for name in POLICIES:
        s = summary[name]
        agg.add_row(
            name,
            f"{s.mean_energy_reduction * 100:.1f}%",
            f"{s.max_energy_reduction * 100:.1f}%",
            f"{s.mean_makespan_ratio:.2f}",
        )
    return per_set.render() + "\n\n" + agg.render()


def test_sustained_workload(benchmark, save_result):
    runs = run_once(benchmark, _run_all)
    summary = summarize_runs(runs, BASELINE)
    save_result("fig12_sustained_workload", _render(runs, summary))

    dyn_bal = summary["dynamic-balanced"]
    dyn_unbal = summary["dynamic-unbalanced"]

    # Dynamic policies reduce energy versus the two-Xeon baseline...
    assert dyn_bal.mean_energy_reduction > 0.04
    assert dyn_unbal.mean_energy_reduction > 0.04
    # ...with double-digit savings on the best sets (paper: 22.48% max).
    assert max(dyn_bal.max_energy_reduction, dyn_unbal.max_energy_reduction) > 0.10
    # ...at the expense of execution time (paper: ~1.5x on average,
    # balanced slowest).
    assert 1.2 < dyn_unbal.mean_makespan_ratio < 2.2
    assert dyn_bal.mean_makespan_ratio >= dyn_unbal.mean_makespan_ratio - 0.05

    # Dynamic beats static heterogeneous on both axes (the paper's
    # "net win of dynamic scheduling").
    for static_name, dyn in (
        ("static-het-balanced", dyn_bal),
        ("static-het-unbalanced", dyn_unbal),
    ):
        static = summary[static_name]
        assert dyn.mean_energy_reduction >= static.mean_energy_reduction - 0.02
        assert dyn.mean_makespan_ratio <= static.mean_makespan_ratio + 0.05

    # Dynamic policies actually migrated jobs; static never did.
    assert all(r.migrations == 0 for r in runs["static-het-balanced"])
    assert sum(r.migrations for r in runs["dynamic-balanced"]) > 0


def test_energy_split_by_machine(benchmark, save_result):
    runs = run_once(benchmark, _run_all)
    table = Table(
        "Figure 12 (sustained): mean energy breakdown by machine (kJ)",
        ["policy", "machine", "energy"],
    )
    for name in POLICIES:
        totals = {}
        for result in runs[name]:
            for machine, joules in result.energy_by_machine.items():
                totals[machine] = totals.get(machine, 0.0) + joules
        for machine, joules in sorted(totals.items()):
            table.add_row(name, machine, f"{joules / SETS / 1e3:.2f}")
    save_result("fig12_energy_breakdown", table.render())

    # In the heterogeneous policies the x86 machine burns most of the
    # energy (the projected ARM board is an order of magnitude lower).
    for name in ("dynamic-balanced", "dynamic-unbalanced"):
        result = runs[name][0]
        assert result.energy_by_machine["x86"] > result.energy_by_machine["arm"]
