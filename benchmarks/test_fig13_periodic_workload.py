"""Figure 13 — periodic workload: energy and energy-delay product for
static x86(2) versus the dynamic policies over 10 sets of 5 arrival
waves (up to 14 jobs each, 60-240 s apart).

Paper: migration improves both energy and EDP — ~30% average energy
reduction (up to 66% on the best set), ~11% average EDP reduction, with
the two dynamic policies within 1% of each other (the unbalanced series
is omitted from the figure for that reason).
"""

import pytest

from conftest import run_once
from repro.datacenter import (
    ClusterSimulator,
    make_policy,
    periodic_waves,
    summarize_runs,
)
from repro.datacenter.job import JobSpec
from repro.machine import make_xeon_e5_1650v2, make_xgene1
from repro.render import Table
from repro.sim.rng import DeterministicRng

SETS = 10
BASELINE = "static-x86(2)"
POLICY_NAMES = (BASELINE, "dynamic-balanced", "dynamic-unbalanced")

# The periodic mix leans on the heavier classes so waves take minutes,
# as in the paper's long-running sets.
HEAVY_MIX = (
    JobSpec("is", "B", 2), JobSpec("is", "C", 4),
    JobSpec("cg", "B", 4), JobSpec("cg", "C", 4),
    JobSpec("ft", "B", 4), JobSpec("ft", "C", 8),
    JobSpec("ep", "B", 4), JobSpec("ep", "C", 8),
    JobSpec("mg", "B", 2), JobSpec("mg", "C", 4),
    JobSpec("sp", "B", 4), JobSpec("bt", "B", 4),
    JobSpec("bzip2smp", "B", 2), JobSpec("bzip2smp", "C", 4),
    JobSpec("verus", "B", 1), JobSpec("verus", "C", 2),
)


def _machines(policy_name):
    if policy_name == BASELINE:
        return [make_xeon_e5_1650v2("x86-1"), make_xeon_e5_1650v2("x86-2")]
    return [make_xgene1("arm"), make_xeon_e5_1650v2("x86")]


def _run_all():
    runs = {name: [] for name in POLICY_NAMES}
    for set_index in range(SETS):
        rng = DeterministicRng(7300 + set_index)
        arrivals = periodic_waves(rng, mix=HEAVY_MIX)
        for name in POLICY_NAMES:
            sim = ClusterSimulator(_machines(name), make_policy(name))
            runs[name].append(sim.run_periodic(list(arrivals)))
    return runs


def _render(runs, summary):
    per_set = Table(
        "Figure 13 (periodic): per-set energy (kJ) and EDP (kJ*s)",
        ["set"]
        + [f"{p} E" for p in POLICY_NAMES]
        + [f"{p} EDP" for p in POLICY_NAMES],
    )
    for i in range(SETS):
        per_set.add_row(
            f"set-{i}",
            *[f"{runs[p][i].total_energy / 1e3:.1f}" for p in POLICY_NAMES],
            *[f"{runs[p][i].edp / 1e6:.2f}" for p in POLICY_NAMES],
        )
    agg = Table(
        "Figure 13 (periodic): averages vs static x86(2)",
        ["policy", "energy red. avg", "energy red. max", "EDP red. avg"],
    )
    for name in POLICY_NAMES:
        s = summary[name]
        agg.add_row(
            name,
            f"{s.mean_energy_reduction * 100:.1f}%",
            f"{s.max_energy_reduction * 100:.1f}%",
            f"{s.mean_edp_reduction * 100:.1f}%",
        )
    return per_set.render() + "\n\n" + agg.render()


def test_periodic_workload(benchmark, save_result):
    runs = run_once(benchmark, _run_all)
    summary = summarize_runs(runs, BASELINE)
    save_result("fig13_periodic_workload", _render(runs, summary))

    balanced = summary["dynamic-balanced"]
    unbalanced = summary["dynamic-unbalanced"]

    # "Our system provides on average a 30% energy reduction" — allow a
    # generous band around the paper's average.
    assert 0.18 < balanced.mean_energy_reduction < 0.45
    # Energy improves on EVERY set ("provides an energy reduction for
    # all sets").
    for run, base in zip(runs["dynamic-balanced"], runs[BASELINE]):
        assert run.energy_reduction_vs(base) > 0
    # EDP also improves on average, by less than the energy does.
    assert 0 < balanced.mean_edp_reduction < balanced.mean_energy_reduction + 0.05
    # The two dynamic policies are close (paper: within 1%; we allow 5).
    assert abs(
        balanced.mean_energy_reduction - unbalanced.mean_energy_reduction
    ) < 0.05


def test_periodic_savings_exceed_sustained(benchmark):
    """Idle gaps make the heterogeneous pair shine: periodic savings
    are larger than sustained ones (30% vs ~12% in the paper)."""

    def measure():
        runs_p = _run_all()
        from repro.datacenter import sustained_backfill

        runs_s = {name: [] for name in (BASELINE, "dynamic-balanced")}
        for set_index in range(4):
            rng = DeterministicRng(1200 + set_index)
            specs, conc = sustained_backfill(rng, 40, 6)
            for name in runs_s:
                sim = ClusterSimulator(_machines(name), make_policy(name))
                runs_s[name].append(sim.run_sustained(list(specs), conc))
        return runs_p, runs_s

    runs_p, runs_s = run_once(benchmark, measure)
    periodic = summarize_runs(
        {k: runs_p[k] for k in (BASELINE, "dynamic-balanced")}, BASELINE
    )["dynamic-balanced"].mean_energy_reduction
    sustained = summarize_runs(runs_s, BASELINE)[
        "dynamic-balanced"
    ].mean_energy_reduction
    assert periodic > sustained
