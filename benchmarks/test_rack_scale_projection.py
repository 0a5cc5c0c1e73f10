"""Rack-scale projection (the paper's closing claim).

"Due to these advantages, we predict greater benefits can be obtained
at the rack or datacenter scale."  The cluster simulator is not limited
to two machines, so we test the prediction: racks mixing N ARM and M
x86 servers versus an all-x86 rack of the same slot count, under the
dynamic policies, for both arrival patterns.
"""

import pytest

from conftest import run_once
from repro.datacenter import (
    ClusterSimulator,
    make_policy,
    periodic_waves,
    summarize_runs,
    sustained_backfill,
)
from repro.machine import make_xeon_e5_1650v2, make_xgene1
from repro.render import Table
from repro.sim.rng import DeterministicRng

SETS = 4
RACK_SLOTS = 8


def _rack(arm_count: int):
    machines = [make_xgene1(f"arm-{i}") for i in range(arm_count)]
    machines += [
        make_xeon_e5_1650v2(f"x86-{i}") for i in range(RACK_SLOTS - arm_count)
    ]
    return machines


def _energy_for(arm_count: int, pattern: str):
    runs = []
    baselines = []
    for set_index in range(SETS):
        seed = 9100 + set_index
        if pattern == "sustained":
            specs, _ = sustained_backfill(DeterministicRng(seed), 80, 0)
            # "Without overloading any of the machines": ~half capacity,
            # as in the paper's dual-server runs (6 jobs on 2 servers).
            conc = int(1.5 * RACK_SLOTS)
            sim = ClusterSimulator(_rack(arm_count), make_policy("dynamic-unbalanced"))
            runs.append(sim.run_sustained(list(specs), conc))
            base = ClusterSimulator(_rack(0), make_policy("dynamic-unbalanced"))
            baselines.append(base.run_sustained(list(specs), conc))
        else:
            arrivals = periodic_waves(
                DeterministicRng(seed), waves=6, max_jobs_per_wave=3 * RACK_SLOTS
            )
            sim = ClusterSimulator(_rack(arm_count), make_policy("dynamic-unbalanced"))
            runs.append(sim.run_periodic(list(arrivals)))
            base = ClusterSimulator(_rack(0), make_policy("dynamic-unbalanced"))
            baselines.append(base.run_periodic(list(arrivals)))
    saving = sum(
        r.energy_reduction_vs(b) for r, b in zip(runs, baselines)
    ) / len(runs)
    ratio = sum(r.makespan_ratio_vs(b) for r, b in zip(runs, baselines)) / len(runs)
    return saving, ratio


@pytest.mark.parametrize("pattern", ("sustained", "periodic"))
def test_rack_scale_energy(pattern, benchmark, save_result):
    def measure():
        return {
            arm_count: _energy_for(arm_count, pattern)
            for arm_count in (0, 2, 4, 6)
        }

    results = run_once(benchmark, measure)
    table = Table(
        f"Rack-scale projection ({pattern}, {RACK_SLOTS} slots, "
        f"vs all-x86 rack)",
        ["ARM slots", "energy saving", "makespan ratio"],
    )
    for arm_count, (saving, ratio) in results.items():
        table.add_row(arm_count, f"{saving * 100:+.1f}%", f"{ratio:.2f}")
    save_result(f"rack_scale_{pattern}", table.render())

    # Mixing ARM into the rack saves energy at some mix level; for the
    # bursty pattern it saves at EVERY level and grows with ARM share
    # ("greater benefits can be obtained at the rack scale"), while a
    # fully-loaded sustained rack shows the crossover: too many slow
    # slots stretch the makespan and erode the saving.
    assert any(results[n][0] > 0.0 for n in (2, 4, 6))
    if pattern == "periodic":
        for arm_count in (2, 4, 6):
            assert results[arm_count][0] > 0.0
        assert results[6][0] > results[2][0]


def test_two_node_results_extend_to_rack(benchmark):
    """The dual-server energy ranking survives at rack scale: the
    heterogeneous rack is never worse than all-x86 on energy for the
    bursty pattern."""

    def measure():
        return _energy_for(4, "periodic")

    saving, ratio = run_once(benchmark, measure)
    assert saving > 0.1
    assert ratio < 2.0
