#!/usr/bin/env python3
"""Energy-aware datacenter scheduling across the ISA boundary.

Replays the paper's motivating scenario: a small cluster operator who
today runs two x86 servers wants to know whether replacing one with a
(FinFET-projected) ARM server — and migrating native jobs across the
ISA boundary — saves energy, and at what performance cost.

Runs one sustained and one periodic job set under every scheduling
policy and prints the energy / makespan / EDP comparison (the
Figure 12/13 machinery through the public API).

Run:  python examples/energy_aware_consolidation.py
"""

from repro.datacenter import (
    ClusterSimulator,
    POLICIES,
    make_policy,
    periodic_waves,
    sustained_backfill,
)
from repro.machine import make_xeon_e5_1650v2, make_xgene1
from repro.render import Table
from repro.sim.rng import DeterministicRng

BASELINE = "static-x86(2)"


def machines_for(policy_name):
    if policy_name == BASELINE:
        return [make_xeon_e5_1650v2("x86-1"), make_xeon_e5_1650v2("x86-2")]
    return [make_xgene1("arm"), make_xeon_e5_1650v2("x86")]


def compare(title, run_fn):
    results = {}
    for name in POLICIES:
        sim = ClusterSimulator(machines_for(name), make_policy(name))
        results[name] = run_fn(sim)

    base = results[BASELINE]
    table = Table(
        title,
        ["policy", "energy (kJ)", "vs base", "makespan (s)", "EDP (kJ*s)",
         "migrations"],
    )
    for name, result in results.items():
        saving = result.energy_reduction_vs(base) * 100
        table.add_row(
            name,
            f"{result.total_energy / 1e3:.2f}",
            f"{saving:+.1f}%",
            f"{result.makespan:.1f}",
            f"{result.edp / 1e6:.2f}",
            result.migrations,
        )
    print(table.render())
    print()
    return results


def main():
    rng = DeterministicRng(2026)

    specs, concurrency = sustained_backfill(rng, total_jobs=40, concurrency=6)
    compare(
        "Sustained workload (40 jobs, closed system) — Figure 12 scenario",
        lambda sim: sim.run_sustained(list(specs), concurrency),
    )

    arrivals = periodic_waves(rng)
    results = compare(
        "Periodic workload (5 waves, 60-240 s gaps) — Figure 13 scenario",
        lambda sim: sim.run_periodic(list(arrivals)),
    )

    base = results[BASELINE]
    best = min(results.values(), key=lambda r: r.total_energy)
    print(
        f"Verdict: '{best.policy}' is the most energy-efficient policy "
        f"for the periodic load, saving "
        f"{best.energy_reduction_vs(base) * 100:.1f}% energy versus two "
        f"x86 servers, enabled by heterogeneous-ISA migration."
    )


if __name__ == "__main__":
    main()
