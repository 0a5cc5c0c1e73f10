"""Extension experiment: failure recovery — evacuate via live
heterogeneous-ISA migration vs CRIU-style checkpoint/restart.

The paper's mechanism is pitched as the escape hatch from
checkpoint/restore's two costs: shipping the whole image up front, and
the image being ISA-specific.  This bench runs the Fig. 12 (sustained)
and Fig. 13 (periodic) workloads with a mid-run crash of the x86 node
and compares the two recovery strategies on goodput (useful seconds per
wall second), MTTR, lost work, and makespan.  Because the ARM board is
the only survivor, checkpoint-restart must first fail a cross-ISA
restore (``CrossIsaRestoreError`` — the paper's motivating limitation),
park the jobs, and wait for the x86 repair; evacuate-live just drains
across the ISA boundary and keeps running.
"""

import pytest

from conftest import run_once
from repro.datacenter import (
    ClusterSimulator,
    make_policy,
    periodic_waves,
    sustained_backfill,
)
from repro.faults import (
    CheckpointRestart,
    EvacuateLive,
    render_recovery_comparison,
    single_crash,
)
from repro.machine import make_xeon_e5_1650v2, make_xgene1
from repro.render import Table
from repro.sim.rng import DeterministicRng

SETS = 3
JOBS_PER_SET = 40
CONCURRENCY = 6
SEED = 1200
CRASH_FRACTION = 0.4  # of the fault-free makespan
REPAIR_FRACTION = 0.5
CHECKPOINT_INTERVAL_S = 10.0
POLICY = "dynamic-balanced"


def _machines():
    return [make_xgene1("arm"), make_xeon_e5_1650v2("x86")]


def _run(pattern, seed, faults=None, recovery=None):
    sim = ClusterSimulator(
        _machines(), make_policy(POLICY), faults=faults, recovery=recovery
    )
    if pattern == "sustained":
        specs, conc = sustained_backfill(
            DeterministicRng(seed), JOBS_PER_SET, CONCURRENCY
        )
        return sim.run_sustained(specs, conc)
    return sim.run_periodic(periodic_waves(DeterministicRng(seed)))


def _compare(pattern, seed):
    """Fault-free baseline plus both recovery strategies on one set."""
    fault_free = _run(pattern, seed)
    if pattern == "periodic":
        # Crash shortly after the third wave lands, while the cluster
        # is busy (a fraction of the makespan would often fall into an
        # idle gap between waves).
        waves = sorted({t for t, _ in periodic_waves(DeterministicRng(seed))})
        crash_at = waves[2] + 5.0
        repair = 60.0
    else:
        crash_at = fault_free.makespan * CRASH_FRACTION
        repair = fault_free.makespan * REPAIR_FRACTION

    def schedule():
        return single_crash(crash_at, "x86", repair_seconds=repair)

    return {
        "fault-free": fault_free,
        "evacuate-live": _run(
            pattern, seed, faults=schedule(), recovery=EvacuateLive()
        ),
        "checkpoint-restart": _run(
            pattern, seed, faults=schedule(),
            recovery=CheckpointRestart(CHECKPOINT_INTERVAL_S),
        ),
    }


def _run_all():
    return {
        pattern: [_compare(pattern, SEED + i) for i in range(SETS)]
        for pattern in ("sustained", "periodic")
    }


def _render(all_results):
    sections = []
    for pattern, sets in all_results.items():
        for i, results in enumerate(sets):
            crash_at = next(
                e.time for e in results["evacuate-live"].fault_trace
                if e.kind == "crash"
            )
            sections.append(
                render_recovery_comparison(
                    results,
                    f"{pattern} set-{i}: x86 crash at t={crash_at:.0f}s "
                    f"(checkpoint every {CHECKPOINT_INTERVAL_S:.0f}s)",
                )
            )
        agg = Table(
            f"{pattern}: mean over {SETS} sets",
            ["strategy", "goodput", "makespan (s)", "lost work (s)"],
        )
        for name in ("fault-free", "evacuate-live", "checkpoint-restart"):
            runs = [s[name] for s in sets]
            agg.add_row(
                name,
                f"{sum(r.goodput for r in runs) / SETS:.3f}",
                f"{sum(r.makespan for r in runs) / SETS:.1f}",
                f"{sum(r.lost_work_seconds for r in runs) / SETS:.1f}",
            )
        sections.append(agg.render())
    return "\n\n".join(sections)


def test_fault_recovery(benchmark, save_result):
    all_results = run_once(benchmark, _run_all)
    save_result("fault_recovery", _render(all_results))

    for pattern, sets in all_results.items():
        for results in sets:
            evac = results["evacuate-live"]
            cr = results["checkpoint-restart"]

            # Evacuation via live migration keeps strictly more of the
            # cluster useful than checkpoint/restart under the same
            # crash (the paper's resilience argument, quantified).
            assert evac.goodput > cr.goodput, (pattern, results)

            # Nobody loses jobs outright; the mechanisms differ in cost.
            assert evac.requests_failed == 0 and cr.requests_failed == 0
            assert evac.jobs_evacuated > 0
            assert cr.jobs_restarted > 0

            # Evacuate-live never rolls progress back; C/R must.
            assert evac.lost_work_seconds == 0.0
            assert cr.lost_work_seconds > 0.0

            # The x86 image cannot restore on the ARM survivor: the
            # CrossIsaRestoreError path fired and the jobs were parked
            # until a same-ISA node repaired — not a simulator crash.
            kinds = {e.kind for e in cr.fault_trace}
            assert "cross-isa-denied" in kinds
            assert "park" in kinds and "restart" in kinds

            # Both runs observed the same crash and repair.
            assert evac.mttr == pytest.approx(cr.mttr)
            assert evac.fault_events == cr.fault_events == 2


def test_faults_leave_zero_fault_path_untouched(benchmark, save_result):
    """The wiring guarantee: an empty schedule reproduces the seed
    numbers of Fig. 12 exactly."""
    from repro.faults import FaultSchedule

    def measure():
        plain = _run("sustained", SEED)
        wired = ClusterSimulator(
            _machines(), make_policy(POLICY),
            faults=FaultSchedule(()), recovery=CheckpointRestart(30.0),
        )
        specs, conc = sustained_backfill(
            DeterministicRng(SEED), JOBS_PER_SET, CONCURRENCY
        )
        return plain, wired.run_sustained(specs, conc)

    plain, wired = run_once(benchmark, measure)
    assert wired.makespan == plain.makespan
    assert wired.energy_by_machine == plain.energy_by_machine
    assert wired.migrations == plain.migrations
    assert wired.mean_response == plain.mean_response
    assert wired.fault_events == 0 and wired.fault_trace == []
    save_result(
        "fault_recovery_zero_fault",
        "zero-fault wiring check: empty FaultSchedule reproduces the "
        f"seed run exactly (makespan {plain.makespan:.6f}s, "
        f"energy {plain.total_energy:.3f}J, {plain.migrations} migrations)",
    )
