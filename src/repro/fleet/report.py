"""Rendering for fleet-migration-wave runs (the ``repro fleet`` output).

Formats a :class:`~repro.fleet.simulator.FleetRunResult` through
:mod:`repro.render`: wave progress with migration bars, per-ISA
capacity/jobs/energy rollups, the latency/SLO summary, and the fault
plane's evacuation accounting.
"""

from typing import List

from repro.fleet.simulator import FleetRunResult
from repro.render import Table, bar


def wave_table(result: FleetRunResult) -> Table:
    """Wave-by-wave progress: who moved, who paused, what it cost."""
    table = Table(
        "migration waves",
        ["wave", "t (s)", "state", "moved", "cumulative", "attainment", "stall (s)"],
    )
    population = max(result.services, 1)
    for wave in result.waves:
        state = "PAUSED" if wave.paused else (
            "deferred" if wave.deferred else "ok"
        )
        progress = bar(wave.cumulative_migrated, population, width=16)
        table.add_row(
            wave.index,
            f"{wave.time:.0f}",
            state,
            wave.migrated,
            f"{wave.cumulative_migrated} {progress}",
            f"{wave.attainment_before:.3f}",
            f"{wave.stall_seconds:.3f}",
        )
    return table


def isa_table(result: FleetRunResult) -> Table:
    """Per-ISA capacity, completed jobs, utilisation and energy."""
    table = Table(
        "per-ISA rollup",
        ["isa", "nodes", "slots", "jobs", "busy core-s", "energy (kJ)"],
    )
    for isa in sorted(result.nodes_by_isa):
        table.add_row(
            isa,
            result.nodes_by_isa[isa],
            result.capacity_slots_by_isa[isa],
            result.jobs_by_isa[isa],
            f"{result.busy_core_seconds_by_isa[isa]:.1f}",
            f"{result.energy_by_machine[isa] / 1e3:.2f}",
        )
    return table


def summary_table(result: FleetRunResult) -> Table:
    """The run's headline numbers."""
    table = Table("fleet run", ["metric", "value"])
    table.add_row("seed", result.seed)
    table.add_row("services", result.services)
    table.add_row("jobs offered", result.requests)
    table.add_row("jobs completed", result.requests_completed)
    if result.requests_shed:
        table.add_row("jobs shed (stranded)", result.requests_shed)
    table.add_row("horizon (s)", f"{result.horizon_s:.0f}")
    table.add_row("makespan (s)", f"{result.makespan:.2f}")
    table.add_row("p50 / p99 / p99.9 latency (s)", (
        f"{result.p50_latency_s:.3f} / {result.p99_latency_s:.3f} / "
        f"{result.p999_latency_s:.3f}"
    ))
    table.add_row("SLO attainment", f"{result.slo_attainment:.4f}")
    table.add_row("services migrated",
                  f"{result.services_migrated}/{result.services}")
    table.add_row("migrations (incl. evacuations)", result.migrations)
    table.add_row("migration stall (s)", f"{result.migration_stall_seconds:.3f}")
    if result.paused_waves:
        table.add_row("paused waves", result.paused_waves)
    if result.crashes:
        table.add_row("crashes / repairs", f"{result.crashes} / {result.repairs}")
        table.add_row("evacuations (cross-ISA)",
                      f"{result.evacuations} ({result.failovers})")
    if result.stranded_services:
        table.add_row("stranded services", result.stranded_services)
    table.add_row("total energy (kJ)", f"{result.total_energy / 1e3:.2f}")
    table.add_row("checksum", result.checksum())
    return table


def render_result(result: FleetRunResult) -> str:
    """The full ``repro fleet`` report as one string."""
    sections: List[str] = [
        summary_table(result).render(),
        wave_table(result).render(),
        isa_table(result).render(),
    ]
    return "\n\n".join(sections)
