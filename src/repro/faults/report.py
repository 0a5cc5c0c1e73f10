"""Fault-run observability: recovery comparisons and timelines.

Renders the fault metrics the cluster simulator exports on
:class:`~repro.datacenter.energy.ClusterResult` — goodput (useful
seconds per wall second), MTTR, lost work, and the evacuated/restarted
job counts and the lost ones (``requests_failed``) — in the harness's
standard table format, plus the raw fault timeline for debugging a run.
"""

from typing import Dict, List

from repro.datacenter.energy import ClusterResult
from repro.render import Table


def render_recovery_comparison(
    results: Dict[str, ClusterResult],
    title: str = "Recovery strategies under failure",
) -> str:
    """One row per recovery strategy, most informative columns first."""
    table = Table(
        title,
        [
            "strategy",
            "makespan (s)",
            "goodput",
            "MTTR (s)",
            "MTTD (s)",
            "lost work (s)",
            "overhead (s)",
            "evac",
            "restart",
            "lost",
            "false-susp",
            "lost pages",
        ],
    )
    for name, run in results.items():
        table.add_row(
            name,
            f"{run.makespan:.1f}",
            f"{run.goodput:.3f}",
            f"{run.mttr:.1f}",
            f"{run.mttd:.1f}",
            f"{run.lost_work_seconds:.1f}",
            f"{run.overhead_seconds:.2f}",
            run.jobs_evacuated,
            run.jobs_restarted,
            run.requests_failed,
            run.false_suspicions,
            run.lost_pages,
        )
    return table.render()


def render_fault_timeline(run: ClusterResult, title: str = "fault timeline") -> str:
    lines: List[str] = [title]
    if not run.fault_trace:
        lines.append("(no fault events)")
    for entry in run.fault_trace:
        lines.append(entry.format())
    return "\n".join(lines)
