"""Result records and cross-policy summaries (energy, makespan, EDP)."""

from dataclasses import dataclass
from typing import Dict, List


@dataclass
class RunResult:
    """What every simulator measures about one run: the core that
    :class:`ClusterResult`, :class:`~repro.serving.slo.ServingResult`
    and :class:`~repro.fleet.simulator.FleetRunResult` extend.

    A *request* is one unit of offered work: a job in the cluster and
    the fleet, a request in serving.  Every offered request ends in
    exactly one of completed, shed (refused before it ran) or failed
    (lost to a fault, or failed loudly).  Latency is completion minus
    arrival over the completed requests.
    """

    makespan: float
    energy_by_machine: Dict[str, float]  # joules per node (fleet: per ISA pool)
    requests: int
    requests_completed: int
    requests_shed: int
    requests_failed: int
    migrations: int
    migration_stall_seconds: float  # time work waited on migrations
    p50_latency_s: float
    p99_latency_s: float
    p999_latency_s: float

    @property
    def total_energy(self) -> float:
        return sum(self.energy_by_machine.values())

    @property
    def edp(self) -> float:
        """Energy-delay product (J * s)."""
        return self.total_energy * self.makespan

    def energy_reduction_vs(self, baseline: "RunResult") -> float:
        """Fractional energy saving relative to ``baseline`` (0.22 = 22%)."""
        if baseline.total_energy <= 0:
            return 0.0
        return 1.0 - self.total_energy / baseline.total_energy

    def makespan_ratio_vs(self, baseline: "RunResult") -> float:
        if baseline.makespan <= 0:
            return float("inf")
        return self.makespan / baseline.makespan

    def edp_reduction_vs(self, baseline: "RunResult") -> float:
        if baseline.edp <= 0:
            return 0.0
        return 1.0 - self.edp / baseline.edp


@dataclass
class ClusterResult(RunResult):
    """One (job set, policy) cluster run: the core plus the fault,
    recovery and hand-off accounting of :mod:`repro.faults`.

    A lost job counts as a failed request; the cluster has no admission
    control, so it sheds nothing.
    """

    policy: str
    mean_response: float
    fault_events: int
    jobs_evacuated: int
    jobs_restarted: int
    lost_work_seconds: float  # progress rolled back by C/R
    overhead_seconds: float  # migration penalties + restore downtime
    busy_seconds: float  # summed wall seconds jobs spent running
    mttr: float  # mean crash-to-repair time over repaired nodes
    goodput: float  # useful seconds per wall second
    fault_trace: List  # FaultLogEntry list
    mttd: float  # mean crash-to-confirmed-dead time (0 = omniscient)
    false_suspicions: int  # live nodes suspected (partition/degradation)
    lost_pages: int  # dirty pages whose only copy died with a node
    handoffs: int  # two-phase hand-offs begun
    handoffs_aborted: int  # rolled back (destination died mid-flight)
    handoff_seconds: float  # summed in-flight (PREPARE->COMMIT) time
    # MetricsRegistry.snapshot() of the run's tracer; empty when
    # tracing is off.
    metrics: Dict[str, object]


@dataclass
class PolicySummary:
    policy: str
    mean_energy: float
    mean_makespan: float
    mean_edp: float
    mean_energy_reduction: float
    max_energy_reduction: float
    mean_makespan_ratio: float
    mean_edp_reduction: float


def summarize_runs(
    runs_by_policy: Dict[str, List[RunResult]], baseline_policy: str
) -> Dict[str, PolicySummary]:
    """Aggregate per-set results, comparing each policy to the baseline
    set-by-set (as the paper's per-set bars do)."""
    baselines = runs_by_policy[baseline_policy]
    if not baselines:
        raise ValueError("no runs to summarize")
    summaries: Dict[str, PolicySummary] = {}
    for policy, runs in runs_by_policy.items():
        if len(runs) != len(baselines):
            raise ValueError(
                f"{policy} has {len(runs)} runs vs baseline {len(baselines)}"
            )
        reductions = [
            r.energy_reduction_vs(b) for r, b in zip(runs, baselines)
        ]
        ratios = [r.makespan_ratio_vs(b) for r, b in zip(runs, baselines)]
        edp_reds = [r.edp_reduction_vs(b) for r, b in zip(runs, baselines)]
        n = len(runs)
        summaries[policy] = PolicySummary(
            policy=policy,
            mean_energy=sum(r.total_energy for r in runs) / n,
            mean_makespan=sum(r.makespan for r in runs) / n,
            mean_edp=sum(r.edp for r in runs) / n,
            mean_energy_reduction=sum(reductions) / n,
            max_energy_reduction=max(reductions),
            mean_makespan_ratio=sum(ratios) / n,
            mean_edp_reduction=sum(edp_reds) / n,
        )
    return summaries
