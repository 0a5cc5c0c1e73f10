"""The five scheduling policies of Section 6 ("Job Scheduling").

Static policies assign a job to a machine at arrival and can never
move it; dynamic policies may migrate running jobs (heterogeneous-ISA
migration makes that legal across the ARM/x86 boundary).  Balanced
policies equalise the number of threads per machine; unbalanced
policies deliberately skew threads toward the x86 machine, following
the observation (DeVuyst et al.) that unbalanced thread scheduling on
heterogeneous processors can save energy.
"""

from typing import Dict, List, Tuple, TYPE_CHECKING

from repro.datacenter.job import Job

if TYPE_CHECKING:  # pragma: no cover
    from repro.datacenter.cluster import MachineNode


class SchedulingPolicy:
    """Base policy: least-loaded placement, no migration."""

    name = "base"
    dynamic = False
    # Relative thread quota per ISA; higher weight -> more threads.
    weights: Dict[str, float] = {"x86_64": 1.0, "arm64": 1.0}

    def _weight(self, node: "MachineNode") -> float:
        return self.weights.get(node.machine.isa.name, 1.0)

    def _pressure(self, node: "MachineNode", extra_threads: int = 0) -> float:
        return (node.threads_in_use + extra_threads) / self._weight(node)

    def place(self, job: Job, nodes: List["MachineNode"]) -> "MachineNode":
        """Choose the node for an arriving job."""
        return min(
            nodes,
            key=lambda n: (self._pressure(n, job.threads), n.machine.name),
        )

    def rebalance(
        self, nodes: List["MachineNode"]
    ) -> List[Tuple[Job, "MachineNode"]]:
        """Migrations to perform now (dynamic policies only)."""
        return []


class StaticX86Pair(SchedulingPolicy):
    """Balance threads across two identical x86 machines (baseline)."""

    name = "static-x86(2)"


class StaticHetBalanced(SchedulingPolicy):
    """Balance thread counts across the ARM and x86 machines; static."""

    name = "static-het-balanced"


class StaticHetUnbalanced(SchedulingPolicy):
    """Skew threads toward x86 (it is ~4-6x faster per core); static."""

    name = "static-het-unbalanced"
    weights = {"x86_64": 4.0, "arm64": 1.0}


class _DynamicMixin(SchedulingPolicy):
    """Shared migration logic for the dynamic policies."""

    dynamic = True
    max_migrations_per_job = 4
    min_remaining_fraction = 0.15

    def rebalance(self, nodes):
        moves: List[Tuple[Job, "MachineNode"]] = []
        if len(nodes) < 2:
            return moves
        # One corrective move per event keeps the policy stable.
        donor = max(nodes, key=self._pressure)
        receiver = min(nodes, key=self._pressure)
        if donor is receiver:
            return moves
        candidates = [
            j
            for j in donor.jobs
            if j.migrations < self.max_migrations_per_job
            and j.remaining_fraction > self.min_remaining_fraction
        ]
        for job in sorted(candidates, key=lambda j: -j.remaining_fraction):
            before = abs(self._pressure(donor) - self._pressure(receiver))
            after = abs(
                self._pressure(donor, -job.threads)
                - self._pressure(receiver, job.threads)
            )
            if after + 1e-9 < before:
                moves.append((job, receiver))
                break
        return moves


class DynamicBalanced(_DynamicMixin):
    """Keep thread counts balanced between ARM and x86; migrate."""

    name = "dynamic-balanced"


class DynamicUnbalanced(_DynamicMixin):
    """Keep x86 loaded ~4x heavier than ARM; migrate."""

    name = "dynamic-unbalanced"
    weights = {"x86_64": 4.0, "arm64": 1.0}


POLICIES = {
    policy.name: policy
    for policy in (
        StaticX86Pair,
        StaticHetBalanced,
        StaticHetUnbalanced,
        DynamicBalanced,
        DynamicUnbalanced,
    )
}


def make_policy(name: str) -> SchedulingPolicy:
    try:
        return POLICIES[name]()
    except KeyError:
        raise KeyError(f"unknown policy {name!r}; have {sorted(POLICIES)}") from None
