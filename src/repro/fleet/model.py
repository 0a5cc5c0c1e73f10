"""Fleet data model: node templates, per-node structs, configuration.

The warehouse-scale simulator holds thousands of nodes and millions of
jobs, so per-node and per-service state must stay small and flat.  The
heavyweight machinery — machine models, power models, duration tables —
lives in one :class:`NodeTemplate` *per ISA*, shared by every node of
that ISA; each :class:`FleetNode` and :class:`ServiceInstance` is a
``__slots__`` struct holding only counters and indices.  This mirrors
the :class:`~repro.kernel.kernel.PopcornSystem` split: the facade's
components carry the shared machinery so per-node state is cheap to
instantiate by the thousand.
"""

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.datacenter.job import JobSpec, job_duration
from repro.kernel.testbed import machine_for_isa
from repro.machine.interconnect import make_dolphin_pxh810
from repro.machine.machine import Machine
from repro.machine.mcpat import arm_finfet_power


class NodeTemplate:
    """Everything shared by every fleet node of one ISA.

    Holds the reference :class:`~repro.machine.machine.Machine` (for
    analytic durations), the power parameters (ARM FinFET-projected),
    and a memoized duration table keyed by job spec.  The per-node
    structs keep only a template index, so a 10k-node fleet carries
    exactly one machine model per ISA.
    """

    def __init__(self, isa: str):
        self.isa = isa
        self.machine: Machine = machine_for_isa(isa, f"{isa}-template")
        self.power = arm_finfet_power(self.machine)
        self.cores = self.machine.cpu.cores
        self._durations: Dict[JobSpec, float] = {}

    def duration(self, spec: JobSpec) -> float:
        """Seconds to run ``spec`` on a node of this template (memoized)."""
        cached = self._durations.get(spec)
        if cached is None:
            cached = job_duration(spec, self.machine)
            self._durations[spec] = cached
        return cached

    def set_duration(self, spec: JobSpec, seconds: float) -> None:
        """Override the analytic duration (nested-node measurements)."""
        self._durations[spec] = seconds

    def energy_joules(self, uptime_s: float, busy_core_seconds: float) -> float:
        """On-package energy for one node over the run.

        Analytic counterpart of the cluster layer's power integral:
        idle power over the node's uptime plus the active-core power
        for every busy core-second.  The uncore term is utilization-
        weighted (charged per busy core-second at ``uncore/cores``)
        rather than gated on "any core active", which the flat per-node
        structs do not track; docs/fleet.md quantifies the
        approximation.
        """
        p = self.power
        per_core = p.core_active_w + p.uncore_active_w / max(self.cores, 1)
        return p.cpu_idle_w * uptime_s + per_core * busy_core_seconds

    def __repr__(self) -> str:
        return f"NodeTemplate({self.isa}, cores={self.cores})"


class FleetNode:
    """One machine of the fleet: a flat struct, no behaviour."""

    __slots__ = (
        "idx",
        "isa",
        "alive",
        "instances",
        "busy_core_seconds",
        "down_since",
        "downtime_s",
    )

    def __init__(self, idx: int, isa: str):
        self.idx = idx
        self.isa = isa
        self.alive = True
        # Service ids currently homed here (small: slots per node).
        self.instances: list = []
        self.busy_core_seconds = 0.0
        self.down_since = -1.0  # -1 = up
        self.downtime_s = 0.0


class ServiceInstance:
    """One service of the migrating population: a flat struct.

    The service runs as a single-server FIFO queue: ``free_at`` is the
    time its current backlog drains, and a job arriving at ``t`` starts
    at ``max(t, free_at)``.  Completion times are computed analytically
    at arrival, so a service instance needs no event-queue presence.
    """

    __slots__ = (
        "sid",
        "spec",
        "node_idx",
        "isa",
        "free_at",
        "migrated",
        "jobs_done",
        "jobs_in_slo",
        "busy_seconds",
        "busy_core_seconds",
        "migrations",
        "stall_seconds",
    )

    def __init__(self, sid: int, spec: JobSpec, node_idx: int, isa: str):
        self.sid = sid
        self.spec = spec
        self.node_idx = node_idx
        self.isa = isa
        self.free_at = 0.0
        self.migrated = False  # reached the wave's target ISA
        self.jobs_done = 0
        self.jobs_in_slo = 0
        self.busy_seconds = 0.0
        self.busy_core_seconds = 0.0
        self.migrations = 0
        self.stall_seconds = 0.0


@dataclass(frozen=True)
class FleetConfig:
    """Static shape of a fleet run.

    ``nodes`` maps ISA name to node count; ``slots_per_node`` bounds
    how many service instances a node hosts (capacity = nodes × slots).
    ``source_isa`` → ``target_isa`` is the direction of the migration
    wave.  ``slo_factor`` sets each service's latency SLO to
    ``slo_factor ×`` its duration on the *source* ISA — a migrated
    service must still answer within a small multiple of its old
    nominal service time.  The default 8 sits above the worst
    ARM/x86 duration ratio of the service mix (~7), so an *unloaded*
    migrated service meets its SLO and the pause-on-regression gate
    reacts to queueing, not to the ISA speed ratio itself; drop it
    below the ratio to model a migration that is SLO-infeasible.
    """

    nodes: Dict[str, int] = field(
        default_factory=lambda: {"x86-64": 32, "arm64": 32}
    )
    slots_per_node: int = 4
    services: int = 64
    source_isa: str = "x86-64"
    target_isa: str = "arm64"
    slo_factor: float = 8.0
    interconnect_bw: float = make_dolphin_pxh810().bandwidth_bytes_per_s

    def validate(self) -> None:
        """Reject configurations that cannot place their services."""
        for isa in (self.source_isa, self.target_isa):
            if isa not in self.nodes:
                raise ValueError(f"no nodes declared for ISA {isa!r}")
        source_slots = self.nodes[self.source_isa] * self.slots_per_node
        target_slots = self.nodes[self.target_isa] * self.slots_per_node
        if self.services > source_slots:
            raise ValueError(
                f"{self.services} services exceed source capacity "
                f"{source_slots} ({self.source_isa})"
            )
        if self.services > target_slots:
            raise ValueError(
                f"{self.services} services exceed target capacity "
                f"{target_slots} ({self.target_isa})"
            )


def node_name(idx: int) -> str:
    """The printable name of fleet node ``idx`` (fault schedules)."""
    return f"node-{idx}"


def parse_node_name(name: str) -> Optional[int]:
    """Inverse of :func:`node_name`; None for foreign names."""
    if name.startswith("node-"):
        try:
            return int(name[5:])
        except ValueError:
            return None
    return None
