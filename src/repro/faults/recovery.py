"""Failure-recovery policies: what happens to a crashed node's jobs.

Two strategies reproduce the paper's head-to-head framing:

* :class:`EvacuateLive` — the paper's contribution applied to fleet
  maintenance: jobs drain off the dying node via heterogeneous-ISA live
  migration.  Progress is kept; each job pays the migration penalty
  (migration response + stack transformation + kernel hand-off + the
  post-migration hDSM working-set re-pull at the *current effective*
  interconnect bandwidth).
* :class:`CheckpointRestart` — the CRIU-style baseline
  (:mod:`repro.kernel.checkpoint`): periodic checkpoints at a fixed
  interval, work since the last checkpoint is lost, restore downtime
  ships the whole image up front — and the image is ISA-specific, so a
  restore on a different-ISA node is denied (a ``cross-isa-denied``
  fault-log entry) and the job is re-queued until a same-ISA node is
  available.  That is the paper's motivating limitation, made
  measurable.

:class:`FailStop` (no recovery, jobs die) is the pessimal baseline.
"""

from dataclasses import dataclass
from typing import Dict, List, TYPE_CHECKING

from repro.datacenter.job import Job, JobState
from repro.linker.layout import THREAD_CONTEXT_BYTES

if TYPE_CHECKING:  # pragma: no cover
    from repro.datacenter.cluster import ClusterSimulator, MachineNode

# Restore bring-up cost beyond the image transfer (process re-creation,
# page-table rebuild); mirrors PER_PAGE_OVERHEAD_S-style bookkeeping in
# the kernel-level checkpoint model.
RESTORE_FIXED_S = 0.05


class RecoveryPolicy:
    """Base policy: no recovery — a crash kills its resident jobs."""

    name = "fail-stop"

    def reset(self) -> None:
        """Drop per-run state (the simulator calls this on attach)."""

    def note_progress(self, sim: "ClusterSimulator") -> None:
        """Called after every event-loop advance (checkpoint hook)."""

    def on_crash(
        self, sim: "ClusterSimulator", node: "MachineNode", jobs: List[Job]
    ) -> None:
        for job in jobs:
            sim.lose_job(job)

    def try_unpark(self, sim: "ClusterSimulator") -> None:
        """Re-place parked jobs whose placement constraint can now be
        met (called after every fault-event batch, e.g. repairs)."""
        still = []
        for job, required_isa in sim.parked:
            targets = [
                n
                for n in sim.placement_nodes()
                if required_isa is None or n.isa_name == required_isa
            ]
            if not targets:
                still.append((job, required_isa))
                continue
            self.place_recovered(sim, job, targets)
        sim.parked = still

    def place_recovered(
        self, sim: "ClusterSimulator", job: Job, targets: List["MachineNode"]
    ) -> None:
        sim.start_job(job, sim.policy.place(job, targets))


class FailStop(RecoveryPolicy):
    """Explicit alias of the base behaviour, for comparisons."""

    name = "fail-stop"


class EvacuateLive(RecoveryPolicy):
    """Drain the dying node through heterogeneous-ISA live migration."""

    name = "evacuate-live"

    def on_crash(self, sim, node, jobs):
        for job in jobs:
            live = [
                n
                for n in sim.placement_nodes()
                if sim.reachable(node.name, n.name)
            ]
            if not live:
                sim.park(job, None, reason="no reachable node to evacuate to")
                continue
            dst = sim.policy.place(job, live)
            if sim.detector is not None:
                # Crash-consistent hand-off: PREPARE now, COMMIT only
                # once the transfer lands on a still-alive destination
                # (the simulator aborts and re-places on a mid-flight
                # destination death).
                sim.begin_handoff(job, node.name, dst)
                continue
            penalty = sim.migrate(job, dst)
            job.evacuations += 1
            sim.jobs_evacuated += 1
            sim.fault_log.record(
                sim.now,
                "evacuate",
                node=dst.name,
                detail=f"{job.spec} from {node.name} "
                f"(+{penalty * 1e3:.1f} ms penalty)",
            )


@dataclass
class _CheckpointRecord:
    remaining: float  # job.remaining_fraction at checkpoint time
    time: float
    isa: str  # the image is this ISA's machine state


class CheckpointRestart(RecoveryPolicy):
    """Periodic checkpoint / same-ISA restart (the C/R baseline)."""

    name = "checkpoint-restart"

    def __init__(self, interval_s: float = 60.0):
        if interval_s <= 0:
            raise ValueError("checkpoint interval must be positive")
        self.interval_s = interval_s
        self._checkpoints: Dict[int, _CheckpointRecord] = {}
        self._next_due: Dict[int, float] = {}

    def reset(self) -> None:
        self._checkpoints.clear()
        self._next_due.clear()

    # ------------------------------------------------- checkpointing

    def note_progress(self, sim) -> None:
        for node in sim.nodes:
            if not sim.membership.up[node.name]:
                continue
            for job in node.jobs:
                due = self._next_due.get(job.job_id)
                if due is None:
                    started = (
                        job.started_at if job.started_at is not None else sim.now
                    )
                    self._next_due[job.job_id] = started + self.interval_s
                    continue
                if sim.now + 1e-12 >= due:
                    self._checkpoints[job.job_id] = _CheckpointRecord(
                        job.remaining_fraction, sim.now, node.isa_name
                    )
                    self._next_due[job.job_id] = sim.now + self.interval_s

    # ------------------------------------------------------ recovery

    def on_crash(self, sim, node, jobs):
        for job in jobs:
            record = self._checkpoints.get(job.job_id)
            if record is not None:
                base_time = record.time
                image_isa = record.isa
                job.remaining_fraction = record.remaining
            else:
                # Crash before the first checkpoint: everything is lost.
                base_time = (
                    job.started_at if job.started_at is not None else sim.now
                )
                image_isa = node.isa_name
                job.remaining_fraction = 1.0
            lost = max(sim.now - base_time, 0.0)
            job.lost_seconds += lost
            sim.lost_work_seconds += lost
            job.state = JobState.PENDING
            job.machine = None
            self._restore(sim, job, image_isa)

    def _restore(self, sim, job: Job, image_isa: str) -> None:
        live = sim.placement_nodes()
        same_isa = [n for n in live if n.isa_name == image_isa]
        if same_isa:
            self.place_recovered(sim, job, same_isa)
            return
        if live:
            # The image cannot cross the ISA boundary — exactly the
            # limitation that motivates multi-ISA binaries.
            node = live[0]
            sim.fault_log.record(
                sim.now, "cross-isa-denied", node=node.name,
                detail=f"checkpoint of {job.spec} is {image_isa} machine "
                f"state; cannot restore on {node.name} ({node.isa_name}) — "
                f"register files, stack frames and code addresses do not "
                f"translate",
            )
            sim.park(job, image_isa, reason="awaiting same-ISA node")
            return
        sim.park(job, image_isa, reason="no node up")

    def place_recovered(self, sim, job, targets):
        dst = sim.policy.place(job, targets)
        downtime = self._restore_downtime(sim, job)
        sim.start_job(job, dst)
        sim.charge(job, dst, downtime)
        job.restarts += 1
        sim.jobs_restarted += 1
        self._next_due[job.job_id] = sim.now + self.interval_s
        sim.fault_log.record(
            sim.now,
            "restart",
            node=dst.name,
            detail=f"{job.spec} from checkpoint "
            f"(+{downtime * 1e3:.1f} ms downtime)",
        )

    def _restore_downtime(self, sim, job: Job) -> float:
        """The whole image crosses the wire up front, unlike the hDSM's
        on-demand pull (cf. checkpoint_transfer_seconds)."""
        image_bytes = (
            job.spec.profile().params(job.spec.cls).footprint_bytes
            + THREAD_CONTEXT_BYTES * job.spec.threads
        )
        return RESTORE_FIXED_S + image_bytes / sim.effective_bandwidth()


RECOVERY_POLICIES = {
    policy.name: policy
    for policy in (FailStop, EvacuateLive, CheckpointRestart)
}


def make_recovery(name: str, **kwargs) -> RecoveryPolicy:
    try:
        return RECOVERY_POLICIES[name](**kwargs)
    except KeyError:
        raise KeyError(
            f"unknown recovery policy {name!r}; have {sorted(RECOVERY_POLICIES)}"
        ) from None
