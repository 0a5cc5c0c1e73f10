"""The cluster simulator: processor-sharing DES with migration and
fault injection.

Between events every machine runs its resident jobs under processor
sharing (oversubscription stretches everyone equally); events are job
arrivals, completions, policy-driven migrations — and, when a
:class:`~repro.faults.models.FaultSchedule` is attached, node crashes,
repairs, interconnect degradation windows and network partitions.
Recovery from a crash is delegated to a
:class:`~repro.faults.recovery.RecoveryPolicy` (evacuate via live
migration, checkpoint/restart, or fail-stop).  With no schedule the
fault machinery is inert and every number is bit-identical to the
fault-free simulator.

Energy integrates each machine's *internal* (on-package) power between
events, as the paper reports ("we only report internal power
readings"), with the McPAT FinFET projection optionally applied to the
ARM board.  A crashed node draws no power until repaired.

Since the DES unification the simulator runs on the shared
:mod:`repro.sim` substrate — a :class:`~repro.sim.clock.Clock` plus a
:class:`~repro.sim.events.EventQueue` — the same primitives the kernel
testbed charges time to.  Sampled nodes can nest a real
:class:`~repro.kernel.kernel.PopcornSystem` (see
:mod:`repro.datacenter.nested`): they measure job durations by
actually executing the workload's binary on a one-machine
replicated-kernel testbed, on its own clock, while the remaining nodes
run on the analytic cost summaries.
"""

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, TYPE_CHECKING

from repro import validate
from repro.datacenter.energy import ClusterResult
from repro.datacenter.job import (
    DEFAULT_INTERCONNECT_BW, Job, JobSpec, JobState, job_duration,
    migration_penalty,
)
from repro.datacenter.policies import SchedulingPolicy
from repro.faults.detector import SUSPECT, UNSUSPECT
from repro.faults.membership import DEAD, REJOIN, Membership
from repro.linker.layout import PAGE_SIZE
from repro.machine.machine import Machine
from repro.machine.mcpat import arm_finfet_power
from repro.sim.events import Simulator
from repro.sim.numeric import ordered_mean, ordered_sum
from repro.telemetry.faultlog import FaultLog
from repro.telemetry.metrics import percentiles

if TYPE_CHECKING:  # pragma: no cover
    from repro.datacenter.nested import NestedNodeSampler
    from repro.faults.detector import FailureDetector
    from repro.faults.models import FaultSchedule
    from repro.faults.recovery import RecoveryPolicy


@dataclass
class Handoff:
    """One in-flight two-phase job hand-off (cluster-level PREPARE
    happened at ``prepared_at``; COMMIT is earliest at ``due_at``)."""

    job: Job
    src: str
    dst: str
    kind: str  # "evacuate" | "rebalance"
    prepared_at: float
    due_at: float
    penalty: float


class MachineNode:
    """One machine's scheduling state."""

    def __init__(self, machine: Machine, project_arm_finfet: bool = True):
        self.machine = machine
        self.power = arm_finfet_power(machine) if project_arm_finfet else machine.power
        self.jobs: List[Job] = []
        self.energy_joules = 0.0

    @property
    def name(self) -> str:
        return self.machine.name

    @property
    def isa_name(self) -> str:
        return self.machine.isa.name

    @property
    def threads_in_use(self) -> int:
        return ordered_sum(j.threads for j in self.jobs)

    @property
    def busy_cores(self) -> float:
        return float(min(self.threads_in_use, self.machine.cpu.cores))

    @property
    def contention(self) -> float:
        cores = self.machine.cpu.cores
        return max(1.0, self.threads_in_use / cores)

    def cpu_power_now(self) -> float:
        return self.power.cpu_power(self.busy_cores)

    def accrue_energy(self, dt: float) -> None:
        self.energy_joules += self.cpu_power_now() * dt


class ClusterSimulator:
    """Runs one job set under one policy on a set of machines."""

    def __init__(
        self,
        machines: List[Machine],
        policy: SchedulingPolicy,
        interconnect_bw: float = DEFAULT_INTERCONNECT_BW,
        project_arm_finfet: bool = True,
        faults: Optional["FaultSchedule"] = None,
        recovery: Optional["RecoveryPolicy"] = None,
        detector: Optional["FailureDetector"] = None,
        tracer=None,
        nested: Optional["NestedNodeSampler"] = None,
        nested_nodes: Tuple[str, ...] = (),
    ):
        if not machines:
            raise ValueError("cluster needs at least one machine")
        if tracer is None:
            from repro.telemetry.spans import maybe_tracer

            tracer = maybe_tracer()
        # Opt-in span tracer; the cluster itself is the "clock" (its
        # ``now`` attribute is the simulated time).
        self.tracer = tracer
        if tracer is not None:
            tracer.bind_clock(self)
        self.nodes = [MachineNode(m, project_arm_finfet) for m in machines]
        # Name -> node index: placement and migration lookups are O(1)
        # instead of a linear scan per migration.
        self._node_index: Dict[str, MachineNode] = {
            n.name: n for n in self.nodes
        }
        if len(self._node_index) != len(self.nodes):
            raise ValueError("machine names must be unique")
        # Live-node list, rebuilt only on up/down transitions so the
        # per-event admission/rebalance path allocates nothing.
        self._live_cache: Optional[List[MachineNode]] = None
        self.policy = policy
        self.interconnect_bw = interconnect_bw
        # The unified DES substrate: simulated time lives in a
        # repro.sim Clock and fault/protocol events in its EventQueue,
        # the primitives nested kernel testbeds tick on too.  ``now``
        # is a read-only view of the clock.
        self._sim = Simulator()
        self.migrations = 0
        #: Migration penalties plus committed hand-off in-flight time,
        #: summed in event order.
        self.migration_stall_seconds = 0.0
        self._durations: Dict[Tuple[JobSpec, str], float] = {}
        self.finished: List[Job] = []
        # Nested-node sampling: jobs landing on these nodes take their
        # duration from a real PopcornSystem execution instead of the
        # analytic summary (repro.datacenter.nested).
        self.nested = nested
        self._nested_nodes = frozenset(nested_nodes)
        if self._nested_nodes and self.nested is None:
            from repro.datacenter.nested import NestedNodeSampler

            self.nested = NestedNodeSampler()
        unknown = self._nested_nodes - set(self._node_index)
        if unknown:
            raise ValueError(f"nested_nodes name unknown nodes {sorted(unknown)}")

        # ---- fault machinery (inert when no schedule is attached) ----
        if recovery is None:
            from repro.faults.recovery import EvacuateLive, FailStop

            recovery = EvacuateLive() if faults is not None else FailStop()
        self.recovery = recovery
        self.recovery.reset()
        self.fault_log = FaultLog()
        if faults is not None:
            faults.check_nodes(self._node_index)
            for event in faults:
                self._push_event(event.time, event.kind, event)
        self.parked: List[Tuple[Job, Optional[str]]] = []
        self.fault_events = 0
        self.jobs_evacuated = 0
        self.jobs_restarted = 0
        self.jobs_lost = 0
        self.lost_work_seconds = 0.0
        self.overhead_seconds = 0.0
        self.busy_seconds = 0.0

        # ---- failure detection & two-phase hand-off (inert when off) ----
        # With a detector, crashes are *detected* (heartbeats + lease)
        # instead of known omnisciently: a crashed node's jobs sit in
        # _undetected until the detector confirms the death, and
        # evacuations run as two-phase hand-offs.  Liveness, fences and
        # reachability live in the shared membership view.
        self.detector = detector
        self.membership = Membership([n.name for n in self.nodes], detector)
        #: node name -> up (alive and unfenced): the membership's map.
        self._up = self.membership.up
        self._undetected: Dict[str, List[Job]] = {}
        self._in_flight: List[Handoff] = []
        self.handoffs = 0
        self.handoffs_aborted = 0
        self.handoff_seconds = 0.0
        self.lost_page_count = 0
        if self.detector is not None:
            self._push_event(self.detector.period, "hb", None)
            if tracer is not None:
                self.detector.tracer = tracer
        # Opt-in conservation audit (REPRO_VALIDATE): None when off.
        self._checker = validate.make_cluster_checker()

    # --------------------------------------------------------- plumbing

    @property
    def now(self) -> float:
        """Current simulated time (the ``sim`` clock's view)."""
        return self._sim.now

    def duration_on(self, spec: JobSpec, node: MachineNode) -> float:
        """Seconds ``spec`` runs alone on ``node`` (memoized)."""
        key = (spec, node.name)
        if key not in self._durations:
            if node.name in self._nested_nodes:
                self._durations[key] = self.nested.duration(
                    spec, node.machine.isa.name
                )
            else:
                self._durations[key] = job_duration(spec, node.machine)
        return self._durations[key]

    def _node_of(self, job: Job) -> MachineNode:
        node = self._node_index.get(job.machine)
        if node is None:
            raise KeyError(f"job {job} has no node")
        return node

    def live_nodes(self) -> List[MachineNode]:
        """The up nodes, in declaration order (cached between
        up/down transitions; callers must not mutate the list)."""
        if self._live_cache is None:
            self._live_cache = [n for n in self.nodes if self._up[n.name]]
        return self._live_cache

    def _node_up_changed(self) -> None:
        """Invalidate the live-node cache (a node came up / went down)."""
        self._live_cache = None

    def reachable(self, a: str, b: str) -> bool:
        """Can kernels on ``a`` and ``b`` exchange messages right now?"""
        return self.membership.reachable(a, b)

    def effective_bandwidth(self) -> float:
        return self.membership.bandwidth(self.interconnect_bw)

    def start_job(self, job: Job, node: MachineNode) -> None:
        """Run ``job`` on ``node`` from now."""
        job.state = JobState.RUNNING
        job.machine = node.name
        job.started_at = self.now
        node.jobs.append(job)
        if self.tracer is not None:
            self.tracer.instant(
                "sched.place", "sched", ts=self.now, track=node.name,
                job=str(job.spec),
            )
            self.tracer.metrics.counter("sched.placements").inc()

    def _admit(self, job: Job) -> None:
        """Place an arriving job, parking it if no node is up."""
        live = self.live_nodes()
        if not live:
            self.park(job, None, reason="no node up at arrival")
            return
        self.start_job(job, self.policy.place(job, live))

    def _finish_time_of(self, job: Job, node: MachineNode) -> float:
        rate_seconds = self.duration_on(job.spec, node) * node.contention
        return job.remaining_fraction * rate_seconds

    def _advance(self, dt: float) -> None:
        """Progress all jobs and accrue energy for ``dt`` seconds."""
        if dt <= 0:
            return
        for node in self.nodes:
            if not self._up[node.name]:
                continue  # powered off: no energy, no progress
            node.accrue_energy(dt)
            denom_base = node.contention
            for job in node.jobs:
                demand = self.duration_on(job.spec, node) * denom_base
                job.remaining_fraction -= dt / demand
            self.busy_seconds += dt * len(node.jobs)
        self._sim.clock.advance_by(dt)

    def _collect_finished(self) -> List[Job]:
        done: List[Job] = []
        for node in self.nodes:
            still: List[Job] = []
            for job in node.jobs:
                if job.remaining_fraction <= 1e-9:
                    job.remaining_fraction = 0.0
                    job.state = JobState.DONE
                    job.finished_at = self.now
                    done.append(job)
                    self.finished.append(job)
                else:
                    still.append(job)
            node.jobs = still
        return done

    def _apply_policy_migrations(self) -> None:
        if not self.policy.dynamic:
            return
        for job, dst in self.policy.rebalance(self.live_nodes()):
            src = self._node_of(job)
            if src is dst:
                continue
            if not self.reachable(src.name, dst.name):
                self.fault_log.record(
                    self.now, "blocked", node=dst.name,
                    detail=f"partition blocks {job.spec} "
                    f"{src.name}->{dst.name}",
                )
                continue
            src.jobs.remove(job)
            penalty = self.migrate(job, dst)
            if self.tracer is not None:
                self.tracer.complete(
                    "sched.rebalance", "sched", self.now, penalty,
                    track=dst.name, job=str(job.spec), src=src.name,
                    dst=dst.name,
                )
                self.tracer.metrics.counter("sched.rebalances").inc()
                self.tracer.metrics.histogram(
                    "sched.rebalance_s"
                ).observe(penalty)

    def migrate(self, job: Job, dst: MachineNode) -> float:
        """Move ``job`` onto ``dst`` in one step (no hand-off): price
        the move at the effective bandwidth, charge the penalty as extra
        work, rebind the job and count it.  Returns the penalty."""
        penalty = migration_penalty(job.spec, self.effective_bandwidth())
        self.charge(job, dst, penalty)
        self.migration_stall_seconds += penalty
        job.machine = dst.name
        dst.jobs.append(job)
        job.migrations += 1
        self.migrations += 1
        return penalty

    def charge(self, job: Job, node: MachineNode, seconds: float) -> None:
        """Owe ``seconds`` of overhead as extra work for ``job`` on
        ``node`` (capped at a full rerun)."""
        extra = seconds / self.duration_on(job.spec, node)
        job.remaining_fraction = min(job.remaining_fraction + extra, 1.0)
        self.overhead_seconds += seconds

    def _next_completion_dt(self) -> Optional[float]:
        best: Optional[float] = None
        for node in self.nodes:
            for job in node.jobs:
                t = self._finish_time_of(job, node)
                if best is None or t < best:
                    best = t
        return best

    # ------------------------------------------------- fault machinery

    def _push_event(self, time: float, kind: str, payload: object) -> None:
        # Events land on the shared sim.events queue; ordering is
        # (time, push-sequence), exactly the pre-unification heap's
        # tie-break, so runs stay bit-identical.  The kind travels in
        # the event name and the dispatch closure carries the payload.
        self._sim.queue.push(
            time,
            lambda kind=kind, payload=payload: self._dispatch_fault(
                kind, payload
            ),
            name=kind,
        )

    def _next_fault_dt(self) -> Optional[float]:
        queue = self._sim.queue
        while True:
            head = queue.peek()
            if head is None:
                return None
            if head.name == "hb" and not self._heartbeats_matter():
                # Nothing left that a heartbeat round could detect or
                # unblock: let the recurring chain die so quiescent
                # runs terminate instead of ticking forever.
                queue.pop()
                continue
            return max(head.time - self.now, 0.0)

    def _heartbeats_matter(self) -> bool:
        if self._undetected or self._in_flight or self.membership.settling():
            return True
        # Any scheduled non-heartbeat event can still create suspicions.
        return any(e.name != "hb" for e in self._sim.queue.live())

    def _apply_due_faults(self) -> bool:
        """Dispatch every fault event due at (or before) ``now``."""
        applied = False
        while True:
            event = self._sim.queue.pop_due(self.now + 1e-9)
            if event is None:
                break
            event.action()
            applied = True
        if applied and self._in_flight:
            self._pump_handoffs()
        if applied and self.parked:
            self.recovery.try_unpark(self)
        return applied

    def _dispatch_fault(self, kind: str, event: object) -> None:
        if kind == "hb":
            # Heartbeat rounds are protocol traffic, not faults: they
            # are excluded from the fault_events count.
            self._run_detector()
            self._push_event(self.now + self.detector.period, "hb", None)
            return
        if kind == "handoff":
            self._pump_handoffs()
            return
        self.fault_events += 1
        if self.tracer is not None:
            node = getattr(event, "node", None)
            if node is None and isinstance(event, str):
                node = event
            self.tracer.instant(
                f"fault.{kind}", "fault", ts=self.now,
                track=node if node is not None else "cluster",
            )
            self.tracer.metrics.counter("fault.events").inc()
        if kind == "crash":
            self._apply_crash(event)
        elif kind == "repair":
            name = event if isinstance(event, str) else event.node
            self._apply_repair(name)
        elif kind == "degrade":
            self.membership.degradations.append(event)
            self._push_event(self.now + event.duration, "degrade-end", event)
            self.fault_log.record(
                self.now, "degrade",
                detail=f"bw x{event.bandwidth_factor:g}, "
                f"lat x{event.latency_factor:g} for {event.duration:g}s",
            )
        elif kind == "degrade-end":
            self.membership.degradations.remove(event)
            self.fault_log.record(self.now, "degrade-end")
            self._attempt_rejoins()
        elif kind == "partition":
            island = tuple(event.island)
            self.membership.islands.append(island)
            self._push_event(self.now + event.duration, "heal", island)
            self.fault_log.record(
                self.now, "partition", detail=f"island {island}"
            )
        elif kind == "heal":
            self.membership.islands.remove(event)
            self.fault_log.record(self.now, "heal", detail=f"island {event}")
            self._attempt_rejoins()
        else:
            raise ValueError(f"unknown fault event kind {kind!r}")

    def _apply_crash(self, event) -> None:
        node = self._node_index[event.node]
        fenced = not self._up[node.name]
        if not self.membership.crash(node.name, self.now):
            self.fault_log.record(
                self.now, "crash", node=node.name, detail="already down"
            )
            return
        if fenced:
            # An ostracised-but-live node really died.  Its jobs were
            # already reclaimed at fencing time; the death keeps it
            # from rejoining out of the fence.
            detail = "crashed while fenced"
        elif event.permanent:
            detail = "permanent"
        else:
            detail = f"repair in {event.repair_seconds:g}s"
        self.fault_log.record(self.now, "crash", node=node.name, detail=detail)
        if not event.permanent:
            self._push_event(
                self.now + event.repair_seconds, "repair", node.name
            )
        if fenced:
            return
        self._node_up_changed()
        victims = node.jobs
        node.jobs = []
        if victims:
            if self.detector is not None:
                # Nobody knows yet: the jobs are in limbo until the
                # detector confirms the death (that latency is the MTTD).
                self._undetected[node.name] = victims
            else:
                self.recovery.on_crash(self, node, victims)

    def _apply_repair(self, name: str) -> None:
        node = self._node_index[name]
        if not self.membership.repair(name, self.now):
            return
        self._node_up_changed()
        self.fault_log.record(self.now, "repair", node=name)
        victims = self._undetected.pop(name, None)
        if victims:
            # Repaired before the detector ever confirmed the crash —
            # the node is back but its memory is gone, so the victims
            # enter recovery only now.
            self.recovery.on_crash(self, node, victims)

    # --------------------------------------- failure detection rounds

    def _run_detector(self) -> None:
        for event, name in self.membership.heartbeat(self.now):
            if event == REJOIN:
                self._rejoin(name)
            elif event == SUSPECT:
                detail = "unheard"
                if self.membership.alive(name):
                    detail = "false suspicion (node is alive)"
                self.fault_log.record(
                    self.now, "suspect", node=name, detail=detail
                )
            elif event == UNSUSPECT:
                self.fault_log.record(self.now, "unsuspect", node=name)
            else:
                self._confirm_dead(name, event)

    def _confirm_dead(self, name: str, verdict: str) -> None:
        """The lease expired: the cluster now acts on the death verdict
        the membership view already recorded (DEAD or FENCE)."""
        node = self._node_index[name]
        if verdict == DEAD:
            # A real crash, finally detected.
            mttd = self.now - self.membership.crashed_at(name)
            self.fault_log.record(
                self.now, "confirm", node=name,
                detail=f"dead, detected after {mttd:.2f}s",
            )
            victims = self._undetected.pop(name, [])
        else:
            # False confirm: a live node's lease expired.  Fencing makes
            # the verdict safe — the node stops acting until it rejoins —
            # at the price of treating its jobs as crashed.
            self._node_up_changed()
            victims = node.jobs
            node.jobs = []
            if self.tracer is not None:
                self.tracer.instant(
                    "fault.fence", "fault", ts=self.now, track=name
                )
                self.tracer.metrics.counter("fault.fences").inc()
            self.fault_log.record(
                self.now, "fence", node=name,
                detail="lease expired on a live node (false confirm)",
            )
        if victims:
            self.recovery.on_crash(self, node, victims)
        if self._in_flight:
            self._pump_handoffs()

    def _attempt_rejoins(self) -> None:
        for name in self.membership.rejoins(self.now):
            self._rejoin(name)

    def _rejoin(self, name: str) -> None:
        """A falsely fenced node was heard again and is unfenced."""
        self._node_up_changed()
        if self.tracer is not None:
            self.tracer.instant(
                "fault.rejoin", "fault", ts=self.now, track=name
            )
            self.tracer.metrics.counter("fault.rejoins").inc()
        self.fault_log.record(
            self.now, "rejoin", node=name, detail="fenced node heard again"
        )
        if self.parked:
            self.recovery.try_unpark(self)

    # ------------------------------------------- two-phase job hand-off

    def placement_nodes(self) -> List[MachineNode]:
        """Nodes jobs may be placed on: live, and (with a detector) not
        currently suspected — placing work on a node the detector is
        about to fence would hand it straight to the next confirm — nor
        confirmed in a round whose verdicts are still being handled."""
        detector = self.detector
        if detector is None:
            return self.live_nodes()
        return [
            n for n in self.live_nodes()
            if not detector.is_suspected(n.name)
            and not detector.is_fenced(n.name)
        ]

    def begin_handoff(
        self, job: Job, src_name: str, dst: MachineNode, kind: str = "evacuate"
    ) -> Handoff:
        """PREPARE a job hand-off; COMMIT happens when the transfer is
        due and the destination is still alive, else it aborts."""
        penalty = migration_penalty(job.spec, self.effective_bandwidth())
        job.state = JobState.PENDING
        job.machine = None
        handoff = Handoff(
            job=job,
            src=src_name,
            dst=dst.name,
            kind=kind,
            prepared_at=self.now,
            due_at=self.now + penalty,
            penalty=penalty,
        )
        self._in_flight.append(handoff)
        self._push_event(handoff.due_at, "handoff", handoff)
        self.handoffs += 1
        self.fault_log.record(
            self.now, "handoff-begin", node=dst.name,
            detail=f"{job.spec} {src_name}->{dst.name} ({kind}, "
            f"{penalty * 1e3:.1f} ms in flight)",
        )
        return handoff

    def _pump_handoffs(self) -> None:
        remaining: List[Handoff] = []
        for handoff in self._in_flight:
            dst_node = self._node_index[handoff.dst]
            if not self._up[handoff.dst]:
                self._abort_handoff(handoff)
            elif self.now + 1e-9 >= handoff.due_at:
                if self.reachable(handoff.src, handoff.dst):
                    self._commit_handoff(handoff, dst_node)
                else:
                    remaining.append(handoff)  # stalled by a partition
            else:
                remaining.append(handoff)
        self._in_flight = remaining

    def _commit_handoff(self, handoff: Handoff, dst_node: MachineNode) -> None:
        job = handoff.job
        self.start_job(job, dst_node)
        job.migrations += 1
        self.migrations += 1
        in_flight = self.now - handoff.prepared_at
        self.handoff_seconds += in_flight
        self.migration_stall_seconds += in_flight
        if self.tracer is not None:
            self.tracer.complete(
                "sched.handoff", "sched", handoff.prepared_at, in_flight,
                track=handoff.dst, job=str(job.spec), src=handoff.src,
                dst=handoff.dst, kind=handoff.kind, committed=True,
            )
            self.tracer.metrics.counter("sched.handoffs").inc()
            self.tracer.metrics.histogram(
                "sched.handoff_s"
            ).observe(in_flight)
        if handoff.kind == "evacuate":
            job.evacuations += 1
            self.jobs_evacuated += 1
        self.fault_log.record(
            self.now, "handoff-commit", node=dst_node.name,
            detail=f"{job.spec} resumed after "
            f"{(self.now - handoff.prepared_at) * 1e3:.1f} ms in flight",
        )

    def _abort_handoff(self, handoff: Handoff) -> None:
        """Destination died in flight: exactly one copy rule says the
        source-side state is still the job — re-drain or park it."""
        job = handoff.job
        self.handoffs_aborted += 1
        if self.tracer is not None:
            self.tracer.complete(
                "sched.handoff", "sched", handoff.prepared_at,
                self.now - handoff.prepared_at, track=handoff.dst,
                job=str(job.spec), src=handoff.src, dst=handoff.dst,
                kind=handoff.kind, committed=False,
            )
            self.tracer.metrics.counter("sched.handoffs_aborted").inc()
        self.fault_log.record(
            self.now, "handoff-abort", node=handoff.dst,
            detail=f"{job.spec}: destination died in flight",
        )
        targets = [
            n for n in self.placement_nodes() if n.name != handoff.dst
        ]
        if not targets:
            self.park(job, None, reason="hand-off aborted, no live target")
            return
        dst = self.policy.place(job, targets)
        self.begin_handoff(job, handoff.src, dst, handoff.kind)

    def park(self, job: Job, required_isa: Optional[str], reason: str = "") -> None:
        """Queue a job until a node satisfying ``required_isa`` is up."""
        job.state = JobState.PENDING
        job.machine = None
        self.parked.append((job, required_isa))
        if self.tracer is not None:
            self.tracer.instant(
                "sched.park", "sched", ts=self.now, track="cluster",
                job=str(job.spec),
            )
            self.tracer.metrics.counter("sched.parked").inc()
        detail = f"{job.spec}"
        if required_isa:
            detail += f" needs {required_isa}"
        if reason:
            detail += f" ({reason})"
        self.fault_log.record(self.now, "park", detail=detail)

    def lose_job(self, job: Job) -> None:
        if job.state is JobState.RUNNING and job.started_at is not None:
            # Work invested in a job that will never finish is not
            # goodput.  (Parked jobs were already charged when their
            # progress was rolled back.)
            wasted = self.now - job.started_at
            if wasted > 0.0:
                job.lost_seconds += wasted
                self.lost_work_seconds += wasted
        if job.state is JobState.RUNNING:
            # Every dirty page of a fail-stopped job's working set had
            # its sole copy on the dead node: loudly lost, not silently
            # refetched (mirrors LostPageError at the kernel layer).
            params = job.spec.profile().params(job.spec.cls)
            self.lost_page_count += params.footprint_bytes // PAGE_SIZE
        job.state = JobState.FAILED
        job.machine = None
        self.jobs_lost += 1
        if self.tracer is not None:
            self.tracer.instant(
                "sched.lost", "sched", ts=self.now, track="cluster",
                job=str(job.spec),
            )
            self.tracer.metrics.counter("sched.jobs_lost").inc()
        self.fault_log.record(self.now, "lost", detail=f"{job.spec}")

    def _abandon_parked(self) -> int:
        """No event can ever free a parked job: count it lost."""
        lost = len(self.parked)
        for job, _ in self.parked:
            self.lose_job(job)
        self.parked = []
        return lost

    # ------------------------------------------------------ experiment

    def run_sustained(self, specs: List[JobSpec], concurrency: int) -> ClusterResult:
        """Closed system: keep ``concurrency`` jobs in flight (Fig. 12)."""
        queue = [Job(s, arrival=0.0) for s in specs]
        pending = list(queue)
        if self._checker is not None:
            self._checker.begin(len(queue))
        in_flight = 0
        for _ in range(min(concurrency, len(pending))):
            job = pending.pop(0)
            self._admit(job)
            in_flight += 1
        self._apply_policy_migrations()

        while in_flight > 0:
            candidates = []
            dt_done = self._next_completion_dt()
            if dt_done is not None:
                candidates.append(dt_done)
            dt_fault = self._next_fault_dt()
            if dt_fault is not None:
                candidates.append(dt_fault)
            if not candidates:
                in_flight -= self._abandon_parked()
                if in_flight > 0:
                    raise RuntimeError("jobs in flight but none progressing")
                # Nothing can ever run again: the jobs never admitted
                # are lost as the parked ones are.
                for job in pending:
                    self.lose_job(job)
                pending = []
                break
            dt = min(candidates)
            self._advance(dt)
            self.recovery.note_progress(self)
            done = self._collect_finished()
            in_flight -= len(done)
            lost_before = self.jobs_lost
            faulted = self._apply_due_faults()
            lost = self.jobs_lost - lost_before
            in_flight -= lost  # fail-stopped jobs leave the system too
            for _ in range(len(done) + lost):
                if pending:
                    job = pending.pop(0)
                    job.arrival = self.now
                    self._admit(job)
                    in_flight += 1
            if done or faulted:
                self._apply_policy_migrations()
            if self._checker is not None:
                self._checker.check(self, outstanding=len(pending))
        return self._result(len(queue), outstanding=len(pending))

    def run_periodic(self, arrivals: List[Tuple[float, JobSpec]]) -> ClusterResult:
        """Open system with timed arrivals (Fig. 13)."""
        schedule = sorted(
            (Job(spec, arrival=t) for t, spec in arrivals),
            key=lambda j: (j.arrival, j.job_id),
        )
        idx = 0
        total = len(schedule)
        if self._checker is not None:
            self._checker.begin(total)
        while (
            idx < total
            or any(n.jobs for n in self.nodes)
            or self.parked
            or self._in_flight
            or self._undetected
        ):
            next_arrival = schedule[idx].arrival if idx < total else None
            dt_done = self._next_completion_dt()
            candidates = []
            if next_arrival is not None:
                candidates.append(next_arrival - self.now)
            if dt_done is not None:
                candidates.append(dt_done)
            dt_fault = self._next_fault_dt()
            if dt_fault is not None:
                candidates.append(dt_fault)
            if not candidates:
                self._abandon_parked()
                break
            dt = max(min(candidates), 0.0)
            self._advance(dt)
            self.recovery.note_progress(self)
            changed = bool(self._collect_finished())
            if self._apply_due_faults():
                changed = True
            while idx < total and schedule[idx].arrival <= self.now + 1e-9:
                job = schedule[idx]
                idx += 1
                self._admit(job)
                changed = True
            if changed:
                self._apply_policy_migrations()
            if self._checker is not None:
                self._checker.check(self, outstanding=total - idx)
        return self._result(total, outstanding=total - idx)

    def _result(self, offered: int, outstanding: int = 0) -> ClusterResult:
        useful = max(
            self.busy_seconds - self.lost_work_seconds - self.overhead_seconds,
            0.0,
        )
        responses = [j.response_time() for j in self.finished]
        p50, p99, p999 = percentiles(responses)
        result = ClusterResult(
            makespan=self.now,
            energy_by_machine={n.name: n.energy_joules for n in self.nodes},
            requests=offered,
            requests_completed=len(self.finished),
            requests_shed=0,
            requests_failed=self.jobs_lost,
            migrations=self.migrations,
            migration_stall_seconds=self.migration_stall_seconds,
            p50_latency_s=p50,
            p99_latency_s=p99,
            p999_latency_s=p999,
            policy=self.policy.name,
            mean_response=ordered_mean(responses),
            fault_events=self.fault_events,
            jobs_evacuated=self.jobs_evacuated,
            jobs_restarted=self.jobs_restarted,
            lost_work_seconds=self.lost_work_seconds,
            overhead_seconds=self.overhead_seconds,
            busy_seconds=self.busy_seconds,
            mttr=self.membership.mttr,
            goodput=useful / self.now if self.now > 0 else 0.0,
            fault_trace=list(self.fault_log.entries),
            mttd=self.membership.mttd,
            false_suspicions=(
                self.detector.stats.false_suspicions
                if self.detector is not None
                else 0
            ),
            lost_pages=self.lost_page_count,
            handoffs=self.handoffs,
            handoffs_aborted=self.handoffs_aborted,
            handoff_seconds=self.handoff_seconds,
            metrics=(
                self.tracer.metrics.snapshot()
                if self.tracer is not None
                else {}
            ),
        )
        if self._checker is not None:
            self._checker.finish(self, outstanding, result)
        return result
