"""The warehouse-scale fleet simulator.

Runs a mixed-ISA fleet of thousands of nodes serving millions of jobs
while a wave policy migrates the service population from one ISA to the
other.  The simulator composes three existing layers:

* the unified DES (:mod:`repro.sim`) carries the *sparse* events —
  wave slots and fault-plane events — on one ``(time, seq)`` queue;
* job completions are *analytic*: each service is a single-server FIFO
  whose completion time is computed at arrival
  (``start = max(arrival, free_at)``), so a million jobs cost a million
  flat-list updates instead of a million heap events.  Everything a job
  reads changes only at a sparse event, so the arrivals between two
  events are drained in one loop over per-service routing tables that
  only a move rewrites;
* costs come from the node layer's models — durations from
  :func:`repro.datacenter.job.job_duration` (or nested PopcornSystem
  measurements via :class:`repro.datacenter.nested.NestedNodeSampler`),
  migration stalls from :func:`repro.datacenter.job.migration_penalty`,
  energy from the per-ISA power models.

Fault semantics are *evacuate-live*, matching the paper's value
proposition: a crash never discards completed work; the crashed node's
services fail over to free slots (same ISA first, then cross-ISA — the
heterogeneous-ISA failover the paper enables) and pay the migration
cost.  Crash/repair ground truth and the open ``LinkDegradation``
windows live in a :class:`~repro.faults.membership.Membership` view
keyed by node index (no detector: a crash is known at once); the
migration bandwidth is the product of the open windows' factors.
``NetworkPartition`` is rejected — the analytic queue model cannot
represent a service reachable from only part of the fleet.
"""

import hashlib
from bisect import bisect_right
from dataclasses import dataclass
from itertools import islice
from typing import Dict, List, Optional, Sequence, Tuple

from repro.datacenter.energy import RunResult
from repro.datacenter.job import (
    DEFAULT_INTERCONNECT_BW, JobSpec, migration_penalty,
)
from repro.faults.membership import Membership
from repro.faults.models import FaultSchedule
from repro.fleet.model import (
    FleetConfig,
    FleetNode,
    NodeTemplate,
    ServiceInstance,
    parse_node_name,
)
from repro.fleet.waves import WavePolicy, WaveReport, plan_counts
from repro.serving.traffic import ArrivalTrace
from repro.sim.events import Simulator
from repro.sim.rng import DeterministicRng
from repro.telemetry.metrics import quantile

#: Default service population mix: the serving-adjacent benchmarks.
DEFAULT_SERVICE_MIX: Tuple[JobSpec, ...] = (
    JobSpec("is", "A", 2),
    JobSpec("ep", "A", 2),
    JobSpec("cg", "A", 2),
    JobSpec("redis", "A", 2),
)


@dataclass
class FleetRunResult(RunResult):
    """Everything one fleet-migration-wave run produced.

    A request is a job; ``energy_by_machine`` is keyed by ISA pool and
    ``migrations`` counts wave moves and evacuations.  A job is shed
    when its service is stranded by a full fleet; the fleet never fails
    one (``requests_failed`` is 0).
    """

    seed: int
    nodes_by_isa: Dict[str, int]
    services: int
    horizon_s: float
    # ---- SLO ----
    slo_violations: int
    slo_attainment: float
    # ---- migration waves ----
    waves: List[WaveReport]
    services_migrated: int
    paused_waves: int
    deferred_migrations: int
    # ---- per-ISA rollups ----
    jobs_by_isa: Dict[str, int]
    busy_core_seconds_by_isa: Dict[str, float]
    capacity_slots_by_isa: Dict[str, int]
    # ---- fault plane ----
    crashes: int
    repairs: int
    evacuations: int
    failovers: int  # cross-ISA evacuations
    stranded_services: int  # left unplaced at end of run

    # The old names of three core fields, read-only, kept only for
    # bench/passes.py.
    @property
    def jobs_offered(self) -> int:
        """``requests`` under its old name."""
        return self.requests

    @property
    def jobs_completed(self) -> int:
        """``requests_completed`` under its old name."""
        return self.requests_completed

    @property
    def jobs_shed(self) -> int:
        """``requests_shed`` under its old name."""
        return self.requests_shed

    def checksum(self) -> str:
        """Content digest of the run (bit-identity and bench baselines).

        Formats every float with ``repr`` (shortest round-trip form),
        so two runs agree iff their results are bit-identical.
        """
        parts = [
            repr(self.seed),
            repr(sorted(self.nodes_by_isa.items())),
            repr(self.services),
            repr(self.makespan),
            repr(self.requests),
            repr(self.requests_completed),
            repr(self.requests_shed),
            repr(self.p50_latency_s),
            repr(self.p99_latency_s),
            repr(self.p999_latency_s),
            repr(self.slo_violations),
            repr(self.services_migrated),
            repr(self.migrations),
            repr(self.migration_stall_seconds),
            repr(self.paused_waves),
            repr(sorted(self.jobs_by_isa.items())),
            repr(sorted(self.energy_by_machine.items())),
            repr(self.crashes),
            repr(self.evacuations),
            repr(self.failovers),
        ]
        digest = hashlib.sha256("|".join(parts).encode())
        return digest.hexdigest()[:16]


class FleetSimulator:
    """Drives one fleet through arrivals, waves and faults."""

    def __init__(
        self,
        config: FleetConfig,
        policy: WavePolicy,
        rng: DeterministicRng,
        faults: Optional[FaultSchedule] = None,
        service_mix: Sequence[JobSpec] = DEFAULT_SERVICE_MIX,
        nested=None,
    ):
        config.validate()
        self.config = config
        self.policy = policy
        self.rng = rng
        self.faults = faults if faults is not None else FaultSchedule()

        self.templates: Dict[str, NodeTemplate] = {
            isa: NodeTemplate(isa) for isa in config.nodes
        }
        if nested is not None:
            # Replace analytic durations with nested-PopcornSystem
            # measurements for every (service spec, ISA) pair.
            for isa, template in self.templates.items():
                for spec in sorted(set(service_mix), key=str):
                    template.set_duration(spec, nested.duration(spec, isa))

        # Flat per-node structs, indexed globally; free capacity is a
        # per-ISA stack of node indices (one entry per free slot), so
        # placement, migration and failover are O(1) pool pops with no
        # per-event scan over the fleet.
        self.nodes: List[FleetNode] = []
        self._free_slots: Dict[str, List[int]] = {isa: [] for isa in config.nodes}
        for isa, count in config.nodes.items():
            for _ in range(count):
                idx = len(self.nodes)
                self.nodes.append(FleetNode(idx, isa))
        # Reversed so pops hand out low node indices first.
        for node in reversed(self.nodes):
            self._free_slots[node.isa].extend([node.idx] * config.slots_per_node)

        self._check_fault_names()
        self.membership = Membership(range(len(self.nodes)))
        #: node index -> alive: the membership's map, bound once for
        #: the per-job path.
        self._up = self.membership.up

        self.services: List[ServiceInstance] = [
            ServiceInstance(sid, service_mix[sid % len(service_mix)])
            for sid in range(config.services)
        ]
        # Per-service SLO target (slo_factor x source-ISA duration) and
        # per-ISA duration tables, indexed by sid.
        src = self.templates[config.source_isa]
        self._slo_by_sid = [
            config.slo_factor * src.duration(inst.spec) for inst in self.services
        ]
        self._durations_by_sid: Dict[str, List[float]] = {
            isa: [t.duration(inst.spec) for inst in self.services]
            for isa, t in self.templates.items()
        }

        # Routing tables, indexed by sid: where each service runs and
        # what one of its jobs costs there.  Only _route writes them,
        # at placement and at every move.
        self.isas: Tuple[str, ...] = tuple(self.templates)
        count = config.services
        self._node_of = [0] * count
        self._isa_of = [0] * count  # index into self.isas
        self._duration = [0.0] * count  # seconds per job on that ISA
        self._busy_per_job = [0.0] * count  # duration x granted cores
        for sid in range(count):
            idx = self._take_slot(config.source_isa)
            if idx is None:  # config.validate() makes this unreachable
                raise RuntimeError("source ISA out of slots during placement")
            self.nodes[idx].instances.append(sid)
            self._route(sid, idx, config.source_isa)

        # Per-job state, indexed by sid (per node for busy time): every
        # arrival updates these, so they are flat lists, not struct
        # fields.  The conservation checker reads them at each event.
        self._free_at = [0.0] * count  # when the service's backlog drains
        self._jobs_done = [0] * count
        self._jobs_in_slo = [0] * count
        self._service_busy = [0.0] * count  # busy core-seconds
        self._node_busy = [0.0] * len(self.nodes)

        # ---- run state ----
        self._sim = Simulator()
        self._migrate_cursor = 0  # next sid to migrate (sid order)
        self._migrated_count = 0
        self._ramp_step = 0
        self._baseline_attainment: Optional[float] = None
        self._window_offered = 0
        self._window_in_slo = 0
        self._stranded: List[int] = []  # sids awaiting a free slot
        self._latencies: List[float] = []
        self._makespan = 0.0
        self._counters = {
            "offered": 0,
            "completed": 0,
            "shed": 0,
            "violations": 0,
            "in_slo": 0,
            "migrations": 0,
            "crashes": 0,
            "repairs": 0,
            "evacuations": 0,
            "failovers": 0,
            "deferred": 0,
        }
        self._jobs_by_isa = [0] * len(self.isas)
        self._stall_seconds = 0.0
        self.waves: List[WaveReport] = []
        from repro import validate

        self._checker = validate.make_fleet_checker()

    # ------------------------------------------------------------ setup

    def _check_fault_names(self) -> None:
        total = len(self.nodes)
        for event in self.faults:
            if event.kind == "partition":
                raise ValueError(
                    "NetworkPartition is not supported by the fleet "
                    "simulator: analytic FIFO services have no notion of "
                    "partial reachability.  Use LinkDegradation (slower "
                    "migrations) or NodeCrash (lost capacity) instead."
                )
            if event.kind in ("crash", "repair"):
                idx = parse_node_name(event.node)
                if idx is None or not 0 <= idx < total:
                    raise ValueError(
                        f"fault names unknown fleet node {event.node!r}; "
                        f"fleet nodes are named node-0 .. node-{total - 1}"
                    )

    def _take_slot(self, isa: str) -> Optional[int]:
        """Pop a free slot's node index, skipping slots on dead nodes.

        The crash handler purges the dead node's pool entries eagerly
        (a repair re-adds the right count, so stale entries must not
        linger); the liveness check here is a safety net, not the
        primary mechanism.
        """
        pool = self._free_slots[isa]
        while pool:
            idx = pool.pop()
            if self._up[idx]:
                return idx
        return None

    def _route(self, sid: int, idx: int, isa: str) -> None:
        """Point service ``sid``'s routing-table entries at node ``idx``."""
        duration = self._durations_by_sid[isa][sid]
        cores = min(self.services[sid].spec.threads, self.templates[isa].cores)
        self._node_of[sid] = idx
        self._isa_of[sid] = self.isas.index(isa)
        self._duration[sid] = duration
        self._busy_per_job[sid] = duration * cores

    def _isa(self, sid: int) -> str:
        """The ISA service ``sid`` runs on."""
        return self.isas[self._isa_of[sid]]

    # ------------------------------------------------------------- jobs

    def _drain(self, arrivals, count: int) -> None:
        """Price the next ``count`` arrivals, then flush the totals.

        Each arrival goes to the service id that the ``fleet.assign``
        stream's ``randrange(services)`` would return, drawn inline the
        way it draws (k random bits, redrawn until below ``services``).
        A job reads only the routing tables and liveness, which change
        only at sparse events, so the counters live in locals and are
        folded into the simulator's fields once, before the next event
        fires: the wave gate and the conservation checker read them
        only there.  Every float sum accumulates in arrival order, so
        results stay bit-identical to pricing one job at a time.
        """
        draw = self.rng.stream("fleet.assign").getrandbits
        services = self.config.services
        bits = services.bit_length()
        up = self._up
        node_of = self._node_of
        isa_of = self._isa_of
        duration = self._duration
        busy_per_job = self._busy_per_job
        slo = self._slo_by_sid
        free_at = self._free_at
        jobs_done = self._jobs_done
        jobs_in_slo = self._jobs_in_slo
        service_busy = self._service_busy
        node_busy = self._node_busy
        jobs_by_isa = self._jobs_by_isa
        record = self._latencies.append
        makespan = self._makespan
        shed = in_slo = violations = 0
        for t in islice(arrivals, count):
            sid = draw(bits)
            while sid >= services:
                sid = draw(bits)
            idx = node_of[sid]
            if not up[idx]:
                # Stranded service (its node died with the fleet full).
                shed += 1
                continue
            start = free_at[sid]
            done = (start if start > t else t) + duration[sid]
            free_at[sid] = done
            jobs_done[sid] += 1
            busy = busy_per_job[sid]
            service_busy[sid] += busy
            node_busy[idx] += busy
            jobs_by_isa[isa_of[sid]] += 1
            latency = done - t
            record(latency)
            if latency <= slo[sid]:
                jobs_in_slo[sid] += 1
                in_slo += 1
            else:
                violations += 1
            if done > makespan:
                makespan = done
        c = self._counters
        c["offered"] += count
        c["completed"] += count - shed
        c["shed"] += shed
        c["in_slo"] += in_slo
        c["violations"] += violations
        self._window_offered += count
        self._window_in_slo += in_slo
        self._makespan = makespan

    # ------------------------------------------------------------ waves

    def _move_service(self, sid: int, t: float, target_isa: str) -> bool:
        """Move one service to a free slot on ``target_isa``.

        Pays the migration stall, returns the old slot to its pool
        (unless the old node is dead), keeps node membership lists
        consistent and re-routes the service's jobs.  False when the
        target ISA has no free slot.
        """
        inst = self.services[sid]
        idx = self._take_slot(target_isa)
        if idx is None:
            return False
        old = self.nodes[self._node_of[sid]]
        old.instances.remove(sid)
        if self._up[old.idx]:
            self._free_slots[old.isa].append(old.idx)
        cost = migration_penalty(
            inst.spec, self.membership.bandwidth(DEFAULT_INTERCONNECT_BW)
        )
        free_at = self._free_at[sid]
        self._free_at[sid] = (free_at if free_at > t else t) + cost
        inst.stall_seconds += cost
        inst.migrations += 1
        self.nodes[idx].instances.append(sid)
        self._route(sid, idx, target_isa)
        self._stall_seconds += cost
        self._counters["migrations"] += 1
        return True

    def _handle_wave(self, t: float) -> None:
        plan = plan_counts(self.policy.targets(), self.config.services)
        if self._ramp_step >= len(plan):
            return  # ramp finished; later slots are no-ops
        attainment = (
            self._window_in_slo / self._window_offered
            if self._window_offered
            else 1.0
        )
        if self._baseline_attainment is None:
            # The first slot closes the bake window: it defines the
            # pre-migration SLO baseline the regression gate compares
            # against.
            self._baseline_attainment = attainment
        gate = self._baseline_attainment - self.policy.regression_threshold
        paused = attainment < gate
        moved = 0
        deferred = 0
        stall_before = self._stall_seconds
        target_count = plan[self._ramp_step]
        if not paused:
            while self._migrated_count < target_count:
                if self._migrate_cursor >= len(self.services):
                    break
                sid = self._migrate_cursor
                if self._isa(sid) == self.config.target_isa:
                    # Already there (cross-ISA failover beat the wave).
                    self._migrate_cursor += 1
                    self._migrated_count += 1
                    continue
                if self._move_service(sid, t, self.config.target_isa):
                    self._migrate_cursor += 1
                    self._migrated_count += 1
                    moved += 1
                else:
                    deferred = target_count - self._migrated_count
                    self._counters["deferred"] += deferred
                    break
            if self._migrated_count >= target_count:
                # Slot done; paused or capacity-deferred slots retry the
                # same ramp step at the next slot.
                self._ramp_step += 1
        self.waves.append(
            WaveReport(
                index=len(self.waves) + 1,
                time=t,
                target_fraction=self.policy.targets()[
                    min(self._ramp_step, len(plan) - 1)
                ],
                migrated=moved,
                cumulative_migrated=self._migrated_count,
                paused=paused,
                attainment_before=attainment,
                baseline_attainment=self._baseline_attainment,
                stall_seconds=self._stall_seconds - stall_before,
                deferred=deferred,
            )
        )
        self._window_offered = 0
        self._window_in_slo = 0
        if self._checker is not None:
            self._checker.check(self, f"wave@{t:.0f}")

    # ----------------------------------------------------------- faults

    def _handle_crash(self, t: float, event) -> None:
        idx = parse_node_name(event.node)
        if not self.membership.crash(idx, t):
            return  # already dead: no-op, and no repair
        node = self.nodes[idx]
        self._counters["crashes"] += 1
        # Purge the dead node's free-slot entries now: the repair
        # handler re-derives the node's free count from its instance
        # list, so entries left behind here would double-count the
        # node's capacity after it comes back.
        pool = self._free_slots[node.isa]
        if idx in pool:
            self._free_slots[node.isa] = [i for i in pool if i != idx]
        # Evacuate-live: completed work is preserved; each resident
        # service fails over to a free slot — same ISA first, then the
        # other ISAs (heterogeneous-ISA failover) — paying the
        # migration cost.  With the fleet full it is stranded until a
        # repair frees capacity.
        for sid in list(node.instances):
            home = self._isa(sid)
            if self._move_service(sid, t, home):
                self._counters["evacuations"] += 1
                continue
            moved = False
            for isa in self.isas:
                if isa == home:
                    continue
                if self._move_service(sid, t, isa):
                    self._counters["evacuations"] += 1
                    self._counters["failovers"] += 1
                    moved = True
                    break
            if not moved:
                self._stranded.append(sid)
        if not getattr(event, "permanent", False):
            self._sim.queue.push(
                t + event.repair_seconds,
                lambda i=idx: self._handle_repair(i),
                name="repair",
            )
        if self._checker is not None:
            self._checker.check(self, f"crash@{t:.0f}")

    def _handle_repair(self, idx: int) -> None:
        t = self._sim.now
        crashed_at = self.membership.crashed_at(idx)
        if not self.membership.repair(idx, t):
            return
        node = self.nodes[idx]
        node.downtime_s += t - crashed_at
        self._counters["repairs"] += 1
        free = self.config.slots_per_node - len(node.instances)
        self._free_slots[node.isa].extend([idx] * free)
        # Re-place services stranded by a full fleet.  A stranded
        # service still sits in its dead node's instance list, so if
        # *this* repair is its own home node coming back it simply
        # resumes in place; otherwise it needs a free slot somewhere.
        still: List[int] = []
        for sid in self._stranded:
            if self._up[self._node_of[sid]]:
                continue
            if self._move_service(sid, t, self._isa(sid)):
                self._counters["evacuations"] += 1
            else:
                still.append(sid)
        self._stranded = still
        if self._checker is not None:
            self._checker.check(self, f"repair@{t:.0f}")

    def _handle_degrade_start(self, event) -> None:
        self.membership.degradations.append(event)
        self._sim.queue.push(
            self._sim.now + event.duration,
            lambda e=event: self.membership.degradations.remove(e),
            name="degrade-end",
        )

    # -------------------------------------------------------------- run

    def _schedule(self, horizon_s: float) -> None:
        for t in self.policy.wave_times(horizon_s):
            self._sim.queue.push(
                t, lambda when=t: self._handle_wave(when), name="wave"
            )
        for event in self.faults:
            if event.kind == "crash":
                self._sim.queue.push(
                    event.time,
                    lambda e=event: self._handle_crash(e.time, e),
                    name="crash",
                )
            elif event.kind == "repair":
                self._sim.queue.push(
                    event.time,
                    lambda e=event: self._handle_repair(
                        parse_node_name(e.node)
                    ),
                    name="repair",
                )
            elif event.kind == "degrade":
                self._sim.queue.push(
                    event.time,
                    lambda e=event: self._handle_degrade_start(e),
                    name="degrade",
                )

    def run(self, trace: ArrivalTrace) -> FleetRunResult:
        """Drive the trace's arrivals through waves and faults.

        Arrivals are drained from a cursor between sparse events: every
        arrival with ``time <= next event`` is priced analytically in
        one pass (:meth:`_drain`), then the event fires.  Same seed,
        same config ⇒ bit-identical result (the checksum test relies on
        this).
        """
        self._schedule(trace.horizon_s)
        times = trace.times  # sorted
        arrivals = iter(times)
        cursor = 0
        queue = self._sim.queue
        clock = self._sim.clock
        while True:
            head = queue.peek()
            stop = (
                len(times) if head is None
                else bisect_right(times, head.time, cursor)
            )
            self._drain(arrivals, stop - cursor)
            cursor = stop
            if head is None:
                break
            event = queue.pop()
            clock.advance_to(event.time)
            event.action()
        end = max(trace.horizon_s, self._makespan)
        if end > clock.now:
            clock.advance_to(end)
        result = self._finish(trace, end)
        if self._checker is not None:
            self._checker.finish(self, result)
        return result

    def _finish(self, trace: ArrivalTrace, end: float) -> FleetRunResult:
        c = self._counters
        energy_by_isa = {isa: 0.0 for isa in self.config.nodes}
        busy_by_isa = {isa: 0.0 for isa in self.config.nodes}
        for node in self.nodes:
            downtime = node.downtime_s
            crashed_at = self.membership.crashed_at(node.idx)
            if crashed_at is not None:
                downtime += end - crashed_at
            uptime = end - downtime
            busy = self._node_busy[node.idx]
            template = self.templates[node.isa]
            energy_by_isa[node.isa] += template.energy_joules(uptime, busy)
            busy_by_isa[node.isa] += busy
        # The run owns its latency list: sort it in place rather than
        # have percentiles() copy it (8 bytes a job at the peak).
        latencies = self._latencies
        latencies.sort()
        if latencies:
            p50, p99, p999 = (
                quantile(latencies, q) for q in (0.5, 0.99, 0.999)
            )
        else:
            p50 = p99 = p999 = 0.0
        offered = c["offered"]
        return FleetRunResult(
            makespan=self._makespan,
            energy_by_machine=energy_by_isa,
            requests=offered,
            requests_completed=c["completed"],
            requests_shed=c["shed"],
            requests_failed=0,
            migrations=c["migrations"],
            migration_stall_seconds=self._stall_seconds,
            p50_latency_s=p50,
            p99_latency_s=p99,
            p999_latency_s=p999,
            seed=self.rng.seed,
            nodes_by_isa=dict(self.config.nodes),
            services=self.config.services,
            horizon_s=trace.horizon_s,
            slo_violations=c["violations"],
            slo_attainment=c["in_slo"] / offered if offered else 0.0,
            waves=list(self.waves),
            services_migrated=self._migrated_count,
            paused_waves=sum(1 for w in self.waves if w.paused),
            deferred_migrations=c["deferred"],
            jobs_by_isa=dict(zip(self.isas, self._jobs_by_isa)),
            busy_core_seconds_by_isa=busy_by_isa,
            capacity_slots_by_isa={
                isa: count * self.config.slots_per_node
                for isa, count in self.config.nodes.items()
            },
            crashes=c["crashes"],
            repairs=c["repairs"],
            evacuations=c["evacuations"],
            failovers=c["failovers"],
            stranded_services=len(self._stranded),
        )
