"""Conservation checkers for the cluster, fleet and serving simulators.

:class:`ClusterConservationChecker` asserts, after every simulation
step and at result time, that the
:class:`~repro.datacenter.cluster.ClusterSimulator` never creates or
loses work or energy out of thin air:

* job conservation — every submitted job is exactly one of finished,
  lost, parked, running, or not yet admitted;
* job-state consistency — running jobs sit on the node their record
  names, only on nodes that are up, with remaining work in [0, 1];
* energy/time monotonicity — per-node energy, busy seconds, lost work
  and overhead only ever grow, and simulated time never runs backwards;
* goodput decomposition — lost work and overhead never exceed the busy
  seconds they are carved out of (once any work has accrued).

:class:`FleetConservationChecker` audits the fleet simulator at every
sparse event, :func:`check_serving` audits a finished
:class:`~repro.serving.engine.ServingEngine` request by request, and
:func:`check_result_core` reads the
:class:`~repro.datacenter.energy.RunResult` fields all three share.
"""

import math
from typing import Dict, List, Optional

from repro.sim.numeric import ordered_sum
from repro.telemetry.validation import default_log
from repro.validate.errors import fail

_EPS = 1e-6

def check_result_core(result, checker: str) -> None:
    """Audit the :class:`~repro.datacenter.energy.RunResult` fields of
    any simulator's result, counted under ``checker``: every offered
    request ends in exactly one outcome, the latency percentiles are
    ordered, and the migration stall and energy are finite and >= 0."""
    default_log().note_check(checker)
    counts = {
        name: getattr(result, name)
        for name in ("requests", "requests_completed", "requests_shed",
                     "requests_failed")
    }
    requests, completed, shed, failed = counts.values()
    if min(counts.values()) < 0 or requests != completed + shed + failed:
        fail(
            checker, "result-requests-conserved",
            f"requests {requests} != completed {completed} + shed {shed} "
            f"+ failed {failed}, or a count is negative",
            counts,
        )
    p50, p99, p999 = (
        result.p50_latency_s, result.p99_latency_s, result.p999_latency_s
    )
    if not p50 <= p99 <= p999:
        fail(
            checker, "result-latency-order",
            f"p50 {p50!r} <= p99 {p99!r} <= p999 {p999!r} does not hold",
        )
    values = {f"energy[{name}]": joules
              for name, joules in result.energy_by_machine.items()}
    values["migration_stall_seconds"] = result.migration_stall_seconds
    bad = {name: v for name, v in values.items() if not 0.0 <= v < math.inf}
    if bad:
        fail(
            checker, "result-finite-non-negative",
            f"negative or non-finite result values: {sorted(bad)}", bad,
        )


class ClusterConservationChecker:
    """Lock-step bookkeeping audit of one ClusterSimulator run."""

    CHECKER = "cluster"

    def __init__(self):
        self.submitted: Optional[int] = None
        self._last_now = 0.0
        self._last_busy = 0.0
        self._last_lost_work = 0.0
        self._last_overhead = 0.0
        self._last_energy: Dict[str, float] = {}

    def begin(self, submitted: int) -> None:
        self.submitted = submitted

    # ---------------------------------------------------------- checks

    def _fail(self, sim, invariant: str, detail: str, extra=None) -> None:
        state = {
            "now": sim.now,
            "submitted": self.submitted,
            "finished": len(sim.finished),
            "lost": sim.jobs_lost,
            "parked": len(sim.parked),
            "running": {n.name: len(n.jobs) for n in sim.nodes},
            "busy_seconds": sim.busy_seconds,
            "lost_work_seconds": sim.lost_work_seconds,
            "overhead_seconds": sim.overhead_seconds,
            "energy": {n.name: n.energy_joules for n in sim.nodes},
        }
        if extra:
            state.update(extra)
        fail(self.CHECKER, invariant, detail, state)

    def check(self, sim, outstanding: int = 0) -> None:
        """Audit ``sim``; ``outstanding`` = submitted jobs not yet admitted."""
        default_log().note_check(self.CHECKER)
        self._check_jobs(sim, outstanding)
        self._check_monotonicity(sim)
        self._check_energy(sim)

    def finish(self, sim, outstanding: int, result) -> None:
        """The audit at result time: :meth:`check`, the goodput
        decomposition and the run's ``result`` core."""
        self.check(sim, outstanding)
        self._check_goodput(sim)
        check_result_core(result, self.CHECKER)

    def _check_jobs(self, sim, outstanding: int) -> None:
        running = ordered_sum(len(node.jobs) for node in sim.nodes)
        # Two-phase hand-offs hold jobs in flight, and a failure
        # detector keeps a crashed node's jobs in limbo until the death
        # is confirmed — both are legitimate "exactly one copy, nowhere
        # resident" states the conservation sum must include.
        in_flight = len(getattr(sim, "_in_flight", ()))
        undetected = ordered_sum(
            len(v) for v in getattr(sim, "_undetected", {}).values()
        )
        accounted = (
            len(sim.finished) + sim.jobs_lost + len(sim.parked)
            + running + outstanding + in_flight + undetected
        )
        if self.submitted is not None and accounted != self.submitted:
            self._fail(
                sim, "job-conservation",
                f"{self.submitted} jobs submitted but "
                f"{accounted} accounted for (finished + lost + parked + "
                f"running + in-flight + undetected + not-yet-admitted)",
                {
                    "outstanding": outstanding,
                    "in_flight": in_flight,
                    "undetected": undetected,
                },
            )
        for node in sim.nodes:
            if node.jobs and not sim.membership.up[node.name]:
                self._fail(
                    sim, "no-jobs-on-down-nodes",
                    f"crashed node {node.name} still holds "
                    f"{len(node.jobs)} jobs",
                )
            for job in node.jobs:
                if job.machine != node.name:
                    self._fail(
                        sim, "job-placement-consistent",
                        f"job {job.spec} sits on {node.name} but its "
                        f"record names {job.machine!r}",
                    )
                if not (-_EPS <= job.remaining_fraction <= 1.0 + _EPS):
                    self._fail(
                        sim, "remaining-fraction-bounded",
                        f"job {job.spec} on {node.name} has remaining "
                        f"fraction {job.remaining_fraction!r}",
                    )

    def _check_monotonicity(self, sim) -> None:
        if sim.now + _EPS < self._last_now:
            self._fail(
                sim, "time-monotone",
                f"simulated time went backwards: {self._last_now} -> "
                f"{sim.now}",
            )
        for name, value, last in (
            ("busy_seconds", sim.busy_seconds, self._last_busy),
            ("lost_work_seconds", sim.lost_work_seconds, self._last_lost_work),
            ("overhead_seconds", sim.overhead_seconds, self._last_overhead),
        ):
            if value + _EPS < last:
                self._fail(
                    sim, f"{name}-monotone",
                    f"{name} shrank: {last} -> {value}",
                )
        self._last_now = sim.now
        self._last_busy = sim.busy_seconds
        self._last_lost_work = sim.lost_work_seconds
        self._last_overhead = sim.overhead_seconds

    def _check_energy(self, sim) -> None:
        for node in sim.nodes:
            joules = node.energy_joules
            if not (joules >= 0.0) or joules != joules:  # NaN guard
                self._fail(
                    sim, "energy-non-negative",
                    f"node {node.name} accumulated {joules!r} J",
                )
            last = self._last_energy.get(node.name, 0.0)
            if joules + _EPS < last:
                self._fail(
                    sim, "energy-monotone",
                    f"node {node.name} energy shrank: {last} -> {joules}",
                )
            self._last_energy[node.name] = joules

    def _check_goodput(self, sim) -> None:
        if sim.busy_seconds <= 0.0:
            return
        carved = sim.lost_work_seconds + sim.overhead_seconds
        # Overhead is added to a migrated job's remaining work, so it is
        # only ever carved out of busy time already (or about to be)
        # accrued; at result time the decomposition must close.
        if carved > sim.busy_seconds * (1.0 + 1e-9) + _EPS:
            self._fail(
                sim, "goodput-decomposition",
                f"lost work + overhead ({carved}) exceeds total busy "
                f"seconds ({sim.busy_seconds})",
            )


class FleetConservationChecker:
    """Bookkeeping audit of one FleetSimulator run.

    Invoked at every sparse event (wave slot, crash, repair) and once
    at result time.  Per-job state lives in the simulator's flat lists,
    indexed by service id (per node for busy time): the routing tables
    ``_node_of``/``_isa_of``/``_duration``/``_busy_per_job`` and
    ``_free_at``, ``_jobs_done``, ``_jobs_in_slo``, ``_service_busy``
    and ``_node_busy``.  The simulator folds its per-job counters into
    ``_counters`` before each event fires, so every check sees a
    consistent cut.  It re-derives what must hold:

    * slot conservation — per ISA, live free-pool entries plus occupied
      slots on live nodes equal the live nodes' total capacity;
    * placement consistency — every service sits in the instance list
      of the node it is routed to, on a node of its recorded ISA, its
      jobs are priced at that ISA's duration and core grant, and
      services on dead nodes are exactly the stranded set;
    * counter conservation — completed/in-SLO/stall totals equal the
      sums over services, and per-node busy core-seconds equal the
      per-service busy seconds weighted by granted cores;
    * monotonicity — per-service ``free_at`` and the global counters
      never decrease between checks.
    """

    CHECKER = "fleet"

    def __init__(self):
        self._last_free_at: List[float] = []
        self._last_completed = 0

    def _fail(self, sim, invariant: str, detail: str) -> None:
        state = {
            "now": sim._sim.now,
            "services": len(sim.services),
            "nodes": len(sim.nodes),
            "counters": dict(sim._counters),
            "stranded": list(sim._stranded),
        }
        fail(self.CHECKER, invariant, detail, state)

    def check(self, sim, where: str) -> None:
        """Audit ``sim`` at event ``where``."""
        default_log().note_check(self.CHECKER)
        self._check_slots(sim, where)
        self._check_placement(sim, where)
        self._check_counters(sim, where)
        self._check_monotonicity(sim, where)

    def finish(self, sim, result) -> None:
        """The audit at result time: :meth:`check` and the run's
        ``result`` core."""
        self.check(sim, "end")
        check_result_core(result, self.CHECKER)

    def _check_slots(self, sim, where: str) -> None:
        spn = sim.config.slots_per_node
        up = sim.membership.up
        for isa in sim.config.nodes:
            live_free = sum(1 for idx in sim._free_slots[isa] if up[idx])
            occupied = 0
            capacity = 0
            for node in sim.nodes:
                if node.isa != isa or not up[node.idx]:
                    continue
                occupied += len(node.instances)
                capacity += spn
            if live_free + occupied != capacity:
                self._fail(
                    sim, "slot-conservation",
                    f"[{where}] {isa}: free {live_free} + occupied "
                    f"{occupied} != live capacity {capacity}",
                )

    def _check_placement(self, sim, where: str) -> None:
        stranded = set(sim._stranded)
        up = sim.membership.up
        for inst in sim.services:
            sid = inst.sid
            idx = sim._node_of[sid]
            node = sim.nodes[idx]
            isa = sim.isas[sim._isa_of[sid]]
            if sid not in node.instances:
                self._fail(
                    sim, "placement-consistency",
                    f"[{where}] service {sid} not in node {idx}'s "
                    f"instance list",
                )
            if node.isa != isa:
                self._fail(
                    sim, "placement-consistency",
                    f"[{where}] service {sid} records ISA {isa} "
                    f"but sits on a {node.isa} node",
                )
            duration = sim.templates[isa].duration(inst.spec)
            cores = min(inst.spec.threads, sim.templates[isa].cores)
            if (sim._duration[sid], sim._busy_per_job[sid]) != (
                duration, duration * cores
            ):
                self._fail(
                    sim, "placement-consistency",
                    f"[{where}] service {sid} prices jobs at "
                    f"{sim._duration[sid]} s x {sim._busy_per_job[sid]} "
                    f"core-s, not {isa}'s {duration} s x {cores} cores",
                )
            if not up[idx] and sid not in stranded:
                self._fail(
                    sim, "placement-consistency",
                    f"[{where}] service {sid} on dead node "
                    f"{idx} but not marked stranded",
                )

    def _check_counters(self, sim, where: str) -> None:
        c = sim._counters
        done = ordered_sum(sim._jobs_done)
        if done != c["completed"]:
            self._fail(
                sim, "counter-conservation",
                f"[{where}] sum(jobs_done) {done} != completed "
                f"{c['completed']}",
            )
        in_slo = ordered_sum(sim._jobs_in_slo)
        if in_slo != c["in_slo"]:
            self._fail(
                sim, "counter-conservation",
                f"[{where}] sum(jobs_in_slo) {in_slo} != in_slo "
                f"{c['in_slo']}",
            )
        if c["in_slo"] + c["violations"] != c["completed"]:
            self._fail(
                sim, "counter-conservation",
                f"[{where}] in_slo {c['in_slo']} + violations "
                f"{c['violations']} != completed {c['completed']}",
            )
        stall = ordered_sum(inst.stall_seconds for inst in sim.services)
        if abs(stall - sim._stall_seconds) > _EPS * max(1.0, stall):
            self._fail(
                sim, "counter-conservation",
                f"[{where}] sum(stall) {stall} != recorded "
                f"{sim._stall_seconds}",
            )
        by_service = ordered_sum(sim._service_busy)
        by_node = ordered_sum(sim._node_busy)
        if abs(by_service - by_node) > _EPS * max(1.0, by_node):
            self._fail(
                sim, "busy-conservation",
                f"[{where}] per-service busy core-seconds {by_service} "
                f"!= per-node total {by_node}",
            )

    def _check_monotonicity(self, sim, where: str) -> None:
        if sim._counters["completed"] < self._last_completed:
            self._fail(
                sim, "monotonicity",
                f"[{where}] completed went backwards: "
                f"{sim._counters['completed']} < {self._last_completed}",
            )
        self._last_completed = sim._counters["completed"]
        for sid, (last, free_at) in enumerate(
            zip(self._last_free_at, sim._free_at)
        ):
            if free_at < last - _EPS:
                self._fail(
                    sim, "monotonicity",
                    f"[{where}] service {sid} free_at went backwards: "
                    f"{free_at} < {last}",
                )
        self._last_free_at = list(sim._free_at)


def check_serving(engine, offered: int, result) -> None:
    """Audit a finished :class:`~repro.serving.engine.ServingEngine`:
    each of the ``offered`` requests sits in exactly one outcome bucket,
    every completed request's timeline is sane, and the run's
    ``result`` core holds."""
    default_log().note_check("serving")
    completed = {r.index for r in engine.completed}
    shed = {r.index for r in engine.shed}
    failed = {r.index for r in engine.failed}
    if (
        len(completed) != len(engine.completed)
        or len(shed) != len(engine.shed)
        or len(failed) != len(engine.failed)
    ):
        fail(
            "serving", "request-exactly-once",
            "a request appears twice in one outcome bucket",
            {"completed": len(engine.completed), "distinct": len(completed)},
        )
    overlap = (completed & shed) | (completed & failed) | (shed & failed)
    if overlap:
        fail(
            "serving", "request-exactly-once",
            f"requests in more than one outcome bucket: "
            f"{sorted(overlap)[:8]}",
            {"overlap": len(overlap)},
        )
    union = completed | shed | failed
    if len(union) != offered or (union and max(union) >= offered):
        missing = sorted(set(range(offered)) - union)[:8]
        fail(
            "serving", "requests-conserved",
            f"offered {offered}, completed {len(completed)} "
            f"+ shed {len(shed)} + failed {len(failed)} "
            f"= {len(union)} (missing e.g. {missing})",
            {"queue_depth": engine._queue_depth()},
        )
    for request in engine.completed:
        if not (
            request.arrival_s - 1e-9
            <= request.start_s
            <= request.finish_s + 1e-9
        ):
            fail(
                "serving", "request-timeline",
                f"request {request.index} timestamps out of order",
                {
                    "arrival": request.arrival_s,
                    "start": request.start_s,
                    "finish": request.finish_s,
                },
            )
        if request.migration_stall_s > request.queue_wait_s + 1e-9:
            fail(
                "serving", "stall-within-wait",
                f"request {request.index} stall exceeds its queue wait",
                {
                    "stall": request.migration_stall_s,
                    "wait": request.queue_wait_s,
                },
            )
    check_result_core(result, "serving")
