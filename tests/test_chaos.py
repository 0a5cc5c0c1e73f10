"""Crash-consistent migration & hDSM recovery.

Covers the failure detector (MTTD, false suspicions, fencing), the
two-phase migration hand-off (abort / resume-token promotion), the
directory scrub (reown, refetchable, lost, backup-home recovery), the
deterministic chaos harness, and the cluster-level split-brain cases.
"""

import pytest

from repro import validate
from repro.compiler import Toolchain
from repro.datacenter import ClusterSimulator, Job, JobSpec, make_policy, sustained_backfill
from repro.faults import (
    ChaosHarness,
    ChaosScenario,
    DetectorConfig,
    EvacuateLive,
    FailureDetector,
    FaultSchedule,
    FaultyMessagingLayer,
    NetworkPartition,
    NodeCrash,
    RetryPolicy,
)
from repro.faults.chaos import COMPLETED, FAILED_LOUD
from repro.kernel import boot_testbed
from repro.kernel.dsm import DsmService, LostPageError
from repro.kernel.kernel import KernelCrashed
from repro.kernel.messages import KernelFencedError, MessagingLayer
from repro.linker.layout import PAGE_SIZE
from repro.machine import make_xeon_e5_1650v2, make_xgene1
from repro.machine.interconnect import make_dolphin_pxh810
from repro.runtime.address_space import AddressSpace
from repro.runtime.execution import EngineHooks, ExecutionEngine
from repro.sim.rng import DeterministicRng
from repro.validate.errors import InvariantViolation

from tests.helpers import ARM, X86, call_chain_module, tls_module

A, B, C = "kernel-a", "kernel-b", "kernel-c"


# --------------------------------------------------------------- detector


class TestFailureDetector:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            DetectorConfig(heartbeat_period_s=0.0)
        with pytest.raises(ValueError):
            DetectorConfig(lease_s=-1.0)
        cfg = DetectorConfig(heartbeat_period_s=0.5, lease_s=1.5)
        assert cfg.suspect_after_s == pytest.approx(1.5)
        assert cfg.nominal_mttd_s == pytest.approx(3.0)

    def _tick(self, det, now, heard, alive):
        return det.observe(now, heard, alive)

    def test_suspect_then_confirm_dead(self):
        det = FailureDetector(DetectorConfig())
        det.reset([A, B], now=0.0)
        dead = {A: True, B: False}
        heard = {A: True, B: False}
        events = []
        t = 0.0
        for _ in range(10):
            t += 0.5
            events += [(t, e, n) for e, n in det.observe(t, heard, dead)]
        kinds = [(e, n) for _, e, n in events]
        assert ("suspect", B) in kinds and ("confirm", B) in kinds
        suspect_at = next(t for t, e, n in events if e == "suspect")
        confirm_at = next(t for t, e, n in events if e == "confirm")
        assert suspect_at == pytest.approx(1.5)  # 3 missed periods
        assert confirm_at == pytest.approx(3.0)  # + lease
        assert det.is_fenced(B) and not det.is_suspected(B)
        assert det.stats.false_suspicions == 0
        assert det.stats.false_confirms == 0

    def test_heard_again_unsuspects(self):
        det = FailureDetector(DetectorConfig())
        det.reset([A, B], now=0.0)
        alive = {A: True, B: True}
        for t in (0.5, 1.0, 1.5):
            events = det.observe(t, {A: True, B: False}, alive)
        assert ("suspect", B) in events
        assert det.stats.false_suspicions == 1  # B is actually alive
        events = det.observe(2.0, {A: True, B: True}, alive)
        assert ("unsuspect", B) in events
        assert not det.is_suspected(B) and not det.is_fenced(B)
        assert det.stats.false_confirms == 0

    def test_false_confirm_counts_and_clear_rejoins(self):
        det = FailureDetector(DetectorConfig())
        det.reset([A, B], now=0.0)
        alive = {A: True, B: True}  # B is alive but unheard (partition)
        t = 0.0
        for _ in range(8):
            t += 0.5
            det.observe(t, {A: True, B: False}, alive)
        assert det.is_fenced(B)
        assert det.stats.false_confirms == 1
        det.clear(B, t)
        assert not det.is_fenced(B)
        # After the clear B must be heard (or re-suspected) from scratch.
        events = det.observe(t + 0.5, {A: True, B: True}, alive)
        assert events == []

    def test_fenced_nodes_are_skipped(self):
        det = FailureDetector(DetectorConfig())
        det.reset([A, B], now=0.0)
        t = 0.0
        for _ in range(8):
            t += 0.5
            det.observe(t, {A: True, B: False}, {A: True, B: False})
        confirms = det.stats.confirms
        # More silence produces no further events for a fenced node.
        assert det.observe(t + 0.5, {A: True, B: False},
                           {A: True, B: False}) == []
        assert det.stats.confirms == confirms


# ------------------------------------------------------- backoff jitter


class TestBackoffJitter:
    def _faulty(self, seed, retry):
        return FaultyMessagingLayer(
            MessagingLayer(make_dolphin_pxh810()),
            DeterministicRng(seed),
            loss_probability=0.5,
            retry=retry,
        )

    def test_backoff_capped(self):
        # With a tiny cap, even dozens of consecutive losses cannot
        # charge more than (timeout + cap) per retry.
        retry = RetryPolicy(max_retries=64, max_backoff_s=1e-4)
        faulty = self._faulty(5, retry)
        baseline = MessagingLayer(make_dolphin_pxh810()).send("x", A, B, 256)
        # Per message: total <= wire * (retries+1) + retries * (timeout+cap)
        worst = baseline * (retry.max_retries + 1) + retry.max_retries * (
            retry.ack_timeout_s + retry.max_backoff_s
        )
        for _ in range(80):
            assert faulty.send("x", A, B, 256) <= worst + 1e-12
        assert faulty.retries > 0

    def test_jittered_backoff_is_seed_deterministic(self):
        def trace(seed):
            faulty = self._faulty(seed, RetryPolicy(max_retries=64))
            return [faulty.send("x", A, B, 64) for _ in range(20)]

        assert trace(7) == trace(7)  # reproducible per seed
        assert trace(7) != trace(8)  # decorrelated across streams

    def test_plain_exponential_still_capped(self):
        retry = RetryPolicy(max_retries=30, jitter=False, max_backoff_s=2e-4,
                            backoff_base_s=1e-4)
        faulty = self._faulty(9, retry)
        baseline = MessagingLayer(make_dolphin_pxh810()).send("x", A, B, 64)
        total = 0.0
        for _ in range(40):
            total += faulty.send("x", A, B, 64)
        # Uncapped 2**attempt growth would dwarf this bound.
        assert total < 40 * baseline + faulty.retries * (
            retry.ack_timeout_s + retry.max_backoff_s
        ) + 1e-9


# ------------------------------------------------------ directory scrub


def _dsm(backup=False, machines=(A, B)):
    space = AddressSpace()
    space.map_region(0, PAGE_SIZE * 16, "data")
    return DsmService(
        space, MessagingLayer(make_dolphin_pxh810()), A,
        machines=list(machines), backup=backup,
    )


class TestDirectoryScrub:
    def test_reown_from_surviving_sharer(self):
        dsm = _dsm()
        dsm.access(B, 0x10, write=True)  # B owns
        dsm.access(A, 0x10, write=False)  # A shares
        report = dsm.scrub_dead_kernel(B)
        assert report.reowned == 1 and report.lost == 0
        assert dsm.owner_of(0x10) == A
        assert dsm.access(A, 0x10, write=True) >= 0.0  # usable again

    def test_dirty_sole_copy_is_lost_and_fails_loudly(self):
        dsm = _dsm()
        dsm.access(B, 0x10, write=True)  # dirty, only copy on B
        report = dsm.scrub_dead_kernel(B)
        assert report.lost == 1
        with pytest.raises(LostPageError):
            dsm.access(A, 0x10, write=False)
        with pytest.raises(LostPageError):
            dsm.ensure_range(A, 0, PAGE_SIZE, write=False)

    def test_clean_sole_copy_is_refetchable(self):
        dsm = _dsm()
        dsm.access(B, 0x10, write=False)  # read first touch: clean
        report = dsm.scrub_dead_kernel(B)
        assert report.refetchable == 1 and report.lost == 0
        # Next toucher re-materialises the page like a first touch.
        assert dsm.access(A, 0x10, write=False) == 0.0
        assert dsm.owner_of(0x10) == A

    def test_backup_home_recovers_dirty_sole_copy(self):
        dsm = _dsm(backup=True)
        dsm.access(A, 0x10, write=True)  # dirty on A, backup pushed to B
        assert dsm.stats.backup_pushes == 1
        report = dsm.scrub_dead_kernel(A)
        assert report.reowned_from_backup == 1 and report.lost == 0
        assert dsm.owner_of(0x10) == B  # the ring successor took over
        assert dsm.access(B, 0x10, write=True) >= 0.0

    def test_backups_on_dead_kernel_die_with_it(self):
        dsm = _dsm(backup=True)
        dsm.access(A, 0x10, write=True)  # backup lives on B
        dsm.scrub_dead_kernel(B)
        # A still owns the page; its backup is gone.  A's own later
        # death now genuinely loses the page.
        report = dsm.scrub_dead_kernel(A)
        assert report.lost == 1

    def test_bulk_write_pull_pushes_one_backup_per_page(self):
        # A clean first touch on A, then a bulk write pull by B: each
        # page is dirtied by one coherence event, so one push each —
        # exactly what the same pages faulted singly are charged.
        bulk = _dsm(backup=True)
        bulk.ensure_range(A, 0, 4 * PAGE_SIZE, write=False)
        bulk.ensure_range(B, 0, 4 * PAGE_SIZE, write=True)
        single = _dsm(backup=True)
        for page in range(4):
            single.access(A, page * PAGE_SIZE, write=False)
        for page in range(4):
            single.access(B, page * PAGE_SIZE, write=True)
        assert single.stats.backup_pushes == 4
        assert bulk.stats.backup_pushes == single.stats.backup_pushes
        assert bulk.stats.backup_bytes == single.stats.backup_bytes
        # A later bulk write to the pages B now owns pushes nothing more.
        bulk.ensure_range(B, 0, 4 * PAGE_SIZE, write=True)
        assert bulk.stats.backup_pushes == 4


# ------------------------------------------------- crash_kernel fencing


class TestCrashKernel:
    def test_fenced_kernel_neither_sends_nor_receives(self):
        system = boot_testbed()
        system.crash_kernel("arm-server")
        with pytest.raises(KernelFencedError):
            system.messaging.send("x", "arm-server", "x86-server", 64)
        with pytest.raises(KernelFencedError):
            system.messaging.send("x", "x86-server", "arm-server", 64)

    def test_crash_is_idempotent(self):
        system = boot_testbed()
        assert system.crash_kernel("arm-server") is not None
        assert system.crash_kernel("arm-server") == {}

    def test_crash_kills_resident_threads_loudly(self):
        binary = Toolchain().build(call_chain_module())
        system = boot_testbed()
        process = system.exec_process(binary, X86)
        system.crash_kernel(X86)
        assert process.failure is not None
        assert "crashed" in process.failure
        validate.check_crash_consistency(system, [process])


# ------------------------------------------- two-phase hand-off (chaos)


@pytest.fixture(scope="module")
def chain_report():
    scenario = ChaosScenario(
        name="chain",
        binary_factory=lambda: Toolchain().build(call_chain_module()),
        start=X86,
        migrate_at=2,
    )
    return ChaosHarness(scenario).enumerate()


def _case(report, step, victim_role):
    for case in report.cases:
        roles = dict(case.site.roles)
        if case.site.step == step and roles.get(victim_role) == case.victim:
            return case
    raise AssertionError(f"no case for {step} victim={victim_role}")


class TestTwoPhaseHandoff:
    def test_enumeration_has_zero_violations(self, chain_report):
        assert chain_report.violations == []
        assert chain_report.cases  # non-vacuous

    def test_dst_death_at_prepare_aborts_back_to_source(self, chain_report):
        assert _case(chain_report, "migrate.prepare", "dst").outcome == COMPLETED

    def test_src_death_at_prepare_kills_the_only_copy(self, chain_report):
        # Nothing has left the source yet: the thread's only copy died.
        case = _case(chain_report, "migrate.prepare", "src")
        assert case.outcome == FAILED_LOUD

    def test_src_death_after_transfer_promotes_resume_token(self, chain_report):
        # The context already reached the destination: it resumes there.
        assert _case(chain_report, "migrate.transfer", "src").outcome == COMPLETED

    def test_dst_death_after_transfer_aborts(self, chain_report):
        assert _case(chain_report, "migrate.transfer", "dst").outcome == COMPLETED

    def test_publish_crashes_recover_either_way(self, chain_report):
        assert _case(chain_report, "migrate.publish", "src").outcome == COMPLETED
        assert _case(chain_report, "migrate.publish", "dst").outcome == COMPLETED

    def test_src_death_after_commit_is_harmless(self, chain_report):
        assert _case(chain_report, "migrate.commit", "src").outcome == COMPLETED

    def test_dst_death_after_commit_kills_the_thread(self, chain_report):
        # The thread is rebound to the destination; its death is loud.
        assert _case(chain_report, "migrate.commit", "dst").outcome == FAILED_LOUD

    def test_refused_migration_to_dead_destination(self):
        binary = Toolchain().build(call_chain_module())
        system = boot_testbed()
        process = system.exec_process(binary, X86)
        system.crash_kernel("arm-server")
        hooks = EngineHooks()
        outcomes = []
        hooks.on_migration = lambda t, o: outcomes.append(o)
        hits = [0]

        def on_point(thread, fn, point_id, instrs):
            hits[0] += 1
            if hits[0] == 1:
                system.request_migration(process, "arm-server")

        hooks.on_migration_point = on_point
        ExecutionEngine(system, process, hooks).run()
        assert process.failure is None  # finished at the source
        assert process.exit_code is not None
        assert outcomes and outcomes[0].aborted
        assert outcomes[0].total_seconds == 0.0  # refused before any work


class TestChaosHarness:
    def test_multithreaded_enumeration_zero_violations(self):
        scenario = ChaosScenario(
            name="tls",
            binary_factory=lambda: Toolchain().build(tls_module()),
            start=X86,
            migrate_at=2,
        )
        report = ChaosHarness(scenario).enumerate()
        assert report.violations == []
        assert report.failed_loud > 0  # crashes do kill threads, loudly

    def test_soak_is_seed_deterministic(self, chain_report):
        scenario = ChaosScenario(
            name="chain",
            binary_factory=lambda: Toolchain().build(call_chain_module()),
            start=X86,
            migrate_at=2,
        )
        harness = ChaosHarness(scenario)
        one = harness.soak(6, seed=42)
        two = harness.soak(6, seed=42)
        picks = [(c.site.seq, c.victim, c.outcome) for c in one.cases]
        assert picks == [(c.site.seq, c.victim, c.outcome) for c in two.cases]
        # Pinned: the soak stream name and the pick order are part of
        # the harness contract (CI soak lines must not move silently).
        assert picks == [
            (3, ARM, COMPLETED), (3, X86, COMPLETED), (2, X86, COMPLETED),
            (2, ARM, COMPLETED), (3, X86, COMPLETED), (4, X86, COMPLETED),
        ]
        assert one.violations == []

    def test_backup_ablation_runs_clean(self):
        scenario = ChaosScenario(
            name="chain-backup",
            binary_factory=lambda: Toolchain().build(call_chain_module()),
            start=X86,
            migrate_at=2,
            dsm_backup=True,
        )
        report = ChaosHarness(scenario).enumerate()
        assert report.violations == []


# --------------------------------------------------- cluster detection


def _three_nodes():
    return [
        make_xgene1("arm"),
        make_xeon_e5_1650v2("x86-1"),
        make_xeon_e5_1650v2("x86-2"),
    ]


class TestClusterDetector:
    def test_mttd_is_measured_not_zero(self):
        specs, conc = sustained_backfill(DeterministicRng(11), 16, 5)
        sched = FaultSchedule([NodeCrash(5.0, "x86-1", repair_seconds=60.0)])
        sim = ClusterSimulator(
            _three_nodes(), make_policy("dynamic-balanced"),
            faults=sched, recovery=EvacuateLive(),
            detector=FailureDetector(DetectorConfig()),
        )
        res = sim.run_sustained(specs, conc)
        cfg = DetectorConfig()
        assert 0.0 < res.mttd <= cfg.nominal_mttd_s + cfg.heartbeat_period_s
        assert res.handoffs > 0 and res.requests_failed == 0
        kinds = {e.kind for e in res.fault_trace}
        assert {"suspect", "confirm", "handoff-begin",
                "handoff-commit"} <= kinds

    def test_omniscient_mode_unchanged_without_detector(self):
        specs, conc = sustained_backfill(DeterministicRng(11), 16, 5)
        sched = FaultSchedule([NodeCrash(5.0, "x86-1", repair_seconds=60.0)])
        sim = ClusterSimulator(
            _three_nodes(), make_policy("dynamic-balanced"),
            faults=sched, recovery=EvacuateLive(),
        )
        res = sim.run_sustained(specs, conc)
        assert res.mttd == 0.0 and res.handoffs == 0
        assert "suspect" not in {e.kind for e in res.fault_trace}

    def test_detector_results_are_deterministic(self):
        def run():
            specs, conc = sustained_backfill(DeterministicRng(3), 14, 5)
            sim = ClusterSimulator(
                _three_nodes(), make_policy("dynamic-balanced"),
                faults=FaultSchedule(
                    [NodeCrash(4.0, "x86-2", repair_seconds=30.0)]
                ),
                recovery=EvacuateLive(),
                detector=FailureDetector(DetectorConfig()),
            )
            return sim.run_sustained(specs, conc)

        one, two = run(), run()
        assert one.makespan == two.makespan
        assert one.mttd == two.mttd
        assert [
            (e.time, e.kind, e.node) for e in one.fault_trace
        ] == [(e.time, e.kind, e.node) for e in two.fault_trace]


# -------------------------------------------------- split-brain cases


class TestSplitBrain:
    """A partition between PREPARE and COMMIT never yields two copies."""

    def _copies(self, sim, job):
        resident = sum(1 for n in sim.nodes for j in n.jobs if j is job)
        in_flight = sum(1 for h in sim._in_flight if h.job is job)
        return resident + in_flight

    def _pump_until_quiescent(self, sim, job, checker):
        for _ in range(10_000):
            assert self._copies(sim, job) == 1, "split brain: copy count != 1"
            checker.check(sim, outstanding=0)
            if not sim._in_flight and any(job in n.jobs for n in sim.nodes):
                return
            dt = sim._next_fault_dt()
            if dt is None:
                return
            sim._advance(dt)
            sim._collect_finished()
            sim._apply_due_faults()
        raise AssertionError("hand-off never settled")

    def _sim(self, island, at=0.2, duration=6.0):
        sched = FaultSchedule(
            [NetworkPartition(at, island=island, duration=duration)]
        )
        return ClusterSimulator(
            _three_nodes(), make_policy("dynamic-balanced"),
            faults=sched, recovery=EvacuateLive(),
            detector=FailureDetector(DetectorConfig()),
        )

    def _begin(self, sim, src, dst):
        job = Job(JobSpec("lu", "C", 1), arrival=0.0)
        sim.start_job(job, sim._node_index[src])
        sim._node_index[src].jobs.remove(job)
        sim.begin_handoff(job, src, sim._node_index[dst])
        return job

    def test_source_side_partitioned_mid_handoff(self):
        with validate.forced(True):
            sim = self._sim(island=("arm",))
            checker = validate.make_cluster_checker()
            checker.begin(1)
            job = self._begin(sim, "arm", "x86-1")
            self._pump_until_quiescent(sim, job, checker)
            # Exactly one copy, at the destination; the stalled transfer
            # committed once the partition healed.
            assert job in sim._node_index["x86-1"].jobs
            assert self._copies(sim, job) == 1
            assert sim.handoffs_aborted == 0
            # The minority source was fenced meanwhile (false confirm),
            # then rejoined after the heal.
            kinds = {e.kind for e in sim.fault_log}
            assert "fence" in kinds and "rejoin" in kinds
            assert sim.detector.stats.false_confirms >= 1

    def test_destination_side_partitioned_mid_handoff(self):
        with validate.forced(True):
            sim = self._sim(island=("x86-1",))
            checker = validate.make_cluster_checker()
            checker.begin(1)
            job = self._begin(sim, "arm", "x86-1")
            self._pump_until_quiescent(sim, job, checker)
            # The isolated destination was fenced; the hand-off aborted
            # and re-placed the job on a majority node — never two
            # running copies, never zero.
            assert self._copies(sim, job) == 1
            assert job.machine in ("arm", "x86-2")
            assert sim.handoffs_aborted >= 1
            assert "handoff-abort" in {e.kind for e in sim.fault_log}


# ----------------------------------------------- engine-level recovery


class TestEngineCrashRecovery:
    def test_lost_page_fails_loudly_not_silently(self):
        binary = Toolchain().build(call_chain_module())
        system = boot_testbed()
        process = system.exec_process(binary, X86)
        hooks = EngineHooks()
        hits = [0]

        def on_point(thread, fn, point_id, instrs):
            hits[0] += 1
            if hits[0] == 1:
                system.request_migration(process, "arm-server")
            elif hits[0] == 4:
                # The thread now runs on arm with dirty pages behind it
                # on x86 (residual state): kill x86.
                system.crash_kernel(X86)

        hooks.on_migration_point = on_point
        ExecutionEngine(system, process, hooks).run()
        # Either the run completed (no dirty sole copy was needed) or it
        # failed loudly — silent completion with wrong output is what
        # the chaos harness would flag; here we assert loudness is
        # recorded when the process did not finish.
        if process.exit_code is None:
            assert process.failure is not None
        validate.check_crash_consistency(system, [process])
