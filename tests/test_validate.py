"""The invariant-checking subsystem (repro.validate) and the bugs it
catches.

Four groups of tests:

* regressions for the satellite bugfixes — hDSM S->M upgrades and
  owner-with-stale-sharers writes move no page payload, bulk
  ``ensure_range`` accounts exactly like the equivalent single faults,
  and stack-buffer zero words are copied (stale-half-reuse);
* a zero-violation property — real migration workloads and cluster
  runs execute under every checker (round-trip included) without a
  single violation, and produce bit-identical results to unvalidated
  runs;
* checker-fires tests — re-introducing each bug (or injecting a
  corruption) makes the matching checker raise
  :class:`InvariantViolation`;
* one log — every checker fails through ``fail`` and counts its checks
  in the default validation log, and none takes a log of its own.
"""

import inspect

import pytest

from repro import validate
from repro.compiler import Toolchain
from repro.datacenter import (
    ClusterSimulator,
    make_policy,
    periodic_waves,
    sustained_backfill,
)
from repro.datacenter.job import JobState
from repro.faults import EvacuateLive, FailStop, single_crash
from repro.fleet import FleetConfig, FleetSimulator, WavePolicy
from repro.ir import FunctionBuilder, Module
from repro.isa.types import ValueType as VT
from repro.kernel import boot_testbed
from repro.kernel.dsm import DsmService
from repro.kernel.messages import MessagingLayer
from repro.linker.layout import PAGE_SIZE
from repro.machine import make_xeon_e5_1650v2, make_xgene1
from repro.machine.interconnect import make_dolphin_pxh810
from repro.runtime.address_space import AddressSpace
from repro.runtime.execution import EngineHooks, ExecutionEngine
from repro.runtime.transform import StackTransformer
from repro.serving import ServingEngine, make_serving_policy, make_trace
from repro.sim.rng import DeterministicRng
from repro.telemetry.validation import default_log, reset_default_log
from repro.validate import InvariantViolation
from repro.validate.conservation import (
    ClusterConservationChecker,
    FleetConservationChecker,
)
from repro.validate.dsm_checker import ValidatedDsmService
from repro.validate.errors import fail
from repro.validate.stack_checker import ValidatedStackTransformer

from tests.helpers import (
    ARM,
    X86,
    call_chain_module,
    float_module,
    run_to_completion,
    stack_pointer_module,
)

A, B, C = "kernel-a", "kernel-b", "kernel-c"


@pytest.fixture
def validation_on():
    """Force all checkers (incl. round-trip) on; restore env control."""
    validate.set_enabled(True)
    validate.set_roundtrip(True)
    reset_default_log()
    yield default_log()
    validate.set_enabled(None)
    validate.set_roundtrip(None)
    reset_default_log()


def _messaging():
    return MessagingLayer(make_dolphin_pxh810())


def _dsm(cls=DsmService):
    space = AddressSpace()
    space.map_region(0, PAGE_SIZE * 16, "data")
    space.map_region(PAGE_SIZE * 32, PAGE_SIZE * 4, "text", aliased=True)
    return cls(space, _messaging(), A)


# --------------------------------------------------------------------
# Satellite bugfix (a): write upgrades move no page payload.
# --------------------------------------------------------------------

class TestUpgradeCostRegression:
    def test_s_to_m_upgrade_moves_no_payload(self):
        dsm = _dsm()
        dsm.access(A, 0x10, write=True)
        dsm.access(B, 0x10, write=False)  # B pulls a read copy
        rpcs = dsm.messaging.counts["dsm.page.req"]
        transfers, nbytes = dsm.stats.page_transfers, dsm.stats.bytes_transferred
        cost = dsm.access(B, 0x10, write=True)  # S->M upgrade
        assert cost > 0  # invalidation traffic is still charged
        assert dsm.messaging.counts["dsm.page.req"] == rpcs
        assert dsm.stats.page_transfers == transfers
        assert dsm.stats.bytes_transferred == nbytes
        assert dsm.stats.invalidations == 1
        assert dsm.owner_of(0x10) == B

    def test_owner_with_stale_sharers_pays_no_self_rpc(self):
        dsm = _dsm()
        dsm.access(A, 0x10, write=True)
        dsm.access(B, 0x10, write=False)
        rpcs = dsm.messaging.counts["dsm.page.req"]
        transfers, nbytes = dsm.stats.page_transfers, dsm.stats.bytes_transferred
        # A still owns the page but B holds a copy: A's write must only
        # invalidate B — the old model charged A a full-page RPC to
        # itself and counted a phantom transfer.
        cost = dsm.access(A, 0x10, write=True)
        assert cost > 0
        assert dsm.messaging.counts["dsm.page.req"] == rpcs
        assert dsm.stats.page_transfers == transfers
        assert dsm.stats.bytes_transferred == nbytes
        assert dsm.stats.invalidations == 1
        assert dsm.owner_of(0x10) == A
        assert dsm.access(A, 0x10, write=True) == 0.0  # exclusive again

    def test_cold_write_still_pays_full_page(self):
        dsm = _dsm()
        dsm.access(A, 0x10, write=True)
        cost = dsm.access(B, 0x10, write=True)  # B holds nothing
        assert cost > 0
        assert dsm.messaging.counts["dsm.page.req"] == 1
        assert dsm.stats.page_transfers == 1
        assert dsm.stats.bytes_transferred == PAGE_SIZE
        assert dsm.stats.invalidations == 1


# --------------------------------------------------------------------
# Satellite bugfix (c): bulk pulls account exactly like single faults.
# --------------------------------------------------------------------

class TestBulkAccountingRegression:
    def _populate(self, dsm, pages):
        for page in range(pages):
            dsm.access(A, page * PAGE_SIZE, write=True)
            dsm.access(B, page * PAGE_SIZE, write=False)

    def test_bulk_write_matches_single_fault_accounting(self):
        pages = 4
        bulk, single = _dsm(), _dsm()
        self._populate(bulk, pages)
        self._populate(single, pages)
        faults0, inval0 = bulk.stats.faults, bulk.stats.invalidations
        bulk_cost, moved = bulk.ensure_range(C, 0, pages * PAGE_SIZE, write=True)
        single_cost = sum(
            single.access(C, page * PAGE_SIZE, write=True)
            for page in range(pages)
        )
        assert moved == pages
        # Identical traffic counters: the bulk path may be cheaper only
        # in *time* (pipelined payloads), never in *accounting*.
        for counter in ("faults", "page_transfers", "invalidations",
                        "bytes_transferred"):
            assert getattr(bulk.stats, counter) == getattr(
                single.stats, counter
            ), counter
        assert bulk.stats.faults == faults0 + pages
        assert bulk.stats.invalidations == inval0 + 2 * pages  # A + B
        assert 0 < bulk_cost <= single_cost

    def test_bulk_upgrade_moves_no_payload(self):
        dsm = _dsm()
        pages = 3
        for page in range(pages):
            dsm.access(A, page * PAGE_SIZE, write=True)
            dsm.access(C, page * PAGE_SIZE, write=False)
        nbytes = dsm.stats.bytes_transferred
        cost, moved = dsm.ensure_range(C, 0, pages * PAGE_SIZE, write=True)
        assert moved == 0  # C already held every page
        assert cost > 0  # but the invalidations are still charged
        assert dsm.stats.bytes_transferred == nbytes

    def test_bulk_bytes_hit_the_messaging_ledger(self):
        dsm = _dsm()
        for page in range(4):
            dsm.access(A, page * PAGE_SIZE, write=True)
        _, moved = dsm.ensure_range(B, 0, 4 * PAGE_SIZE, write=False)
        assert moved == 4
        msg = dsm.messaging
        assert msg.bytes_by_kind["dsm.bulk"] == moved * (PAGE_SIZE + 64)
        # Every byte the interconnect saw is attributed to a kind.
        assert msg.interconnect.bytes_sent == sum(msg.bytes_by_kind.values())


# --------------------------------------------------------------------
# Satellite bugfix (b): zero buffer words are copied on migration.
# --------------------------------------------------------------------

def stale_zero_module(round_trip=True):
    """Fill a stack buffer, migrate, zero one word, migrate back, sum.

    Uses the application-directed ``migrate_hint`` syscall (as in the
    Figure 11 experiment): each hint takes effect at the first
    migration point of the following work burst.  The A->B->A pattern
    lands the thread back on its original stack half, where the
    pre-migration buffer image is still in memory: a transformer that
    skips zero words lets the stale word resurface.
    """
    m = Module("stalezero")
    f = m.function("phase", [("n", VT.I64)], VT.I64)
    fb = FunctionBuilder(f)
    buf = fb.stack_alloc(64, "buf")
    with fb.for_range("i", 0, 8) as i:
        off = fb.binop("mul", i, 8, VT.I64)
        slot = fb.binop("add", buf, off, VT.PTR)
        fb.store(slot, 0, fb.binop("add", i, 5, VT.I64), VT.I64)
    if round_trip:
        fb.syscall("migrate_hint", [1])  # hop to x86 at the next point
    fb.work(60_000_000, "int_alu")
    fb.store(buf, 24, 0, VT.I64)  # word 3 (value 8) becomes zero there
    if round_trip:
        fb.syscall("migrate_hint", [0])  # hop home at the next point
    fb.work(60_000_000, "int_alu")
    total = fb.local("total", VT.I64, init=0)
    with fb.for_range("j", 0, 8) as j:
        off = fb.binop("mul", j, 8, VT.I64)
        slot = fb.binop("add", buf, off, VT.PTR)
        fb.binop_into(total, "add", total, fb.load(slot, 0, VT.I64), VT.I64)
    fb.ret(total)

    main = m.function("main", [], VT.I64)
    fb = FunctionBuilder(main)
    r = fb.call("phase", [0], VT.I64)
    fb.syscall("print", [r])
    fb.ret(r)
    m.entry = "main"
    return m


def run_round_trip(round_trip=True):
    """Run stale_zero_module from the testbed's first machine so the
    hint indices (1 = away, 0 = home) describe an A->B->A round trip."""
    binary = Toolchain().build(stale_zero_module(round_trip))
    system = boot_testbed()
    process = system.exec_process(binary, system.machine_order[0])
    ExecutionEngine(system, process, EngineHooks()).run()
    return process.output, process.exit_code


def _buggy_copy_buffers(self, plan, stats):
    """The pre-fix transformer: skips zero words as an 'optimisation'."""
    src_frame = plan.src.mf.frame
    dst_frame = plan.dst_mf.frame
    for name, (src_depth, size) in src_frame.buffer_depths.items():
        dst_depth, _ = dst_frame.buffer_depths[name]
        src_base = plan.src.cfa - src_depth
        dst_base = plan.dst_cfa - dst_depth
        for offset in range(0, size, 8):
            word = self.space.read(src_base + offset)
            if word:
                self.space.write(dst_base + offset, word)
                stats.buffer_words_copied += 1


class TestStaleStackWordRegression:
    EXPECTED = sum(i + 5 for i in range(8)) - 8  # word 3 zeroed: 60

    def test_reference_run_without_migration(self):
        out, code = run_round_trip(round_trip=False)
        assert out == [self.EXPECTED] and code == self.EXPECTED

    def test_round_trip_migration_preserves_zeroed_word(self):
        out, code = run_round_trip()
        assert out == [self.EXPECTED] and code == self.EXPECTED

    def test_zero_skip_resurfaces_stale_word(self, monkeypatch):
        # Re-introduce the bug: the zeroed word comes back as its stale
        # pre-migration value (8), visibly corrupting the program.
        # Force plain mode — under REPRO_VALIDATE=1 (the CI validated
        # job) the stack checker would abort this run; the point here is
        # observing the corruption itself, not the checker catching it.
        validate.set_enabled(False)
        monkeypatch.setattr(
            StackTransformer, "_copy_buffers", _buggy_copy_buffers
        )
        try:
            out, _ = run_round_trip()
        finally:
            validate.set_enabled(None)
        assert out == [self.EXPECTED + 8]


# --------------------------------------------------------------------
# Property: real workloads run violation-free under every checker.
# --------------------------------------------------------------------

class TestZeroViolationsProperty:
    def test_migration_workloads_clean(self, validation_on):
        for module, start in (
            (call_chain_module(), X86),
            (call_chain_module(), ARM),
            (stack_pointer_module(), X86),
            (float_module(), ARM),
        ):
            out, code, _ = run_to_completion(module, start=start, migrate_at=2)
            validate.set_enabled(False)
            ref_out, ref_code, _ = run_to_completion(
                module, start=start, migrate_at=2
            )
            validate.set_enabled(True)
            # Checking must never perturb the simulation it checks.
            assert (out, code) == (ref_out, ref_code)
        log = validation_on
        assert log.violations == []
        assert log.checks["dsm"] > 0 and log.checks["stack"] > 0

    def test_double_migration_clean(self, validation_on):
        out, _ = run_round_trip()
        assert out == [TestStaleStackWordRegression.EXPECTED]
        assert validation_on.violations == []
        assert validation_on.checks["stack"] >= 2  # both hops checked

    def test_cluster_runs_clean(self, validation_on):
        machines = [make_xgene1("arm"), make_xeon_e5_1650v2("x86")]
        specs, conc = sustained_backfill(DeterministicRng(11), 20, 4)
        sim = ClusterSimulator(
            machines,
            make_policy("dynamic-balanced"),
            faults=single_crash(5.0, "x86", repair_seconds=20.0),
            recovery=EvacuateLive(),
        )
        sim.run_sustained(specs, conc)
        sim2 = ClusterSimulator(
            [make_xgene1("arm2"), make_xeon_e5_1650v2("x862")],
            make_policy("dynamic-balanced"),
        )
        sim2.run_periodic(periodic_waves(DeterministicRng(3)))
        log = validation_on
        assert log.violations == []
        assert log.checks["cluster"] > 0

    def test_validation_does_not_change_cluster_results(self, validation_on):
        def run():
            sim = ClusterSimulator(
                [make_xgene1("arm"), make_xeon_e5_1650v2("x86")],
                make_policy("dynamic-balanced"),
            )
            specs, conc = sustained_backfill(DeterministicRng(7), 16, 4)
            return sim.run_sustained(specs, conc)

        checked = run()
        validate.set_enabled(False)
        plain = run()
        validate.set_enabled(True)
        assert checked.makespan == plain.makespan
        assert checked.energy_by_machine == plain.energy_by_machine
        assert checked.migrations == plain.migrations


# --------------------------------------------------------------------
# Checker-fires: each re-introduced bug (or injected corruption) is
# caught by the matching checker.
# --------------------------------------------------------------------

def _buggy_fault(self, kernel, page, write):
    """The pre-fix _fault: charges a full-page RPC on every fault —
    including S->M upgrades and owner self-RPCs."""
    self.stats.faults += 1
    owner, sharers, dirtied, backup = self._dir.get(page)
    cost = self.messaging.rpc(
        "dsm.page", kernel, owner, request_bytes=32, reply_bytes=PAGE_SIZE
    )
    self.stats.page_transfers += 1
    self.stats.bytes_transferred += PAGE_SIZE
    if write:
        others = [k for k in sharers if k != kernel]
        if others:
            cost += self.messaging.broadcast(
                "dsm.inval", kernel, others, payload_bytes=32
            )
            self.stats.invalidations += len(others)
        self._set_page(page, (kernel, frozenset({kernel}), True, backup))
    else:
        self._set_page(page, (owner, sharers | {kernel}, dirtied, backup))
    self.epoch += 1
    return cost


class TestDsmCheckerFires:
    def test_upgrade_overcharge_diverges_from_shadow(self, monkeypatch,
                                                     validation_on):
        monkeypatch.setattr(DsmService, "_fault", _buggy_fault)
        dsm = _dsm(ValidatedDsmService)
        dsm.access(A, 0x10, write=True)
        dsm.access(B, 0x10, write=False)
        with pytest.raises(InvariantViolation) as exc:
            dsm.access(B, 0x10, write=True)  # upgrade, overcharged
        assert exc.value.checker == "dsm"
        assert exc.value.invariant == "stats-page_transfers"
        assert validation_on.violations[-1].invariant == "stats-page_transfers"

    def test_unattributed_interconnect_bytes(self, validation_on):
        dsm = _dsm(ValidatedDsmService)
        dsm.access(A, 0x10, write=True)
        dsm.messaging.interconnect.record(64)  # bytes with no kind
        with pytest.raises(InvariantViolation) as exc:
            dsm.access(A, 0x20, write=False)
        assert exc.value.invariant == "interconnect-byte-conservation"

    def test_empty_sharer_set(self, validation_on):
        dsm = _dsm(ValidatedDsmService)
        dsm.access(A, 0x10, write=True)
        dsm._dir.state[0] = (A, frozenset(), True, None)
        with pytest.raises(InvariantViolation) as exc:
            dsm.access(A, PAGE_SIZE, write=False)
        assert exc.value.invariant == "sharers-nonempty"

    def test_aliased_page_tracked(self, validation_on):
        dsm = _dsm(ValidatedDsmService)
        aliased = PAGE_SIZE * 32 // PAGE_SIZE
        dsm._dir.splice(
            aliased, aliased + 1,
            [(aliased, aliased + 1, (A, frozenset({A}), False, None))],
        )
        dsm.shadow.owner[aliased] = A
        dsm.shadow.valid[aliased] = {A}
        with pytest.raises(InvariantViolation) as exc:
            dsm.access(A, 0x10, write=False)
        assert exc.value.invariant == "aliased-never-tracked"

    def test_violation_carries_state_dump(self, validation_on):
        dsm = _dsm(ValidatedDsmService)
        dsm.access(A, 0x10, write=True)
        dsm._dir.state[0] = (A, frozenset(), True, None)
        with pytest.raises(InvariantViolation) as exc:
            dsm.access(B, 0x10, write=False)
        # B's fault re-adds itself to the emptied set, so the breakage
        # surfaces as the owner having lost its copy.
        assert exc.value.invariant == "owner-holds-copy"
        message = str(exc.value)
        assert "owner-holds-copy" in message and "'valid'" in message
        assert exc.value.state["stats"]["faults"] >= 1

    def test_empty_extent(self, validation_on):
        dsm = _dsm(ValidatedDsmService)
        dsm.access(A, 0x10, write=True)
        dsm._dir.hi[0] = dsm._dir.lo[0]
        with pytest.raises(InvariantViolation) as exc:
            dsm.access(A, 5 * PAGE_SIZE, write=False)
        assert exc.value.invariant == "extents-nonempty"

    def test_overlapping_extents(self, validation_on):
        dsm = _dsm(ValidatedDsmService)
        dsm.access(A, 0, write=True)
        dsm.access(A, 2 * PAGE_SIZE, write=True)
        dsm._dir.hi[0] = 3  # [0, 3) now overlaps [2, 3)
        with pytest.raises(InvariantViolation) as exc:
            dsm.access(A, 8 * PAGE_SIZE, write=False)
        assert exc.value.invariant == "extents-sorted-disjoint"

    def test_uncoalesced_extents(self, validation_on):
        dsm = _dsm(ValidatedDsmService)
        dsm.ensure_range(A, 0, 4 * PAGE_SIZE, write=True)
        (lo, hi, state), = dsm.extents()
        dsm._dir.lo[:] = [lo, lo + 2]
        dsm._dir.hi[:] = [lo + 2, hi]
        dsm._dir.state[:] = [state, state]
        with pytest.raises(InvariantViolation) as exc:
            dsm.access(A, 8 * PAGE_SIZE, write=False)
        assert exc.value.invariant == "extents-coalesced"


class TestStackCheckerFires:
    def test_zero_skip_caught_by_buffer_check(self, monkeypatch,
                                              validation_on):
        monkeypatch.setattr(
            StackTransformer, "_copy_buffers", _buggy_copy_buffers
        )
        with pytest.raises(InvariantViolation) as exc:
            run_round_trip()
        assert exc.value.checker == "stack"
        assert exc.value.invariant == "buffer-words-verbatim"


class TestClusterCheckerFires:
    def test_leaky_job_loss_breaks_conservation(self, monkeypatch,
                                                validation_on):
        def leaky_lose(self, job):
            job.state = JobState.FAILED  # forgets jobs_lost += 1
            job.machine = None

        monkeypatch.setattr(ClusterSimulator, "lose_job", leaky_lose)
        specs, conc = sustained_backfill(DeterministicRng(11), 20, 4)
        sim = ClusterSimulator(
            [make_xgene1("arm"), make_xeon_e5_1650v2("x86")],
            make_policy("dynamic-balanced"),
            faults=single_crash(5.0, "x86", repair_seconds=20.0),
            recovery=FailStop(),
        )
        with pytest.raises(InvariantViolation) as exc:
            sim.run_sustained(specs, conc)
        assert exc.value.checker == "cluster"
        assert exc.value.invariant == "job-conservation"

    def test_energy_regression_caught(self, validation_on):
        sim = ClusterSimulator(
            [make_xgene1("arm"), make_xeon_e5_1650v2("x86")],
            make_policy("static-het-balanced"),
        )
        sim._checker.begin(0)
        sim._checker.check(sim)
        sim.nodes[0].energy_joules = 5.0
        sim._checker.check(sim)
        sim.nodes[0].energy_joules = 1.0  # shrank
        with pytest.raises(InvariantViolation) as exc:
            sim._checker.check(sim)
        assert exc.value.invariant == "energy-monotone"


# --------------------------------------------------------------------
# One way to fail, one log.
# --------------------------------------------------------------------

class TestOneLog:
    def test_fail_records_then_raises(self, validation_on):
        with pytest.raises(InvariantViolation) as exc:
            fail("demo", "planted", "on purpose", {"x": 1})
        assert (exc.value.checker, exc.value.invariant) == ("demo", "planted")
        [record] = validation_on.violations
        assert (record.checker, record.invariant, record.state) == (
            "demo", "planted", {"x": 1}
        )

    def test_every_checker_counts_in_the_default_log(self, validation_on):
        """One validated run each of a migrating workload on the fast
        engine, a cluster, a fleet and a serving engine."""
        run_to_completion(call_chain_module(), migrate_at=2, engine="fast")
        specs, conc = sustained_backfill(DeterministicRng(11), 8, 4)
        ClusterSimulator(
            [make_xgene1("arm"), make_xeon_e5_1650v2("x86")],
            make_policy("dynamic-balanced"),
        ).run_sustained(specs, conc)
        FleetSimulator(
            FleetConfig(nodes={"x86-64": 2, "arm64": 2}, slots_per_node=2,
                        services=4),
            WavePolicy(canary_fraction=0.25, ramp=(0.5, 1.0),
                       wave_interval_s=5.0, bake_s=5.0),
            DeterministicRng(7),
        ).run(make_trace("steady", DeterministicRng(7), requests=200,
                         horizon_s=30.0))
        ServingEngine(
            make_serving_policy("latency-aware"),
            make_trace("steady", DeterministicRng(7), requests=300,
                       horizon_s=1.0),
        ).run()
        checks = validation_on.checks
        for checker in ("cluster", "fleet", "serving", "dsm", "stack",
                        "fastforward"):
            assert checks[checker] > 0, (checker, dict(checks))
        assert validation_on.violations == []

    def test_no_checker_takes_a_log(self):
        for cls in (ValidatedDsmService, ValidatedStackTransformer,
                    ClusterConservationChecker, FleetConservationChecker):
            assert "log" not in inspect.signature(cls).parameters, cls


# --------------------------------------------------------------------
# Enable plumbing: env flag, overrides, factories.
# --------------------------------------------------------------------

class TestEnablePlumbing:
    def test_off_by_default_returns_plain_classes(self, monkeypatch):
        monkeypatch.delenv("REPRO_VALIDATE", raising=False)
        validate.set_enabled(None)
        assert not validate.enabled()
        dsm = validate.make_dsm_service(AddressSpace(), _messaging(), A)
        assert type(dsm) is DsmService
        assert validate.make_cluster_checker() is None

    def test_env_flag_turns_checkers_on(self, monkeypatch):
        monkeypatch.setenv("REPRO_VALIDATE", "yes")
        validate.set_enabled(None)
        try:
            assert validate.enabled()
            dsm = validate.make_dsm_service(AddressSpace(), _messaging(), A)
            assert isinstance(dsm, ValidatedDsmService)
            assert validate.make_cluster_checker() is not None
        finally:
            validate.set_enabled(None)

    def test_override_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_VALIDATE", "1")
        validate.set_enabled(False)
        try:
            assert not validate.enabled()
        finally:
            validate.set_enabled(None)

    def test_roundtrip_flag(self, monkeypatch):
        monkeypatch.setenv("REPRO_VALIDATE_ROUNDTRIP", "on")
        validate.set_roundtrip(None)
        try:
            assert validate.roundtrip_enabled()
        finally:
            validate.set_roundtrip(None)

    def test_forced_restores_both_overrides(self, monkeypatch):
        # The environment says on; the overrides below say otherwise.
        monkeypatch.setenv("REPRO_VALIDATE", "1")
        monkeypatch.setenv("REPRO_VALIDATE_ROUNDTRIP", "1")
        validate.set_enabled(None)
        validate.set_roundtrip(False)
        try:
            with pytest.raises(RuntimeError):
                with validate.forced(False, roundtrip=True):
                    assert not validate.enabled()
                    assert validate.roundtrip_enabled()
                    raise RuntimeError("inside the block")
            # Checking defers to the environment again; the round-trip
            # override is False again, not the environment's True.
            assert validate.enabled() and not validate.roundtrip_enabled()
            with validate.forced(False):
                with validate.forced(True, roundtrip=True):
                    assert validate.enabled() and validate.roundtrip_enabled()
                # Without ``roundtrip`` the round-trip override stays.
                assert not validate.enabled()
                assert not validate.roundtrip_enabled()
            assert validate.enabled() and not validate.roundtrip_enabled()
        finally:
            validate.set_enabled(None)
            validate.set_roundtrip(None)

    def test_validation_log_summary(self, validation_on):
        run_to_completion(call_chain_module(), migrate_at=2)
        log = validation_on
        assert log.total_checks() > 0
        summary = log.summary()
        assert "0 violations" in summary and "dsm" in summary
