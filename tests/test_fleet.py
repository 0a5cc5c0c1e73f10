"""Fleet simulator tests: wave policies, determinism, faults, scale."""

import random
from collections import Counter

import pytest

from repro import validate
from repro.datacenter.job import (
    DEFAULT_INTERCONNECT_BW, JobSpec, migration_penalty,
)
from repro.faults import (
    FaultSchedule,
    LinkDegradation,
    NetworkPartition,
    NodeCrash,
)
from repro.fleet import (
    DEFAULT_SERVICE_MIX,
    FleetConfig,
    FleetSimulator,
    WavePolicy,
    node_name,
    render_result,
)
from repro.fleet.model import parse_node_name
from repro.fleet.waves import plan_counts
from repro.serving import make_trace
from repro.sim.rng import DeterministicRng

from tests.helpers import traced_memory

#: A fast service mix (no ep): keeps queueing small so light-load tests
#: complete their ramp without tripping the regression gate.
FAST_MIX = (JobSpec("is", "A", 2), JobSpec("cg", "A", 2))


def small_config(**overrides):
    defaults = dict(
        nodes={"x86-64": 8, "arm64": 8},
        slots_per_node=4,
        services=16,
        slo_factor=24.0,
    )
    defaults.update(overrides)
    return FleetConfig(**defaults)


def quick_policy(**overrides):
    defaults = dict(
        canary_fraction=0.125,
        ramp=(0.5, 1.0),
        wave_interval_s=60.0,
        bake_s=60.0,
    )
    defaults.update(overrides)
    return WavePolicy(**defaults)


def run_fleet(config=None, policy=None, seed=42, jobs=600, horizon=600.0,
              shape="steady", faults=None, mix=FAST_MIX):
    sim = FleetSimulator(
        config or small_config(),
        policy or quick_policy(),
        DeterministicRng(seed),
        faults=faults,
        service_mix=mix,
    )
    trace = make_trace(
        shape, DeterministicRng(seed), requests=jobs, horizon_s=horizon
    )
    return sim.run(trace)


def regression_run():
    """slo_factor below the ARM/x86 duration ratio (~6.8 for is.A):
    every migrated service violates its SLO even unloaded, so the
    canary tanks attainment and the gate must hold the ramp."""
    return run_fleet(
        config=small_config(slo_factor=2.0), jobs=2000, horizon=600.0
    )


def crash_and_degrade_run():
    """One crash inside a link-degradation window, mid-ramp."""
    return run_fleet(faults=FaultSchedule([
        NodeCrash(time=100.0, node=node_name(1), repair_seconds=50.0),
        LinkDegradation(time=80.0, duration=120.0, bandwidth_factor=0.5),
    ]))


def stranded_run():
    """One-node ISAs, both full after the target node dies: services
    on a crashed source node have nowhere to go and shed their
    arrivals until the repair re-places them."""
    config = FleetConfig(
        nodes={"x86-64": 1, "arm64": 1}, slots_per_node=2, services=2,
        slo_factor=24.0,
    )
    policy = quick_policy(bake_s=500.0, wave_interval_s=500.0)
    faults = FaultSchedule([
        NodeCrash(time=10.0, node=node_name(1), permanent=True),
        NodeCrash(time=20.0, node=node_name(0), repair_seconds=100.0),
    ])
    return run_fleet(
        config=config, policy=policy, faults=faults, jobs=200, horizon=400.0,
    )


def failover_run():
    """Source ISA completely full: a crash there cannot evacuate
    same-ISA and must fail over to the other ISA."""
    config = small_config(
        nodes={"x86-64": 2, "arm64": 4}, slots_per_node=2, services=4
    )
    policy = quick_policy(bake_s=500.0, wave_interval_s=500.0)
    faults = FaultSchedule([
        NodeCrash(time=50.0, node=node_name(0), repair_seconds=100.0),
    ])
    return run_fleet(config=config, policy=policy, faults=faults)


class TestWavePolicy:
    def test_canary_out_of_range(self):
        with pytest.raises(ValueError):
            WavePolicy(canary_fraction=0.0)
        with pytest.raises(ValueError):
            WavePolicy(canary_fraction=1.5)

    def test_decreasing_ramp_rejected(self):
        with pytest.raises(ValueError):
            WavePolicy(canary_fraction=0.05, ramp=(0.5, 0.25, 1.0))

    def test_ramp_below_canary_rejected(self):
        with pytest.raises(ValueError):
            WavePolicy(canary_fraction=0.3, ramp=(0.2, 1.0))

    def test_nonpositive_interval_rejected(self):
        with pytest.raises(ValueError):
            WavePolicy(wave_interval_s=0.0)

    def test_negative_bake_rejected(self):
        # Before: the first wave fired at t < 0 and the run died with
        # "clock cannot move backwards".
        with pytest.raises(ValueError, match="bake_s must be >= 0"):
            WavePolicy(bake_s=-5.0)
        assert WavePolicy(bake_s=0.0).wave_times(1.0) == [0.0]

    def test_negative_regression_threshold_rejected(self):
        # Before: every wave paused, even at attainment 1.000.
        with pytest.raises(ValueError, match="regression_threshold must be >= 0"):
            WavePolicy(regression_threshold=-1.0)

    def test_targets_prepend_canary(self):
        policy = WavePolicy(canary_fraction=0.05, ramp=(0.25, 1.0))
        assert policy.targets() == (0.05, 0.25, 1.0)

    def test_wave_times_cadence(self):
        policy = WavePolicy(wave_interval_s=60.0, bake_s=30.0)
        times = policy.wave_times(200.0)
        assert times == [30.0, 90.0, 150.0]

    def test_plan_counts_rounds_half_up(self):
        assert plan_counts((0.05, 0.25, 1.0), 64) == [3, 16, 64]

    def test_plan_counts_final_covers_population(self):
        # 1.0 must always cover everyone despite float rounding.
        assert plan_counts((1.0,), 7)[-1] == 7


class TestFleetConfig:
    def test_missing_isa_rejected(self):
        with pytest.raises(ValueError):
            FleetConfig(nodes={"x86-64": 4}).validate()

    def test_over_capacity_rejected(self):
        config = FleetConfig(
            nodes={"x86-64": 2, "arm64": 2}, slots_per_node=2, services=5
        )
        with pytest.raises(ValueError):
            config.validate()

    def test_migration_cost_positive_and_bw_sensitive(self):
        spec = JobSpec("is", "A", 2)
        fast = migration_penalty(spec, 8e9)
        slow = migration_penalty(spec, 2e9)
        assert 0 < fast < slow

    @pytest.mark.parametrize("overrides, message", [
        (dict(services=0), "at least 1 service"),
        (dict(slots_per_node=0), "slots per node"),
        (dict(nodes={"x86-64": 4, "arm64": 4, "riscv64": -1}),
         "negative node count"),
        # An SLO of zero fails every job: attainment 0.0000.
        (dict(slo_factor=0.0), "slo_factor must be > 0"),
        (dict(slo_factor=-1.0), "slo_factor must be > 0"),
    ])
    def test_empty_fleet_rejected(self, overrides, message):
        with pytest.raises(ValueError, match=message):
            FleetConfig(**overrides).validate()

    def test_node_names_roundtrip(self):
        assert parse_node_name(node_name(17)) == 17
        assert parse_node_name("x86-server") is None
        assert parse_node_name("node-x") is None


class TestDeterminism:
    def test_same_seed_bit_identical(self):
        a = crash_and_degrade_run()
        b = crash_and_degrade_run()
        assert a.checksum() == b.checksum()
        assert a.makespan == b.makespan
        assert a.p999_latency_s == b.p999_latency_s
        assert a.energy_by_machine == b.energy_by_machine
        assert [w.describe() for w in a.waves] == [
            w.describe() for w in b.waves
        ]

    def test_different_seed_differs(self):
        a = run_fleet(seed=42)
        b = run_fleet(seed=43)
        assert a.checksum() != b.checksum()

    # Fixed values, so a change to the per-job path that moves any
    # result fails here, not only in the bench's fact gate.  Together
    # the runs take every per-job branch: shed, out of SLO (only the
    # regression run has violations), and jobs priced after a wave, a
    # same-ISA evacuation, a degraded one and a cross-ISA failover.
    @pytest.mark.parametrize("scenario, checksum, shed", [
        (crash_and_degrade_run, "868aba06ddc15cba", 0),
        (stranded_run, "4af792a9e0ab94ed", 47),
        (failover_run, "4dea699c6b82ff71", 0),
        (regression_run, "78a9ca201bcb9a01", 0),
    ], ids=["crash-and-degrade", "stranded", "failover", "regression"])
    def test_golden_results(self, scenario, checksum, shed):
        result = scenario()
        assert (result.checksum(), result.requests_shed) == (checksum, shed)


class TestInlineDraw:
    """The per-job loop draws each service id inline, the way
    ``Random.randrange(n)`` does: ``n.bit_length()`` random bits,
    redrawn until the value is below ``n``.  That mirrors a CPython
    implementation detail, so pin it on the running interpreter."""

    @pytest.mark.parametrize("n", [1, 2, 3, 192, 1500, 2**20, 2**20 + 1])
    def test_inline_draw_matches_randrange(self, n):
        reference = random.Random(1234)
        inline = random.Random(1234)
        bits = n.bit_length()
        for _ in range(500):
            value = inline.getrandbits(bits)
            while value >= n:
                value = inline.getrandbits(bits)
            assert value == reference.randrange(n)

    def test_simulator_assigns_like_randrange(self):
        # Three services: two bits per draw, and every draw of 3 is
        # redrawn.  No crash, so every job completes on its service.
        config = small_config(
            nodes={"x86-64": 2, "arm64": 2}, slots_per_node=2, services=3
        )
        sim = FleetSimulator(
            config, quick_policy(), DeterministicRng(5), service_mix=FAST_MIX
        )
        sim.run(make_trace(
            "steady", DeterministicRng(5), requests=900, horizon_s=600.0
        ))
        assign = DeterministicRng(5).stream("fleet.assign")
        expected = Counter(assign.randrange(3) for _ in range(900))
        assert sim._jobs_done == [expected[sid] for sid in range(3)]


class TestMigrationWaves:
    def test_ramp_completes_under_light_load(self):
        result = run_fleet()
        assert result.services_migrated == 16
        assert result.paused_waves == 0
        # Everyone ends on the target ISA, jobs follow them there.
        assert result.jobs_by_isa["arm64"] > 0

    def test_job_conservation(self):
        result = run_fleet()
        assert result.requests == 600
        assert result.requests_completed + result.requests_shed == 600
        in_slo = round(result.slo_attainment * result.requests)
        assert in_slo + result.slo_violations == result.requests_completed

    def test_migration_stall_accounted(self):
        result = run_fleet()
        assert result.migrations == 16
        assert result.migration_stall_seconds > 0
        assert result.migration_stall_seconds == pytest.approx(
            sum(w.stall_seconds for w in result.waves)
        )

    def test_pause_on_regression(self):
        result = regression_run()
        assert result.paused_waves > 0
        assert result.services_migrated < result.services

    def test_deferred_when_target_full(self):
        # Target ISA has exactly as many slots as services, but one
        # target node is down at wave time: the wave defers the
        # remainder, then finishes after the repair.
        config = small_config(
            nodes={"x86-64": 4, "arm64": 4}, slots_per_node=4, services=16
        )
        faults = FaultSchedule([
            NodeCrash(time=10.0, node=node_name(7), repair_seconds=300.0),
        ])
        result = run_fleet(config=config, faults=faults)
        assert result.deferred_migrations > 0
        assert result.services_migrated == 16  # completes post-repair


class TestFaults:
    def test_crash_evacuates_without_loss(self):
        faults = FaultSchedule([
            NodeCrash(time=100.0, node=node_name(0), repair_seconds=100.0),
        ])
        result = run_fleet(faults=faults)
        assert result.crashes == 1 and result.repairs == 1
        assert result.evacuations > 0
        assert result.requests_shed == 0  # evacuate-live: no work lost
        assert result.requests_completed == result.requests

    def test_cross_isa_failover(self):
        result = failover_run()
        assert result.failovers > 0
        assert result.requests_shed == 0

    def test_stranded_service_sheds_until_repair(self):
        result = stranded_run()
        assert result.requests_shed > 0
        assert result.requests_completed + result.requests_shed == result.requests
        assert result.stranded_services == 0  # repair re-placed them

    def test_degradation_inflates_stall(self):
        base = run_fleet()
        degraded = run_fleet(faults=FaultSchedule([
            LinkDegradation(time=0.0, duration=600.0, bandwidth_factor=0.1),
        ]))
        assert (
            degraded.migration_stall_seconds > base.migration_stall_seconds
        )

    def test_overlapping_degradations_end_undegraded(self):
        # Two overlapping windows compound while open; once both have
        # closed, an evacuation pays the undegraded price exactly.
        faults = FaultSchedule([
            LinkDegradation(time=10.0, duration=50.0, bandwidth_factor=0.6),
            LinkDegradation(time=20.0, duration=50.0, bandwidth_factor=0.9),
            NodeCrash(time=100.0, node=node_name(0), repair_seconds=100.0),
        ])
        sim = FleetSimulator(
            small_config(), quick_policy(bake_s=1000.0), DeterministicRng(42),
            faults=faults, service_mix=DEFAULT_SERVICE_MIX,
        )
        sim.run(make_trace("steady", DeterministicRng(42), requests=600,
                           horizon_s=600.0))
        assert sim.membership.degradations == []
        evacuated = [inst for inst in sim.services if inst.migrations]
        assert {str(inst.spec) for inst in evacuated} >= {"ep.Ax2", "redis.Ax2"}
        for inst in evacuated:
            assert inst.migrations == 1
            assert inst.stall_seconds == migration_penalty(
                inst.spec, DEFAULT_INTERCONNECT_BW
            )

    def test_partition_rejected(self):
        with pytest.raises(ValueError, match="NetworkPartition"):
            run_fleet(faults=FaultSchedule([
                NetworkPartition(time=10.0, duration=50.0,
                                 island=("node-0",)),
            ]))

    def test_unknown_node_rejected(self):
        with pytest.raises(ValueError, match="unknown fleet node"):
            run_fleet(faults=FaultSchedule([
                NodeCrash(time=10.0, node="x86-server"),
            ]))


class TestValidatedRun:
    def test_conservation_at_1k_nodes(self):
        # The scale target with the invariant checker armed: slot
        # conservation, placement consistency and counter conservation
        # hold at every wave, crash and repair across a 1024-node
        # fleet.
        config = FleetConfig(
            nodes={"x86-64": 512, "arm64": 512},
            slots_per_node=4,
            services=1500,
        )
        policy = WavePolicy(
            canary_fraction=0.05, ramp=(0.25, 0.5, 1.0),
            wave_interval_s=600.0, bake_s=1800.0,
        )
        faults = FaultSchedule([
            NodeCrash(time=2000.0, node=node_name(3), repair_seconds=900.0),
        ])
        from repro.telemetry.validation import reset_default_log

        log = reset_default_log()
        validate.set_enabled(True)
        try:
            sim = FleetSimulator(
                config, policy, DeterministicRng(11), faults=faults
            )
            assert sim._checker is not None
            trace = make_trace(
                "steady", DeterministicRng(11),
                requests=50_000, horizon_s=86_400.0,
            )
            result = sim.run(trace)
        finally:
            validate.set_enabled(None)
        assert log.checks["fleet"] > 0 and not log.violations
        assert result.requests_completed + result.requests_shed == 50_000
        assert result.services_migrated == 1500

    def test_checker_off_when_disabled(self):
        validate.set_enabled(False)
        try:
            sim = FleetSimulator(
                small_config(), quick_policy(), DeterministicRng(1)
            )
        finally:
            validate.set_enabled(None)
        assert sim._checker is None


class TestRunMemory:
    def test_run_peak_per_job(self):
        """What a run adds on top of its trace, at 200k steady jobs on
        a 32-node fleet.  Each job keeps one latency float (32 B with
        its list slot); the run sorts that list in place for the
        percentiles instead of copying it: with ``percentiles()``'s
        sorted copy the run peaked at 44.0 B/job, sorted in place it
        peaks at 36.0."""
        jobs = 200_000
        sim = FleetSimulator(
            small_config(nodes={"x86-64": 16, "arm64": 16}, services=64),
            quick_policy(),
            DeterministicRng(1),
            service_mix=FAST_MIX,
        )
        trace = make_trace(
            "steady", DeterministicRng(1), requests=jobs, horizon_s=600.0
        )
        result, _, peak = traced_memory(lambda: sim.run(trace))
        assert result.requests == jobs
        assert peak / jobs <= 40.0


class TestNestedFleet:
    def test_nested_durations_change_results(self):
        from repro.datacenter.nested import NestedNodeSampler

        sampler = NestedNodeSampler()
        analytic = run_fleet(jobs=200)
        nested_sim = FleetSimulator(
            small_config(), quick_policy(), DeterministicRng(42),
            service_mix=FAST_MIX, nested=sampler,
        )
        trace = make_trace(
            "steady", DeterministicRng(42), requests=200, horizon_s=600.0
        )
        nested = nested_sim.run(trace)
        assert nested.requests_completed == analytic.requests_completed
        # Measured durations differ from analytic ones but stay in the
        # same regime, so latency shifts without changing the story.
        assert nested.p50_latency_s != analytic.p50_latency_s
        assert 0.5 < nested.p50_latency_s / analytic.p50_latency_s < 2.0


class TestReport:
    def test_render_mentions_waves_and_isas(self):
        result = run_fleet()
        text = render_result(result)
        assert "wave" in text
        assert "arm64" in text and "x86-64" in text
        assert "migrated" in text

    def test_default_mix_exported(self):
        assert JobSpec("ep", "A", 2) in DEFAULT_SERVICE_MIX


class TestFleetCli:
    def test_fleet_smoke(self, capsys):
        from repro.cli import main

        rc = main([
            "fleet", "--x86-nodes", "4", "--arm-nodes", "4",
            "--services", "8", "--jobs", "300", "--horizon", "600",
            "--seed", "7",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "migrated" in out

    def test_fleet_crash_flag(self, capsys):
        from repro.cli import main

        rc = main([
            "fleet", "--x86-nodes", "4", "--arm-nodes", "4",
            "--services", "8", "--jobs", "300", "--horizon", "600",
            "--seed", "7", "--crash", "1",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "crash" in out.lower()

    def test_fleet_bad_config_exits_2(self):
        from repro.cli import main

        rc = main([
            "fleet", "--x86-nodes", "1", "--arm-nodes", "1",
            "--slots", "1", "--services", "99",
        ])
        assert rc == 2

    def test_fleet_empty_fleet_exits_2(self, capsys):
        from repro.cli import main

        assert main(["fleet", "--services", "0"]) == 2
        assert "at least 1 service" in capsys.readouterr().err

    def test_fleet_crash_outside_fleet_exits_2(self, capsys):
        from repro.cli import main

        rc = main([
            "fleet", "--x86-nodes", "4", "--arm-nodes", "4",
            "--services", "8", "--crash", "8",
        ])
        assert rc == 2
        assert "fault names unknown fleet node 'node-8'" in (
            capsys.readouterr().err
        )
