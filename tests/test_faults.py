"""Fault injection and failure recovery (repro.faults)."""

import pytest

from repro.datacenter import (
    ClusterSimulator,
    Job,
    JobSpec,
    make_policy,
    periodic_waves,
    sustained_backfill,
)
from repro.faults import (
    CheckpointRestart,
    DeliveryTimeout,
    EvacuateLive,
    FailStop,
    FaultSchedule,
    FaultyMessagingLayer,
    LinkDegradation,
    NetworkPartition,
    NodeCrash,
    NodeRepair,
    RetryPolicy,
    degraded_window,
    make_recovery,
    random_crash_schedule,
    single_crash,
)
from repro.kernel.messages import MessagingLayer
from repro.machine import make_xeon_e5_1650v2, make_xgene1
from repro.machine.interconnect import make_dolphin_pxh810
from repro.sim.rng import DeterministicRng

A, B = "kernel-a", "kernel-b"


def het_machines():
    return [make_xgene1("arm"), make_xeon_e5_1650v2("x86")]


def x86_pair():
    return [make_xeon_e5_1650v2("x86-1"), make_xeon_e5_1650v2("x86-2")]


def sustained_run(machines, seed=11, jobs=20, conc=4, **sim_kwargs):
    specs, concurrency = sustained_backfill(DeterministicRng(seed), jobs, conc)
    sim = ClusterSimulator(machines, make_policy("dynamic-balanced"), **sim_kwargs)
    return sim.run_sustained(specs, concurrency)


def _build_cluster(faults):
    return ClusterSimulator(
        het_machines(), make_policy("dynamic-balanced"), faults=faults
    )


def _build_serving(faults):
    from repro.serving import ServingEngine, make_serving_policy, make_trace

    trace = make_trace("steady", DeterministicRng(1), requests=10, horizon_s=1.0)
    return ServingEngine(
        make_serving_policy("latency-aware"), trace,
        machines=het_machines(), faults=faults,
    )


class TestUnknownFaultNodes:
    """A schedule naming a node the simulator lacks fails when the
    simulator is built, not mid-run (or never, for a partition)."""

    @pytest.mark.parametrize("build", [_build_cluster, _build_serving],
                             ids=["cluster", "serving"])
    @pytest.mark.parametrize("event", [
        NodeCrash(10.0, "nope"),
        NodeRepair(10.0, "nope"),
        NetworkPartition(10.0, 50.0, ("arm", "nope")),
    ], ids=["crash", "repair", "partition"])
    def test_rejected_at_build(self, build, event):
        with pytest.raises(ValueError, match=r"\['nope'\]"):
            build(FaultSchedule([event]))


class TestFaultSchedule:
    def test_sorted_and_immutable(self):
        sched = FaultSchedule(
            [NodeCrash(10.0, "b"), NodeCrash(5.0, "a"), NodeCrash(7.0, "c")]
        )
        assert [e.time for e in sched] == [5.0, 7.0, 10.0]
        assert len(sched) == 3 and bool(sched)

    def test_empty(self):
        sched = FaultSchedule(())
        assert sched.empty and not sched and len(sched) == 0

    def test_merged(self):
        a = single_crash(5.0, "x86")
        b = degraded_window(2.0, 4.0)
        merged = a.merged(b)
        assert len(merged) == 2
        assert merged.events[0].kind == "degrade"

    def test_random_schedule_deterministic(self):
        kwargs = dict(nodes=["arm", "x86"], horizon_s=300.0, crashes=3)
        a = random_crash_schedule(DeterministicRng(7), **kwargs)
        b = random_crash_schedule(DeterministicRng(7), **kwargs)
        assert a.events == b.events
        assert all(0.0 <= e.time <= 300.0 for e in a)

    def test_random_schedule_needs_nodes(self):
        with pytest.raises(ValueError):
            random_crash_schedule(DeterministicRng(1), [], 10.0)


BAD_NUMBERS = [-1.0, float("inf"), float("nan")]


class TestMalformedEventsFailWhenBuilt:
    """Each fault event checks its fields in ``__post_init__``, so a bad
    schedule fails the same way in all three simulators: at once."""

    @pytest.mark.parametrize("time", BAD_NUMBERS)
    def test_time(self, time):
        for build in (
            lambda: NodeCrash(time, "x86"),
            lambda: NodeRepair(time, "x86"),
            lambda: LinkDegradation(time, 1.0),
            lambda: NetworkPartition(time, 1.0, ("x86",)),
        ):
            with pytest.raises(ValueError, match=r"\.time must be finite and >= 0"):
                build()

    @pytest.mark.parametrize("duration", BAD_NUMBERS + [0.0])
    def test_duration(self, duration):
        with pytest.raises(ValueError, match="duration must be finite and > 0"):
            LinkDegradation(1.0, duration)
        with pytest.raises(ValueError, match="duration must be finite and > 0"):
            NetworkPartition(1.0, duration, ("x86",))

    @pytest.mark.parametrize("repair", BAD_NUMBERS)
    def test_repair_seconds(self, repair):
        with pytest.raises(ValueError, match="repair_seconds must be finite and >= 0"):
            NodeCrash(1.0, "x86", repair_seconds=repair)

    @pytest.mark.parametrize("factor", [0.0, -0.5, float("nan")])
    def test_bandwidth_factor(self, factor):
        with pytest.raises(ValueError, match="bandwidth_factor must be > 0"):
            LinkDegradation(1.0, 1.0, bandwidth_factor=factor)

    @pytest.mark.parametrize("factor", [0.0, -2.0, float("nan")])
    def test_latency_factor(self, factor):
        with pytest.raises(ValueError, match="latency_factor must be > 0"):
            LinkDegradation(1.0, 1.0, latency_factor=factor)

    def test_island(self):
        with pytest.raises(ValueError, match="island must be non-empty"):
            NetworkPartition(1.0, 1.0, ())

    def test_boundary_values_are_accepted(self):
        NodeCrash(0.0, "x86", repair_seconds=0.0)
        NodeRepair(0.0, "x86")
        LinkDegradation(0.0, 1e-9, bandwidth_factor=1e-9, latency_factor=1e-9)
        NetworkPartition(0.0, 1e-9, ("x86",))


class TestFaultyMessaging:
    def _lossless_pair(self):
        plain = MessagingLayer(make_dolphin_pxh810())
        inner = MessagingLayer(make_dolphin_pxh810())
        faulty = FaultyMessagingLayer(inner, DeterministicRng(1))
        return plain, faulty

    def test_lossless_identical_to_plain(self):
        plain, faulty = self._lossless_pair()
        for kind, nbytes in (("a", 100), ("b", 4096), ("c", 0)):
            assert faulty.send(kind, A, B, nbytes) == plain.send(kind, A, B, nbytes)
        assert faulty.rpc("d", A, B, 32, 4096) == plain.rpc("d", A, B, 32, 4096)
        assert faulty.counts == plain.counts
        assert faulty.fault_stats() == {"dropped": 0, "corrupted": 0, "retries": 0}

    def test_local_send_free(self):
        _, faulty = self._lossless_pair()
        faulty.loss_probability = 1.0
        assert faulty.send("x", A, A, 100) == 0.0  # never dropped

    def test_loss_charges_retry_and_backoff(self):
        inner = MessagingLayer(make_dolphin_pxh810())
        faulty = FaultyMessagingLayer(
            inner,
            DeterministicRng(2),
            loss_probability=0.5,
            retry=RetryPolicy(max_retries=40),
        )
        baseline = MessagingLayer(make_dolphin_pxh810()).send("x", A, B, 256)
        total = 0.0
        for _ in range(50):
            total += faulty.send("x", A, B, 256)
        assert faulty.dropped > 0 and faulty.retries > 0
        # Lost attempts charge timeout + backoff on top of the wire.
        assert total > 50 * baseline
        # Every attempt (retries included) hit the shared wire counters.
        assert inner.counts["x"] == 50 + faulty.retries

    def test_certain_loss_times_out(self):
        faulty = FaultyMessagingLayer(
            MessagingLayer(make_dolphin_pxh810()),
            DeterministicRng(3),
            loss_probability=1.0,
            retry=RetryPolicy(max_retries=2),
        )
        with pytest.raises(DeliveryTimeout):
            faulty.send("x", A, B, 64)
        assert faulty.dropped == 3  # initial attempt + 2 retries

    def test_corruption_counted_and_retried(self):
        faulty = FaultyMessagingLayer(
            MessagingLayer(make_dolphin_pxh810()),
            DeterministicRng(4),
            corruption_probability=0.5,
            retry=RetryPolicy(max_retries=40),
        )
        for _ in range(40):
            faulty.send("x", A, B, 64)
        assert faulty.corrupted > 0
        assert faulty.retries == faulty.corrupted

    def test_deterministic_given_seed(self):
        def run():
            faulty = FaultyMessagingLayer(
                MessagingLayer(make_dolphin_pxh810()),
                DeterministicRng(5),
                loss_probability=0.3,
            )
            return [faulty.send("x", A, B, 128) for _ in range(20)]

        assert run() == run()

    def test_bad_probability_rejected(self):
        with pytest.raises(ValueError):
            FaultyMessagingLayer(
                MessagingLayer(make_dolphin_pxh810()),
                DeterministicRng(1),
                loss_probability=1.5,
            )


class TestZeroFaultPath:
    def test_empty_schedule_bit_identical(self):
        plain = sustained_run(het_machines())
        wired = sustained_run(
            het_machines(),
            faults=FaultSchedule(()),
            recovery=CheckpointRestart(30.0),
        )
        assert wired.makespan == plain.makespan
        assert wired.energy_by_machine == plain.energy_by_machine
        assert wired.migrations == plain.migrations
        assert wired.mean_response == plain.mean_response
        assert wired.fault_events == 0 and wired.fault_trace == []

    def test_periodic_empty_schedule_bit_identical(self):
        arrivals = periodic_waves(DeterministicRng(3))
        plain = ClusterSimulator(
            het_machines(), make_policy("dynamic-balanced")
        ).run_periodic(list(arrivals))
        wired = ClusterSimulator(
            het_machines(), make_policy("dynamic-balanced"),
            faults=FaultSchedule(()), recovery=EvacuateLive(),
        ).run_periodic(list(arrivals))
        assert wired.makespan == plain.makespan
        assert wired.energy_by_machine == plain.energy_by_machine
        assert wired.mean_response == plain.mean_response


class TestNodeIndex:
    def test_node_of_uses_index(self):
        sim = ClusterSimulator(het_machines(), make_policy("dynamic-balanced"))
        assert sim._node_index["x86"] is sim.nodes[1]
        job = Job(JobSpec("is", "A", 2), 0.0)
        sim.start_job(job, sim.nodes[0])
        assert sim._node_of(job) is sim.nodes[0]

    def test_unknown_machine_raises(self):
        sim = ClusterSimulator(het_machines(), make_policy("dynamic-balanced"))
        job = Job(JobSpec("is", "A", 2), 0.0)
        job.machine = "nope"
        with pytest.raises(KeyError):
            sim._node_of(job)

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError):
            ClusterSimulator(
                [make_xgene1("n"), make_xeon_e5_1650v2("n")],
                make_policy("dynamic-balanced"),
            )


class TestEvacuateLive:
    def test_crash_evacuates_and_completes(self):
        result = sustained_run(
            het_machines(),
            faults=single_crash(5.0, "x86", repair_seconds=20.0),
            recovery=EvacuateLive(),
        )
        assert result.jobs_evacuated > 0
        assert result.requests_failed == 0
        assert result.lost_work_seconds == 0.0  # live migration keeps progress
        kinds = {e.kind for e in result.fault_trace}
        assert {"crash", "evacuate", "repair"} <= kinds
        assert result.mttr == pytest.approx(20.0)

    def test_permanent_crash_survivor_finishes_everything(self):
        result = sustained_run(
            het_machines(),
            faults=single_crash(5.0, "x86", permanent=True),
            recovery=EvacuateLive(),
        )
        assert result.requests_failed == 0
        assert result.jobs_evacuated > 0
        assert result.mttr == 0.0  # never repaired
        # Only the ARM board burns energy after the crash.
        assert result.energy_by_machine["arm"] > 0

    def test_default_recovery_is_evacuate(self):
        result = sustained_run(
            het_machines(),
            faults=single_crash(5.0, "x86", repair_seconds=20.0),
        )
        assert result.jobs_evacuated > 0 and result.requests_failed == 0


class TestCheckpointRestart:
    def test_same_isa_restart_loses_work(self):
        result = sustained_run(
            x86_pair(),
            faults=single_crash(5.0, "x86-1", repair_seconds=30.0),
            recovery=CheckpointRestart(2.0),
        )
        assert result.jobs_restarted > 0
        assert result.requests_failed == 0
        assert result.lost_work_seconds > 0.0
        kinds = {e.kind for e in result.fault_trace}
        assert "restart" in kinds
        # A same-ISA twin was up: no cross-ISA denial needed.
        assert "cross-isa-denied" not in kinds

    def test_cross_isa_denied_then_requeued(self):
        result = sustained_run(
            het_machines(),
            faults=single_crash(5.0, "x86", repair_seconds=15.0),
            recovery=CheckpointRestart(2.0),
        )
        kinds = {e.kind for e in result.fault_trace}
        assert {"cross-isa-denied", "park", "repair", "restart"} <= kinds
        assert result.jobs_restarted > 0
        assert result.requests_failed == 0
        # The x86 image is denied on the one live node, the ARM board,
        # and the entry says why.
        denied = next(e for e in result.fault_trace if e.kind == "cross-isa-denied")
        assert denied.node == "arm"
        assert denied.detail == (
            "checkpoint of ft.Bx4 is x86_64 machine state; cannot restore "
            "on arm (arm64) — register files, stack frames and code "
            "addresses do not translate"
        )

    def test_bad_interval_rejected(self):
        with pytest.raises(ValueError):
            CheckpointRestart(0.0)

    def test_registry(self):
        assert make_recovery("evacuate-live").name == "evacuate-live"
        assert make_recovery("checkpoint-restart", interval_s=5.0).interval_s == 5.0
        with pytest.raises(KeyError):
            make_recovery("pray")


class TestFailStop:
    def test_jobs_lost_on_crash(self):
        result = sustained_run(
            het_machines(),
            faults=single_crash(5.0, "x86", repair_seconds=20.0),
            recovery=FailStop(),
        )
        assert result.requests_failed > 0
        # The closed system backfills the freed slots, so every spec is
        # either finished or lost.
        assert result.requests == 20

    def test_all_nodes_permanently_down_abandons(self):
        result = sustained_run(
            het_machines(),
            faults=FaultSchedule(
                [
                    NodeCrash(5.0, "x86", permanent=True),
                    NodeCrash(6.0, "arm", permanent=True),
                ]
            ),
            recovery=EvacuateLive(),
        )
        # Evacuation target disappears too: parked jobs are abandoned
        # instead of hanging the event loop.
        assert result.requests_failed > 0
        assert "lost" in {e.kind for e in result.fault_trace}
        # The jobs never admitted are lost with them, not dropped.
        assert result.requests == 20
        assert result.requests == (
            result.requests_completed
            + result.requests_shed
            + result.requests_failed
        )


class TestDegradationAndPartition:
    def test_degradation_inflates_migration_cost(self):
        base = sustained_run(het_machines())
        slow = sustained_run(
            het_machines(),
            faults=degraded_window(0.0, 1e9, bandwidth_factor=0.01),
            recovery=EvacuateLive(),
        )
        assert slow.fault_events >= 1
        assert base.migrations > 0
        # Same schedule of policy decisions, ~100x pricier DSM pulls.
        assert slow.overhead_seconds > base.overhead_seconds

    def test_partition_blocks_migration(self):
        base = sustained_run(het_machines())
        cut = sustained_run(
            het_machines(),
            faults=FaultSchedule(
                [NetworkPartition(0.0, 1e9, island=("arm",))]
            ),
            recovery=EvacuateLive(),
        )
        assert base.migrations > 0
        assert cut.migrations == 0
        assert "blocked" in {e.kind for e in cut.fault_trace}

    def test_degradation_window_ends(self):
        result = sustained_run(
            het_machines(),
            faults=degraded_window(1.0, 2.0, bandwidth_factor=0.5),
            recovery=EvacuateLive(),
        )
        kinds = {e.kind for e in result.fault_trace}
        assert {"degrade", "degrade-end"} <= kinds


class TestDeterminism:
    def test_same_seed_same_schedule_identical_result(self):
        def run():
            return sustained_run(
                het_machines(),
                seed=42,
                faults=single_crash(4.0, "x86", repair_seconds=10.0),
                recovery=CheckpointRestart(3.0),
            )

        a, b = run(), run()
        assert a == b  # full dataclass equality, fault trace included

    def test_goodput_and_busy_seconds_populated(self):
        result = sustained_run(het_machines())
        assert result.busy_seconds > 0
        assert result.goodput > 0
        assert result.fault_events == 0


class TestReport:
    def test_render_comparison_and_timeline(self):
        from repro.faults import render_fault_timeline, render_recovery_comparison

        faulty = sustained_run(
            het_machines(),
            faults=single_crash(5.0, "x86", repair_seconds=20.0),
            recovery=EvacuateLive(),
        )
        plain = sustained_run(het_machines())
        text = render_recovery_comparison(
            {"fault-free": plain, "evacuate-live": faulty}
        )
        assert "goodput" in text and "evacuate-live" in text
        timeline = render_fault_timeline(faulty)
        assert "crash" in timeline and "evacuate" in timeline
        empty = render_fault_timeline(plain)
        assert "no fault events" in empty
