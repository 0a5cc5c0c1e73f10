"""The shared membership view (`repro.faults.membership`).

Unit-tests the view's transitions and hearing rules, then checks that
the cluster and serving simulators, which both keep their liveness in
it, render the same verdicts for the same fault schedule.
"""

import pytest

from repro.datacenter import ClusterSimulator, make_policy, sustained_backfill
from repro.faults import (
    DetectorConfig,
    FailureDetector,
    FaultSchedule,
    LinkDegradation,
    Membership,
    NetworkPartition,
    NodeCrash,
    NodeRepair,
)
from repro.faults.detector import SUSPECT
from repro.faults.membership import DEAD, FENCE, REJOIN
from repro.machine import make_xeon_e5_1650v2, make_xgene1
from repro.serving import ServingEngine, make_serving_policy, make_trace
from repro.sim.rng import DeterministicRng
from repro.telemetry.spans import Tracer

A, B, C = "a", "b", "c"
FAST = DetectorConfig(heartbeat_period_s=0.1, lease_s=0.2)


def _rounds(view, start, count):
    """Drive ``count`` heartbeat rounds, FAST-period apart."""
    events = []
    for i in range(count):
        now = round(start + i * FAST.heartbeat_period_s, 9)
        events += [(e, n) for e, n in view.heartbeat(now)]
    return events


class TestTransitions:
    def test_crash_confirm_repair(self):
        view = Membership([A, B])
        assert view.crash(A, 1.0) and not view.crash(A, 1.5)
        assert not view.up[A] and not view.alive(A)
        assert view.crashed_at(A) == 1.0
        assert view.confirm(A, 3.5) == DEAD
        assert view.fenced == {A} and view.mttd == pytest.approx(2.5)
        assert view.ostracised() == []  # dead nodes cannot rejoin
        assert view.repair(A, 11.0) and not view.repair(A, 12.0)
        assert view.up[A] and view.fenced == set()
        assert view.mttr == pytest.approx(10.0)

    def test_false_confirm_fences_a_live_node(self):
        view = Membership([A, B], FailureDetector(FAST))
        assert view.confirm(B, 2.0) == FENCE
        assert not view.up[B] and view.alive(B)
        assert view.ostracised() == [B] and view.settling()
        assert view.mttd_samples == []  # nothing died

    def test_repair_reboots_a_fenced_live_node(self):
        view = Membership([A, B], FailureDetector(FAST))
        view.confirm(B, 2.0)
        assert view.repair(B, 3.0)
        assert view.up[B] and view.ostracised() == []
        assert view.mttr_samples == []  # it never crashed

    def test_crash_while_fenced_blocks_the_rejoin(self):
        view = Membership([A, B], FailureDetector(FAST))
        view.confirm(B, 2.0)
        assert view.crash(B, 2.5)
        assert list(view.rejoins(3.0)) == [] and B in view.fenced
        assert view.ostracised() == []


class TestHearing:
    def test_reachability_and_bandwidth(self):
        view = Membership([A, B, C])
        view.islands.append((A,))
        assert not view.reachable(A, B) and view.reachable(B, C)
        view.degradations += [
            LinkDegradation(0.0, 1.0, bandwidth_factor=0.5),
            LinkDegradation(0.0, 1.0, bandwidth_factor=0.25),
        ]
        assert view.bandwidth(8.0) == 1.0

    @pytest.mark.parametrize(
        "nodes, island, observer, unheard",
        [
            ([A, B, C], (A,), None, [A]),
            ([A, B, C], (B, C), None, [A]),  # the island is the majority
            ([A, B], (A,), None, [B]),  # tie: the cell holding "a" counts
            ([A, B], (A,), "front-end", [A]),
            ([A, B, C], (B, C), "front-end", [B, C]),
        ],
    )
    def test_who_goes_unheard(self, nodes, island, observer, unheard):
        view = Membership(nodes, FailureDetector(FAST), observer=observer)
        view.islands.append(island)
        suspects = [n for e, n in _rounds(view, 0.1, 3) if e == SUSPECT]
        assert suspects == unheard

    def test_latency_stretch_silences_everyone(self):
        view = Membership([A, B], FailureDetector(FAST))
        view.degradations.append(LinkDegradation(0.0, 9.0, latency_factor=8.0))
        suspects = [n for e, n in _rounds(view, 0.1, 3) if e == SUSPECT]
        assert suspects == [A, B]

    def test_round_rejoins_before_the_detector_observes(self):
        view = Membership([A, B], FailureDetector(FAST))
        view.islands.append((B,))
        assert _rounds(view, 0.1, 5) == [(SUSPECT, B), (FENCE, B)]
        assert not view.up[B] and view.settling()
        view.islands.clear()
        before = view.detector.stats.heartbeats
        seen = [
            (e, n, view.detector.stats.heartbeats)
            for e, n in view.heartbeat(0.6)
        ]
        assert seen == [(REJOIN, B, before)]
        assert view.detector.stats.heartbeats == before + 2
        assert view.up[B] and not view.settling()


# ------------------------------------------- one view, two simulators


def _machines():
    return [make_xgene1("arm"), make_xeon_e5_1650v2("x86")]


def _run_both(events):
    cluster = ClusterSimulator(
        _machines(), make_policy("dynamic-balanced"),
        faults=FaultSchedule(events), detector=FailureDetector(FAST),
    )
    specs, conc = sustained_backfill(DeterministicRng(5), 8, 4)
    result = cluster.run_sustained(specs, conc)
    tracer = Tracer()
    engine = ServingEngine(
        make_serving_policy("latency-aware"),
        make_trace("flash-crowd", DeterministicRng(7), requests=400,
                   horizon_s=3.0),
        machines=_machines(), faults=FaultSchedule(events),
        detector=FailureDetector(FAST), tracer=tracer,
    )
    served = engine.run()
    return (cluster, result), (engine, served, tracer)


def _verdicts(sim):
    s = sim.detector.stats
    return s.suspicions, s.false_suspicions, s.confirms, s.false_confirms


class TestOneViewTwoSimulators:
    """x86 is cut off: the cluster's majority (the cell holding "arm")
    and the serving front end both stop hearing it."""

    PARTITION = NetworkPartition(0.55, 1.0, island=("x86",))

    def test_false_confirm_then_rejoin(self):
        (cluster, result), (engine, _, _) = _run_both([self.PARTITION])
        for sim in (cluster, engine):
            assert _verdicts(sim) == (1, 1, 1, 1)
            assert all(sim.membership.up.values())
            assert not sim.membership.fenced
        kinds = [e.kind for e in result.fault_trace]
        assert kinds.count("fence") == kinds.count("rejoin") == 1

    def test_repair_reboots_the_fenced_node_in_both(self):
        # The repair lands while x86 is fenced but still cut off: it
        # comes back with a fresh lease, is suspected again, and is
        # heard once the partition heals.
        events = [self.PARTITION, NodeRepair(1.2, "x86")]
        (cluster, result), (engine, _, tracer) = _run_both(events)
        for sim in (cluster, engine):
            assert _verdicts(sim) == (2, 2, 1, 1)
            assert all(sim.membership.up.values())
        assert "repair" in {e.kind for e in result.fault_trace}
        assert tracer.metrics.snapshot()["serve.node_repairs"] == 1

    def test_crash_of_a_dead_node_brings_no_repair(self):
        # The second crash finds x86 already (permanently) dead: it is
        # a no-op, so its repair must not bring the machine back.
        events = [
            NodeCrash(0.55, "x86", permanent=True),
            NodeCrash(1.0, "x86", repair_seconds=0.5),
        ]
        (cluster, result), (engine, _, tracer) = _run_both(events)
        for sim in (cluster, engine):
            assert not sim.membership.up["x86"]
        assert "repair" not in {e.kind for e in result.fault_trace}
        assert "serve.node_repairs" not in tracer.metrics.snapshot()

    def test_crash_is_detected_at_the_same_latency(self):
        events = [NodeCrash(0.55, "x86", repair_seconds=2.0)]
        (cluster, result), (engine, served, _) = _run_both(events)
        for sim in (cluster, engine):
            assert _verdicts(sim) == (1, 0, 1, 0)
        assert result.mttd == pytest.approx(served.mttd)
        assert result.mttd == pytest.approx(0.45)
