"""Datacenter scheduling tests: job model, policies, cluster DES."""

import pytest

from repro.datacenter import (
    ClusterSimulator,
    Job,
    JobSpec,
    POLICIES,
    make_policy,
    periodic_waves,
    summarize_runs,
    sustained_backfill,
    uniform_job_mix,
)
from repro.datacenter.job import job_duration, migration_penalty
from repro.machine import make_xeon_e5_1650v2, make_xgene1
from repro.sim.rng import DeterministicRng


def het_machines():
    return [make_xgene1("arm"), make_xeon_e5_1650v2("x86")]


def x86_pair():
    return [make_xeon_e5_1650v2("x86-1"), make_xeon_e5_1650v2("x86-2")]


class TestJobModel:
    def test_duration_positive(self):
        spec = JobSpec("is", "A", 4)
        for machine in het_machines():
            assert job_duration(spec, machine) > 0

    def test_arm_slower(self):
        spec = JobSpec("cg", "B", 4)
        arm, x86 = het_machines()
        ratio = job_duration(spec, arm) / job_duration(spec, x86)
        assert 3.0 < ratio < 8.0

    def test_threads_speed_up(self):
        arm, x86 = het_machines()
        serial = job_duration(JobSpec("ep", "B", 1), x86)
        parallel = job_duration(JobSpec("ep", "B", 4), x86)
        assert parallel < serial / 2

    def test_threads_capped_by_cores(self):
        _, x86 = het_machines()
        d8 = job_duration(JobSpec("ep", "B", 8), x86)
        d6 = job_duration(JobSpec("ep", "B", 6), x86)
        assert d8 == pytest.approx(d6)  # only 6 cores

    def test_redis_barely_scales(self):
        _, x86 = het_machines()
        d1 = job_duration(JobSpec("redis", "A", 1), x86)
        d4 = job_duration(JobSpec("redis", "A", 4), x86)
        assert d4 > 0.7 * d1

    def test_migration_penalty_scales_with_footprint(self):
        small = migration_penalty(JobSpec("ep", "A", 1), 8e9)
        big = migration_penalty(JobSpec("ft", "C", 1), 8e9)
        assert big > small > 0


class TestArrivals:
    def test_uniform_mix_deterministic(self):
        a = uniform_job_mix(DeterministicRng(5), 10)
        b = uniform_job_mix(DeterministicRng(5), 10)
        assert a == b

    def test_sustained_shape(self):
        specs, concurrency = sustained_backfill(DeterministicRng(1), 40, 6)
        assert len(specs) == 40
        assert concurrency == 6

    def test_periodic_waves_shape(self):
        arrivals = periodic_waves(DeterministicRng(1))
        times = [t for t, _ in arrivals]
        assert times == sorted(times)
        distinct_times = sorted(set(times))
        assert len(distinct_times) == 5  # five waves
        for gap in (b - a for a, b in zip(distinct_times, distinct_times[1:])):
            assert 60.0 <= gap <= 240.0


class TestPolicies:
    def test_registry(self):
        assert set(POLICIES) == {
            "static-x86(2)",
            "static-het-balanced",
            "static-het-unbalanced",
            "dynamic-balanced",
            "dynamic-unbalanced",
        }
        with pytest.raises(KeyError):
            make_policy("fifo")

    def test_static_policies_never_migrate(self):
        for name in ("static-x86(2)", "static-het-balanced", "static-het-unbalanced"):
            assert not make_policy(name).dynamic

    def test_unbalanced_prefers_x86(self):
        from repro.datacenter.cluster import MachineNode

        policy = make_policy("static-het-unbalanced")
        nodes = [MachineNode(m) for m in het_machines()]
        job = Job(JobSpec("is", "A", 2), 0.0)
        chosen = policy.place(job, nodes)
        assert chosen.machine.isa.name == "x86_64"

    def test_balanced_fills_least_loaded(self):
        from repro.datacenter.cluster import MachineNode

        policy = make_policy("static-het-balanced")
        nodes = [MachineNode(m) for m in het_machines()]
        loaded = nodes[1]
        loaded.jobs.append(Job(JobSpec("ep", "A", 6), 0.0))
        job = Job(JobSpec("is", "A", 2), 0.0)
        assert policy.place(job, nodes) is nodes[0]


class TestClusterSimulator:
    def _sustained(self, policy_name, seed=11):
        rng = DeterministicRng(seed)
        specs, concurrency = sustained_backfill(rng, 20, 4)
        machines = x86_pair() if policy_name == "static-x86(2)" else het_machines()
        sim = ClusterSimulator(machines, make_policy(policy_name))
        return sim.run_sustained(specs, concurrency)

    def test_all_jobs_complete(self):
        result = self._sustained("dynamic-balanced")
        assert result.requests == 20
        assert result.makespan > 0
        assert result.total_energy > 0

    def test_deterministic(self):
        a = self._sustained("dynamic-balanced")
        b = self._sustained("dynamic-balanced")
        assert a.makespan == b.makespan
        assert a.total_energy == b.total_energy

    def test_dynamic_policy_migrates(self):
        result = self._sustained("dynamic-balanced")
        assert result.migrations > 0

    def test_static_policy_never_migrates(self):
        result = self._sustained("static-het-balanced")
        assert result.migrations == 0

    def test_dynamic_saves_energy_vs_x86_pair(self):
        base = self._sustained("static-x86(2)")
        dyn = self._sustained("dynamic-unbalanced")
        assert dyn.energy_reduction_vs(base) > 0
        assert dyn.makespan_ratio_vs(base) > 1.0  # slower, as in the paper

    def test_periodic_run(self):
        rng = DeterministicRng(3)
        arrivals = periodic_waves(rng)
        sim = ClusterSimulator(het_machines(), make_policy("dynamic-balanced"))
        result = sim.run_periodic(arrivals)
        assert result.requests == len(arrivals)
        assert result.makespan >= max(t for t, _ in arrivals)

    def test_periodic_dynamic_saves_energy(self):
        rng = DeterministicRng(4)
        arrivals = periodic_waves(rng)
        base = ClusterSimulator(
            x86_pair(), make_policy("static-x86(2)")
        ).run_periodic(list(arrivals))
        dyn = ClusterSimulator(
            het_machines(), make_policy("dynamic-balanced")
        ).run_periodic(list(arrivals))
        assert dyn.energy_reduction_vs(base) > 0.15

    def test_finfet_projection_matters(self):
        rng = DeterministicRng(5)
        specs, conc = sustained_backfill(rng, 12, 4)
        projected = ClusterSimulator(
            het_machines(), make_policy("dynamic-balanced")
        ).run_sustained(list(specs), conc)
        measured = ClusterSimulator(
            het_machines(), make_policy("dynamic-balanced"),
            project_arm_finfet=False,
        ).run_sustained(list(specs), conc)
        assert measured.total_energy > projected.total_energy


class TestSummaries:
    def test_summarize(self):
        runs = {
            "static-x86(2)": [self_result(100.0, 10.0), self_result(100.0, 10.0)],
            "dyn": [self_result(80.0, 12.0), self_result(90.0, 12.0)],
        }
        summary = summarize_runs(runs, "static-x86(2)")
        assert summary["dyn"].mean_energy_reduction == pytest.approx(0.15)
        assert summary["dyn"].max_energy_reduction == pytest.approx(0.2)
        assert summary["dyn"].mean_makespan_ratio == pytest.approx(1.2)

    def test_mismatched_lengths_rejected(self):
        runs = {
            "static-x86(2)": [self_result(1, 1)],
            "dyn": [self_result(1, 1), self_result(1, 1)],
        }
        with pytest.raises(ValueError):
            summarize_runs(runs, "static-x86(2)")

    def test_empty_runs_rejected(self):
        with pytest.raises(ValueError, match="no runs"):
            summarize_runs({"static-x86(2)": [], "dyn": []}, "static-x86(2)")


def self_result(energy, makespan):
    from repro.datacenter.energy import RunResult

    return RunResult(
        makespan=makespan,
        energy_by_machine={"m": energy},
        requests=1,
        requests_completed=1,
        requests_shed=0,
        requests_failed=0,
        migrations=0,
        migration_stall_seconds=0.0,
        p50_latency_s=makespan,
        p99_latency_s=makespan,
        p999_latency_s=makespan,
    )


class TestUnificationGolden:
    """Bit-identity of cluster runs across the DES unification.

    These exact values were recorded on the pre-unification
    ``ClusterSimulator`` (its own event loop, no ``sim.clock``
    nesting).  The unified simulator must reproduce them to the last
    bit: the refactor changed the machinery, not the model.
    """

    def test_sustained_golden(self):
        specs, conc = sustained_backfill(DeterministicRng(11), 20, 4)
        result = ClusterSimulator(
            het_machines(), make_policy("dynamic-balanced")
        ).run_sustained(specs, conc)
        assert result.makespan == 31.240173896296305
        assert result.total_energy == 2736.0251435424757
        assert result.migrations == 2
        assert result.mean_response == 5.071762475884219
        # Result-core fields, recorded when the cluster started to set
        # them (summed left to right, so every interpreter agrees).
        assert result.migration_stall_seconds == 0.1050432
        assert result.p99_latency_s == 26.776413523381194

    def test_periodic_golden(self):
        result = ClusterSimulator(
            het_machines(), make_policy("dynamic-balanced")
        ).run_periodic(periodic_waves(DeterministicRng(3)))
        assert result.makespan == 767.262801443518
        assert result.total_energy == 28401.323567397456
        assert result.migrations == 25
        assert result.mean_response == 6.493590158901034
        assert result.migration_stall_seconds == 1.2663870720000001
        assert result.p99_latency_s == 36.93817589484973

    def test_faulted_golden(self):
        from repro.faults import (
            DetectorConfig,
            EvacuateLive,
            FailureDetector,
            FaultSchedule,
            NodeCrash,
        )

        specs, conc = sustained_backfill(DeterministicRng(7), 16, 4)
        result = ClusterSimulator(
            het_machines(), make_policy("dynamic-balanced"),
            faults=FaultSchedule(
                [NodeCrash(time=1.5, node="x86", repair_seconds=3.0)]
            ),
            detector=FailureDetector(DetectorConfig()),
            recovery=EvacuateLive(),
        ).run_sustained(specs, conc)
        assert result.makespan == 16.856347540776625
        assert result.total_energy == 587.1604358392428
        assert result.migrations == 6
        assert result.handoffs == 2
        assert result.jobs_evacuated == 2
        assert result.mttd == 2.5
        assert result.busy_seconds == 26.01058420775216
        assert result.fault_events == 2
        assert result.migration_stall_seconds == 0.2697740799999999
        assert result.requests_completed == 16


class TestNestedNodes:
    """Nested PopcornSystem measurements vs the analytic cost model."""

    def test_nested_tracks_analytic(self):
        from repro.datacenter.job import job_duration
        from repro.datacenter.nested import NestedNodeSampler

        sampler = NestedNodeSampler()
        spec = JobSpec("is", "A", 2)
        arm, x86 = het_machines()
        for isa, machine in (("x86-64", x86), ("arm64", arm)):
            measured = sampler.duration(spec, isa)
            analytic = job_duration(spec, machine)
            ratio = measured / analytic
            assert 0.7 < ratio < 1.4, (isa, measured, analytic)

    def test_nested_is_memoized(self):
        from repro.datacenter.nested import NestedNodeSampler

        sampler = NestedNodeSampler()
        spec = JobSpec("is", "A", 2)
        first = sampler.duration(spec, "x86-64")
        assert sampler.duration(spec, "x86-64") == first

    def test_cluster_accepts_nested_nodes(self):
        from repro.datacenter.nested import NestedNodeSampler

        sampler = NestedNodeSampler()
        specs, conc = sustained_backfill(DeterministicRng(5), 6, 2)
        analytic = ClusterSimulator(
            het_machines(), make_policy("dynamic-balanced")
        ).run_sustained(list(specs), conc)
        nested = ClusterSimulator(
            het_machines(), make_policy("dynamic-balanced"),
            nested=sampler, nested_nodes=("arm", "x86"),
        ).run_sustained(list(specs), conc)
        assert nested.requests == analytic.requests
        assert 0.5 < nested.makespan / analytic.makespan < 2.0
