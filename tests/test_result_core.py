"""One result core across the cluster, serving and fleet simulators.

One small traffic trace runs through the serving engine, the fleet, and
the cluster (subsampled into batch-job arrivals), once fault-free and
once with one crash mid-surge.  Every check reads the
:class:`RunResult` core fields only, so the same assertions hold for
all three simulators.
"""

import dataclasses
import pathlib
import re

import pytest

from repro.datacenter import ClusterSimulator, RunResult, make_policy
from repro.faults import FailStop, FaultSchedule, NodeCrash
from repro.fleet import FleetConfig, FleetSimulator, WavePolicy, node_name
from repro.machine import make_xeon_e5_1650v2, make_xgene1
from repro.serving import (
    ServingEngine, make_serving_policy, make_trace, to_job_arrivals,
)
from repro.sim.rng import DeterministicRng
from repro.validate.conservation import check_result_core
from repro.validate.errors import InvariantViolation

ROOT = pathlib.Path(__file__).resolve().parent.parent
SEED = 7
CRASH_AT_S = 8.5
REPAIR_S = 5.0

#: The fleet's read-only old names -> the core field each one reads.
FLEET_ALIASES = {
    "jobs_offered": "requests",
    "jobs_completed": "requests_completed",
    "jobs_shed": "requests_shed",
}


def _trace():
    return make_trace(
        "flash-crowd", DeterministicRng(SEED), requests=8000, horizon_s=20.0
    )


def _one_crash(node):
    return FaultSchedule(
        [NodeCrash(time=CRASH_AT_S, node=node, repair_seconds=REPAIR_S)]
    )


def serving_run(crash: bool):
    return ServingEngine(
        make_serving_policy("latency-aware"),
        _trace(),
        faults=_one_crash("x86-server") if crash else None,
        rng=DeterministicRng(SEED),
    ).run()


def fleet_run(crash: bool):
    # At the trace's rate the four services are overloaded: these
    # checks are bookkeeping, not agreement between the models.
    return FleetSimulator(
        FleetConfig(
            nodes={"x86-64": 2, "arm64": 2}, slots_per_node=2, services=4,
        ),
        WavePolicy(
            canary_fraction=0.25, ramp=(0.5, 1.0),
            wave_interval_s=5.0, bake_s=5.0,
        ),
        DeterministicRng(SEED),
        faults=_one_crash(node_name(0)) if crash else None,
    ).run(_trace())


def cluster_run(crash: bool):
    arrivals = to_job_arrivals(_trace(), DeterministicRng(SEED), every=400)
    return ClusterSimulator(
        [make_xgene1("arm"), make_xeon_e5_1650v2("x86")],
        make_policy("dynamic-balanced"),
        faults=_one_crash("x86") if crash else None,
        recovery=FailStop(),
    ).run_periodic(arrivals)


SIMULATORS = {"cluster": cluster_run, "fleet": fleet_run, "serving": serving_run}


def core(result) -> RunResult:
    """``result`` cut down to the core fields."""
    return RunResult(**{
        f.name: getattr(result, f.name) for f in dataclasses.fields(RunResult)
    })


@pytest.mark.parametrize("crash", [False, True], ids=["fault-free", "one-crash"])
@pytest.mark.parametrize("simulator", sorted(SIMULATORS))
def test_core_conserves_work(simulator, crash):
    r = core(SIMULATORS[simulator](crash))
    assert r.requests > 0
    assert r.requests == r.requests_completed + r.requests_shed + r.requests_failed
    assert r.p50_latency_s <= r.p99_latency_s <= r.p999_latency_s
    assert r.migration_stall_seconds >= 0
    assert r.total_energy > 0


@pytest.mark.parametrize("simulator", sorted(SIMULATORS))
def test_the_crash_shows_in_the_core(simulator):
    """The crash lands mid-surge on a busy node, so the faulted run is
    not the fault-free one.  The fail-stop cluster loses a running job
    and serving fails an in-flight request, so the failed bucket of the
    conservation sum is exercised; the fleet never fails a job."""
    run = SIMULATORS[simulator]
    faulted = core(run(True))
    assert faulted != core(run(False))
    assert (faulted.requests_failed > 0) == (simulator != "fleet")


@pytest.mark.parametrize("delta", [-1, 1])
@pytest.mark.parametrize("simulator", sorted(SIMULATORS))
def test_check_result_core_fires_on_a_miscount(simulator, delta):
    result = SIMULATORS[simulator](False)
    check_result_core(result, simulator)
    broken = dataclasses.replace(result, requests=result.requests + delta)
    with pytest.raises(InvariantViolation) as exc:
        check_result_core(broken, simulator)
    assert (exc.value.checker, exc.value.invariant) == (
        simulator, "result-requests-conserved"
    )


def test_fleet_aliases_read_the_core():
    result = fleet_run(True)
    for alias, field in FLEET_ALIASES.items():
        assert getattr(result, alias) == getattr(result, field)


def test_only_the_bench_reads_the_fleet_aliases():
    """The three old names are kept for ``bench/passes.py`` alone."""
    read = re.compile(r"\.(%s)\b" % "|".join(FLEET_ALIASES))
    readers = []
    for top in ("src", "tests", "bench", "tools", "benchmarks", "examples"):
        for path in sorted((ROOT / top).rglob("*.py")):
            rel = path.relative_to(ROOT).as_posix()
            if rel.startswith("bench/out/") or rel == "bench/passes.py":
                continue
            if read.search(path.read_text()):
                readers.append(rel)
    assert not readers, f"read the fleet's old names: {readers}"
