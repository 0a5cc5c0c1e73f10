"""Totals that every supported CPython adds in the same order.

Builtin ``sum()`` of floats is compensated from CPython 3.12 on, so
the three result pins below held on 3.9 and 3.11 but not on 3.12 and
3.13 while their totals used builtin ``sum()``.  Every expected value
is 3.11's: the additions written out left to right from the int ``0``.
"""

from repro.datacenter.energy import RunResult, summarize_runs
from repro.faults.membership import Membership
from repro.sim.numeric import ordered_mean, ordered_sum

TENTHS = (0.1, 0.2, 0.3)


def _mean3(values):
    """The left-to-right mean of three values, written out."""
    a, b, c = values
    return (0 + a + b + c) / 3


def _run(makespan: float, energy_by_machine) -> RunResult:
    return RunResult(
        makespan=makespan,
        energy_by_machine=energy_by_machine,
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


def test_empty_sum_is_the_int_zero():
    total = ordered_sum([])
    assert total == 0 and type(total) is int


def test_empty_mean_is_zero():
    assert ordered_mean([]) == 0.0


def test_total_energy_over_three_nodes():
    result = _run(1.0, dict(zip("abc", TENTHS)))
    assert result.total_energy == 0.6000000000000001


def test_mttd_over_three_crash_to_confirm_samples():
    view = Membership(["a", "b", "c"])
    for node, latency in zip(view.nodes, TENTHS):
        view.crash(node, 0.0)
        view.confirm(node, latency)
    assert view.mttd_samples == list(TENTHS)
    assert view.mttd == 0.20000000000000004


def test_summarize_runs_means_over_three_sets():
    baseline = [_run(1.0, {"m": 1.0}) for _ in TENTHS]
    runs = [_run(x, {"m": x}) for x in TENTHS]
    summary = summarize_runs({"base": baseline, "x": runs}, "base")["x"]
    assert summary.mean_energy == 0.20000000000000004
    assert summary.mean_makespan == 0.20000000000000004
    assert summary.mean_makespan_ratio == 0.20000000000000004
    assert summary.mean_energy_reduction == 0.8000000000000002
    assert summary.mean_edp == _mean3([r.edp for r in runs])
    assert summary.mean_edp_reduction == _mean3(
        [r.edp_reduction_vs(b) for r, b in zip(runs, baseline)]
    )
