"""Tests for result export and the heavy-tailed trace generator."""

import csv
import dataclasses
import io
import json

import pytest

from repro.analysis.export import runs_to_csv, runs_to_json, series_to_csv
from repro.datacenter import ClusterSimulator, make_policy
from repro.datacenter.arrivals import heavy_tailed_trace
from repro.datacenter.energy import ClusterResult
from repro.machine import make_xeon_e5_1650v2, make_xgene1
from repro.sim.rng import DeterministicRng
from repro.sim.trace import TimeSeries


def _result(policy, energy, makespan):
    values = {f.name: 0 for f in dataclasses.fields(ClusterResult)}
    values.update(
        policy=policy,
        makespan=makespan,
        energy_by_machine={"x86": energy * 0.8, "arm": energy * 0.2},
        migrations=2,
        requests=5,
        requests_completed=5,
        mean_response=1.5,
        fault_trace=[],
        metrics={},
    )
    return ClusterResult(**values)


class TestCsvExport:
    def test_runs_to_csv_shape(self):
        runs = {
            "static-x86(2)": [_result("static-x86(2)", 100.0, 10.0)],
            "dynamic-balanced": [_result("dynamic-balanced", 80.0, 12.0)],
        }
        text = runs_to_csv(runs)
        rows = list(csv.reader(io.StringIO(text)))
        assert rows[0][:4] == ["policy", "set", "makespan_s", "total_energy_j"]
        assert len(rows) == 3
        assert rows[1][0] == "static-x86(2)"
        assert float(rows[2][3]) == pytest.approx(80.0)

    def test_runs_to_json(self):
        runs = {"p": [_result("p", 50.0, 5.0)]}
        data = json.loads(runs_to_json(runs))
        assert data["p"][0]["total_energy_j"] == pytest.approx(50.0)
        assert data["p"][0]["energy_by_machine_j"]["arm"] == pytest.approx(10.0)

    def test_series_to_csv(self):
        a = TimeSeries("power")
        b = TimeSeries("load")
        for t in (0.0, 0.1, 0.2):
            a.append(t, 10.0 * t)
            b.append(t, 1.0)
        text = series_to_csv([a, b])
        rows = list(csv.reader(io.StringIO(text)))
        assert rows[0] == ["time", "power", "load"]
        assert len(rows) == 4

    def test_series_grid_mismatch_rejected(self):
        a = TimeSeries("x")
        a.append(0.0, 1.0)
        b = TimeSeries("y")
        b.append(0.5, 1.0)
        with pytest.raises(ValueError, match="sampling grid"):
            series_to_csv([a, b])

    def test_empty_series_list(self):
        assert series_to_csv([]) == "time\n"


class TestHeavyTailedTrace:
    def test_deterministic(self):
        a = heavy_tailed_trace(DeterministicRng(9))
        b = heavy_tailed_trace(DeterministicRng(9))
        assert a == b

    def test_arrival_times_sorted_and_positive(self):
        trace = heavy_tailed_trace(DeterministicRng(3), jobs=40)
        times = [t for t, _ in trace]
        assert times == sorted(times)
        assert all(t > 0 for t in times)

    def test_class_skew(self):
        trace = heavy_tailed_trace(DeterministicRng(4), jobs=300)
        classes = [spec.cls for _, spec in trace]
        assert classes.count("A") > classes.count("B") > classes.count("C")

    def test_runs_through_cluster_simulator(self):
        trace = heavy_tailed_trace(DeterministicRng(5), jobs=30)
        base = ClusterSimulator(
            [make_xeon_e5_1650v2("x86-1"), make_xeon_e5_1650v2("x86-2")],
            make_policy("static-x86(2)"),
        ).run_periodic(list(trace))
        dyn = ClusterSimulator(
            [make_xgene1("arm"), make_xeon_e5_1650v2("x86")],
            make_policy("dynamic-balanced"),
        ).run_periodic(list(trace))
        assert base.requests == dyn.requests == 30
        # The heterogeneous pair still wins energy on an open trace.
        assert dyn.energy_reduction_vs(base) > 0

    def test_export_of_real_runs(self):
        trace = heavy_tailed_trace(DeterministicRng(6), jobs=20)
        runs = {}
        for policy in ("static-x86(2)", "dynamic-balanced"):
            machines = (
                [make_xeon_e5_1650v2("x86-1"), make_xeon_e5_1650v2("x86-2")]
                if policy == "static-x86(2)"
                else [make_xgene1("arm"), make_xeon_e5_1650v2("x86")]
            )
            sim = ClusterSimulator(machines, make_policy(policy))
            runs[policy] = [sim.run_periodic(list(trace))]
        text = runs_to_csv(runs)
        assert "dynamic-balanced" in text
        data = json.loads(runs_to_json(runs))
        assert set(data) == {"static-x86(2)", "dynamic-balanced"}
