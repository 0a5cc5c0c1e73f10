"""Tests for the benchmark harness itself.

Run with ``python -m pytest bench -q`` from the repository root.  One
test runs real dispatch passes (a few seconds); the rest are synthetic.
"""

import json
import sys

import pytest

import compare
import hostspeed
import passes
import run
from spans import Spans, self_times

sys.path.insert(0, str(run.ROOT / "src"))

DEFINITIONS = json.loads((run.ROOT / "BENCHMARK.json").read_text())


# ------------------------------------------------------------- fact gate

def test_perturbed_golden_fails_loudly(monkeypatch, capsys, tmp_path):
    doc = run.run_pass("dispatch", None, False, 0)
    assert run.gate("dispatch", None, [doc]) == (1, 0, [])

    perturbed = json.loads(json.dumps(run.expected_facts("dispatch", None)))
    perturbed["stress"]["slices"] += 1
    monkeypatch.setattr(run, "expected_facts", lambda workload, seed: perturbed)
    attempted, failed, messages = run.gate("dispatch", None, [doc])
    assert (attempted, failed) == (1, 1)
    assert "stress: slices: expected" in messages[0]

    code = run.main(["--workload", "dispatch", "--seconds", "0",
                     "--out", str(tmp_path / "result.json")])
    out, err = capsys.readouterr()
    assert code == 1
    assert "FACT MISMATCH dispatch pass 0 stress: slices" in err
    last = json.loads(out.strip().splitlines()[-1])
    assert last["correct"] is False
    assert last["failed"] == last["attempted"] == 3


def _doc(pass_id, facts, units=5700057.7, error=None):
    cells = [{"cell": "stress", "facts": facts, "error": error}]
    return {"pass": pass_id, "cells": cells, "units": units, "wall_s": 1.0}


def test_gate_catches_nondeterminism_crashes_and_wrong_work(monkeypatch):
    good = dict(run.expected_facts("dispatch", None)["stress"])
    docs = [_doc(0, good), _doc(1, good), {"pass": 2, "error": "exited 1"},
            _doc(3, good, units=1.0), _doc(4, None, error="Traceback ...")]
    attempted, failed, messages = run.gate("dispatch", None, docs)
    assert (attempted, failed) == (5, 3)

    # A fact absent from the committed record can still drift between passes.
    partial = {"stress": {k: v for k, v in good.items() if k != "sim_seconds"}}
    monkeypatch.setattr(run, "expected_facts", lambda workload, seed: partial)
    drifted = dict(good, sim_seconds="0.1")
    _, failed, messages = run.gate("dispatch", None, [_doc(0, good), _doc(1, drifted)])
    assert failed == 1
    assert messages[0].startswith("dispatch pass 1 stress: nondeterministic: sim_seconds")


def test_non_default_seed_checks_only_conservation_and_determinism():
    assert set(run.expected_facts("serving-sweep", 3).values()) == {None}
    assert run.expected_facts("serving-sweep", 7) == run.expected_facts("serving-sweep", None)


# ---------------------------------------------------------------- spans

def _tree():
    """root [0, 10] > a [1, 4] > b [2, 3];  root > c [5, 9]."""
    return [
        ["root", 0.0, 10.0, None, None, None],
        ["a", 1.0, 4.0, 0, None, None],
        ["b", 2.0, 3.0, 1, None, None],
        ["c", 5.0, 9.0, 0, None, None],
        ["b", 6.0, 6.5, 3, None, None],
    ]


def test_self_time_is_span_minus_children():
    times = self_times(_tree())
    assert times["root"] == {"self_s": 3.0, "total_s": 10.0, "count": 1}
    assert times["a"] == {"self_s": 2.0, "total_s": 3.0, "count": 1}
    assert times["c"] == {"self_s": 3.5, "total_s": 4.0, "count": 1}
    assert times["b"] == {"self_s": 1.5, "total_s": 1.5, "count": 2}
    assert sum(t["self_s"] for t in times.values()) == 10.0


def test_wrapped_calls_nest_under_the_open_span():
    class Layer:
        def work(self, n):
            return n * 2

    spans = Spans()
    seen = []
    spans.wrap(Layer, "work", "layer.work", lambda s, args, result: seen.append(result))
    with spans.span("outer", "run"):
        assert Layer().work(3) == 6
    assert [r[0] for r in spans.records] == ["outer", "layer.work"]
    assert spans.records[1][3] == 0
    assert seen == [6]
    assert spans.phase_seconds("run") == pytest.approx(
        spans.records[0][2] - spans.records[0][1])


def test_reference_seconds_scale_by_probe_speed_and_skip_probes():
    ref = hostspeed.REFERENCE_S
    # A probe every 0.1 s; the host runs at reference speed, then at half.
    probes = [(0.1 * i, 0.1 * i + ref) for i in range(1, 10)]
    probes += [(0.1 * i, 0.1 * i + 2 * ref) for i in range(10, 30)]
    steady = hostspeed.reference_seconds(probes, 0.25, 0.55)
    assert steady == pytest.approx(0.3 - 3 * ref)
    slow = hostspeed.reference_seconds(probes, 2.05, 2.55)
    assert slow == pytest.approx((0.5 - 5 * 2 * ref) / 2)
    assert hostspeed.reference_seconds([], 1.0, 1.5) == 0.5


def test_layer_metrics_match_benchmark_definitions():
    produced = set(passes.layer_metrics(Spans())) | {"bench.trace_overhead"}
    assert produced == {m["name"] for m in DEFINITIONS["per_layer"]}
    assert set(run.END_TO_END) == {m["name"] for m in DEFINITIONS["end_to_end"]}


# -------------------------------------------------------------- compare

def _result(throughput, failed=0, spread=0.01):
    metrics = {
        "throughput": {"median": throughput, "q1": throughput * (1 - spread),
                       "q3": throughput * (1 + spread)},
        "setup_s": {"median": 0.1, "q1": 0.1, "q3": 0.1},
        "peak_rss_mb": {"median": 50.0, "q1": 50.0, "q3": 50.0},
    }
    return {"workloads": {"w": {"metrics": metrics, "failed": failed, "attempted": 10}}}


def _verdicts(pairs):
    return {r["metric"]: r["verdict"] for r in compare.compare(pairs, DEFINITIONS)}


def test_compare_single_pair_applies_the_bound():
    assert _verdicts([(_result(100.0), _result(95.0))])["throughput"] == "within bound"
    assert _verdicts([(_result(100.0), _result(85.0))])["throughput"] == "regression"
    assert _verdicts([(_result(100.0), _result(100.0, failed=1))])["error_rate"] == "regression"


def test_compare_pairs_needs_nine_tenths_wins_and_a_gap_beyond_the_spread():
    steady = [100.0 + i % 3 for i in range(10)]
    faster = [(_result(b), _result(b * 1.2)) for b in steady]
    assert _verdicts(faster)["throughput"] == "gain"

    # Eight wins of ten: no gain, but no regression either.
    mixed = [(_result(b), _result(b * (1.2 if i < 8 else 0.99))) for i, b in enumerate(steady)]
    assert _verdicts(mixed)["throughput"] == "within bound"

    # The parent's own runs spread wider than the bound: unresolved.
    noisy = [70.0, 130.0, 80.0, 120.0, 90.0, 110.0, 75.0, 125.0, 85.0, 115.0]
    assert _verdicts([(_result(b), _result(100.0)) for b in noisy])["throughput"] == "unresolved"
