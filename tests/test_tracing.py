"""Tracing-layer tests: causality, determinism, zero overhead off,
migration decomposition, exporters, critical path, cluster metrics."""

import importlib.util
import json
import pathlib

import pytest

from repro.analysis import (
    migration_critical_path,
    render_critical_path,
    spans_to_chrome,
    spans_to_jsonl,
    validate_chrome_trace,
)
from repro.cli import main
from repro.compiler import Toolchain
from repro.datacenter import ClusterSimulator, make_policy, sustained_backfill
from repro.kernel import boot_testbed
from repro.machine import make_xeon_e5_1650v2, make_xgene1
from repro.runtime.execution import EngineHooks, ExecutionEngine
from repro.sim.rng import DeterministicRng
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.spans import Tracer, check_causality

from tests.helpers import X86, call_chain_module

ROOT = pathlib.Path(__file__).resolve().parent.parent


def traced_run(tracer=None, module_builder=call_chain_module):
    """Run a workload with one forced cross-ISA migration; return
    (process, system, outcomes, tracer)."""
    binary = Toolchain().build(module_builder())
    system = boot_testbed(tracer=tracer)
    process = system.exec_process(binary, X86)
    hooks = EngineHooks()
    outcomes = []
    fired = [False]

    def once(thread, fn, point_id, instrs):
        if not fired[0]:
            fired[0] = True
            other = [m for m in system.machine_order
                     if m != thread.machine_name]
            system.request_thread_migration(thread, other[0])

    hooks.on_migration_point = once
    hooks.on_migration = lambda thread, outcome: outcomes.append(outcome)
    engine = ExecutionEngine(system, process, hooks)
    engine.run()
    return process, system, outcomes, tracer


class TestCausalityAndDeterminism:
    def test_trace_is_causally_consistent(self):
        _, _, _, tracer = traced_run(Tracer())
        assert tracer.spans, "no spans recorded"
        assert check_causality(tracer.spans) == []

    def test_no_open_spans_after_run(self):
        _, _, _, tracer = traced_run(Tracer())
        assert tracer.open_spans() == []

    def test_same_run_same_trace(self):
        _, _, _, a = traced_run(Tracer())
        _, _, _, b = traced_run(Tracer())
        assert [s.key() for s in a.spans] == [s.key() for s in b.spans]
        assert a.metrics.snapshot() == b.metrics.snapshot()

    def test_every_category_is_known(self):
        from repro.telemetry.spans import CATEGORIES

        _, _, _, tracer = traced_run(Tracer())
        assert {s.category for s in tracer.spans} <= set(CATEGORIES)


class TestZeroOverheadOff:
    def test_traced_off_run_is_bit_identical(self):
        plain_proc, plain_sys, plain_out, _ = traced_run(None)
        traced_proc, traced_sys, traced_out, tracer = traced_run(Tracer())
        assert tracer.spans
        assert traced_proc.output == plain_proc.output
        assert traced_proc.exit_code == plain_proc.exit_code
        assert traced_sys.clock.now == plain_sys.clock.now
        assert [o.total_seconds for o in traced_out] == [
            o.total_seconds for o in plain_out
        ]

    def test_untraced_outcome_has_no_span(self):
        _, _, outcomes, _ = traced_run(None)
        assert outcomes and all(o.span is None for o in outcomes)


class TestMigrationDecomposition:
    def test_children_tile_root(self):
        _, _, outcomes, tracer = traced_run(Tracer())
        roots = [s for s in tracer.spans if s.name == "migrate"]
        assert len(roots) == len(outcomes) == 1
        root = roots[0]
        children = sorted(
            (s for s in tracer.spans if s.parent_id == root.span_id),
            key=lambda s: s.start_s,
        )
        assert children[0].start_s == root.start_s
        assert children[-1].end_s == pytest.approx(root.end_s, abs=1e-12)
        for prev, nxt in zip(children, children[1:]):
            assert nxt.start_s == pytest.approx(prev.end_s, abs=1e-12)
        names = [c.name for c in children]
        assert names == ["migrate.transform", "migrate.dsm",
                         "migrate.transfer", "migrate.publish",
                         "migrate.commit"]

    def test_decomposition_matches_outcome_and_metrics(self):
        _, _, outcomes, tracer = traced_run(Tracer())
        outcome = outcomes[0]
        assert outcome.span is not None
        assert outcome.span.duration_s == pytest.approx(
            outcome.total_seconds, abs=1e-12
        )
        snap = tracer.metrics.snapshot()
        assert snap["migrate.count"] == 1
        assert snap["migrate.cross_isa"] == 1
        assert snap["migrate.transform_s"]["total"] == pytest.approx(
            outcome.transform_seconds
        )
        assert snap["migrate.handoff_s"]["total"] == pytest.approx(
            outcome.handoff_seconds
        )

    def test_dsm_tail_flows_back_to_migration(self):
        from repro.workloads import build_workload

        _, _, _, tracer = traced_run(
            Tracer(),
            module_builder=lambda: build_workload(
                "is", "A", threads=1, scale=0.002
            ),
        )
        root = next(s for s in tracer.spans if s.name == "migrate")
        tail = [
            s for s in tracer.spans
            if s.category == "dsm" and s.attrs.get("flow") == root.span_id
        ]
        assert tail, "post-migration page pulls should flow-link the migrate"


class TestCriticalPath:
    def test_segments_match_outcome(self):
        _, _, outcomes, tracer = traced_run(Tracer())
        segments = migration_critical_path(tracer.spans)
        assert len(segments) == 1
        seg = segments[0]
        outcome = outcomes[0]
        assert seg.transform_s == pytest.approx(outcome.transform_seconds)
        assert seg.handoff_s == pytest.approx(outcome.handoff_seconds)
        assert seg.transform_s + seg.handoff_s == pytest.approx(
            seg.total_s, abs=1e-9
        )
        assert not seg.aborted and not seg.resumed

    def test_render_has_total_row(self):
        _, _, _, tracer = traced_run(Tracer())
        text = render_critical_path(migration_critical_path(tracer.spans))
        assert "TOTAL" in text and "->" in text


class TestExporters:
    def test_chrome_trace_validates(self):
        _, _, _, tracer = traced_run(Tracer())
        doc = spans_to_chrome(tracer.spans)
        assert validate_chrome_trace(doc) == []
        events = json.loads(doc)["traceEvents"]
        names = {e["name"] for e in events}
        assert {"migrate", "migrate.transform", "migrate.transfer",
                "thread_name"} <= names
        assert any(e["ph"] == "s" for e in events)  # flow arrows
        assert any(e["ph"] == "f" for e in events)

    def test_jsonl_roundtrip(self):
        _, _, _, tracer = traced_run(Tracer())
        lines = spans_to_jsonl(tracer.spans).splitlines()
        assert len(lines) == len(tracer.spans)
        parsed = [json.loads(line) for line in lines]
        assert [p["span_id"] for p in parsed] == [
            s.span_id for s in tracer.spans
        ]

    def test_validator_rejects_garbage(self):
        assert validate_chrome_trace("{not json") != []
        assert validate_chrome_trace('{"nope": 1}') != []
        bad = json.dumps(
            {"traceEvents": [{"ph": "X", "name": "x", "ts": 0, "dur": -1}]}
        )
        assert validate_chrome_trace(bad) != []


class TestClusterTracing:
    def _run(self, tracer):
        rng = DeterministicRng(11)
        specs, concurrency = sustained_backfill(rng, 12, 4)
        machines = [make_xgene1("arm"), make_xeon_e5_1650v2("x86")]
        sim = ClusterSimulator(
            machines, make_policy("dynamic-balanced"), tracer=tracer
        )
        return sim.run_sustained(specs, concurrency)

    def test_metrics_surface_in_result(self):
        result = self._run(Tracer())
        assert result.metrics
        assert result.metrics["sched.placements"] >= result.requests

    def test_rebalance_spans_match_overhead(self):
        tracer = Tracer()
        result = self._run(tracer)
        spans = [s for s in tracer.spans if s.name == "sched.rebalance"]
        assert len(spans) == result.migrations
        assert sum(s.duration_s for s in spans) == pytest.approx(
            result.overhead_seconds
        )
        assert check_causality(tracer.spans) == []

    def test_traced_off_cluster_run_identical(self):
        plain = self._run(None)
        traced = self._run(Tracer())
        assert traced.makespan == plain.makespan
        assert traced.energy_by_machine == plain.energy_by_machine
        assert traced.migrations == plain.migrations
        assert plain.metrics == {}


class TestTraceCli:
    def test_trace_chrome_roundtrip(self, tmp_path, capsys):
        out = tmp_path / "trace.json"
        rc = main(
            ["trace", "is", "--cls", "A", "--threads", "1",
             "--scale", "0.002", "--out", str(out), "--format", "chrome",
             "--critical-path"]
        )
        assert rc == 0
        text = capsys.readouterr().out
        assert "spans" in text and "critical path" in text
        doc = out.read_text()
        assert validate_chrome_trace(doc) == []
        assert "migrate.transform" in doc

    def test_trace_jsonl(self, tmp_path, capsys):
        out = tmp_path / "trace.jsonl"
        rc = main(
            ["trace", "ep", "--cls", "A", "--threads", "1",
             "--scale", "0.002", "--out", str(out), "--format", "jsonl"]
        )
        assert rc == 0
        for line in out.read_text().splitlines():
            json.loads(line)


class TestMetricsRegistry:
    def test_counter_monotone(self):
        reg = MetricsRegistry()
        reg.counter("x").inc()
        reg.counter("x").inc(2)
        assert reg.snapshot()["x"] == 3
        with pytest.raises(ValueError):
            reg.counter("x").inc(-1)

    def test_kind_collision_rejected(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(ValueError):
            reg.histogram("x")

    def test_histogram_summary(self):
        reg = MetricsRegistry()
        for v in (1.0, 3.0):
            reg.histogram("h").observe(v)
        snap = reg.snapshot()["h"]
        assert snap == {"count": 2, "total": 4.0, "min": 1.0, "max": 3.0,
                        "mean": 2.0}


class TestDocstringCoverage:
    def test_telemetry_is_fully_documented(self):
        spec = importlib.util.spec_from_file_location(
            "check_docstrings", ROOT / "tools" / "check_docstrings.py"
        )
        mod = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(mod)
        checked, missing = mod.check(
            [str(ROOT / "src" / "repro" / "telemetry"),
             str(ROOT / "src" / "repro" / "analysis" / "critical_path.py")]
        )
        assert checked >= 8
        assert missing == [], f"missing docstrings: {missing}"


class TestBaselineTracing:
    """The emulation/ and managed/ baselines land on the same traces
    as everything else (they used to bypass telemetry entirely)."""

    def _padmig_run(self, tracer):
        from repro.managed import (
            ManagedArray,
            ManagedObject,
            ObjectGraph,
            PadMigRuntime,
        )

        root = ManagedObject("ISBenchmark")
        root.set_ref("keys", ManagedArray("int", [0] * 50_000))
        system = boot_testbed(tracer=tracer)
        runtime = PadMigRuntime(system)
        return runtime.run_with_migration(
            ObjectGraph([root]), "x86-server", "arm-server",
            native_compute_before_s=0.5, native_compute_after_s=0.5,
        )

    def test_padmig_inherits_system_tracer(self):
        tracer = Tracer()
        run = self._padmig_run(tracer)
        assert check_causality(tracer.spans) == []
        parents = [s for s in tracer.spans if s.name == "managed.run"]
        assert len(parents) == 1
        children = [
            s.name for s in tracer.spans
            if s.parent_id == parents[0].span_id
        ]
        # Two compute halves around the serialise/ship/deserialise.
        assert children.count("managed.compute") == 2
        for phase in ("managed.serialize", "managed.transfer",
                      "managed.deserialize"):
            assert phase in children
        assert parents[0].attrs["payload_bytes"] == run.payload_bytes
        assert tracer.metrics.counter("managed.migrations").value == 1

    def test_padmig_spans_match_phase_timeline(self):
        tracer = Tracer()
        run = self._padmig_run(tracer)
        spans = {
            (s.name, s.start_s): s for s in tracer.spans
            if s.name.startswith("managed.") and s.name != "managed.run"
        }
        for phase in run.phases:
            span = spans[(f"managed.{phase.name}", phase.start)]
            assert span.end_s == pytest.approx(phase.end)
            assert span.track == phase.machine

    def test_padmig_untraced_unchanged(self):
        traced = self._padmig_run(Tracer())
        untraced = self._padmig_run(None)
        assert untraced.phases == traced.phases

    def test_translation_cache_metrics(self):
        from repro.emulation import TranslationCache, expansion_profile

        tracer = Tracer()
        cache = TranslationCache(
            expansion_profile("arm64", "x86_64"), capacity_blocks=2,
            tracer=tracer,
        )
        cache.execute_block("a", 10)
        cache.execute_block("a", 10)  # hit
        cache.execute_block("b", 10)
        cache.execute_block("c", 10)  # flush
        assert cache.flushes == 1
        assert tracer.metrics.counter("emul.translations").value == 3
        assert tracer.metrics.counter("emul.tcache_hits").value == 1
        assert tracer.metrics.counter("emul.tcache_flushes").value == 1
        flushes = [s for s in tracer.spans if s.name == "emul.tcache_flush"]
        assert len(flushes) == 1

    def test_emulation_warmup_span(self):
        from repro.emulation import emulation_warmup_seconds

        tracer = Tracer()
        host = make_xeon_e5_1650v2("host")
        seconds = emulation_warmup_seconds(host, "arm64", 64 * 1024, tracer)
        spans = [s for s in tracer.spans if s.name == "emul.warmup"]
        assert len(spans) == 1
        assert spans[0].end_s - spans[0].start_s == pytest.approx(seconds)
        assert spans[0].attrs["guest"] == "arm64"
        # The tracer is passive: costs are unchanged with tracing off.
        assert emulation_warmup_seconds(host, "arm64", 64 * 1024) == seconds
