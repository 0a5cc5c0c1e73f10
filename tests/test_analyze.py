"""Tests for the migration-safety static analyzer (repro.analyze).

Each lint pass is proven live by seeding the corruption it exists to
catch into an otherwise healthy binary; the clean-baseline test proves
the converse — every registered workload lints with zero errors.
"""

import json

import pytest

from repro.analyze import (
    Baseline,
    DIAGNOSTIC_CODES,
    Diagnostic,
    LintError,
    Severity,
    pass_names,
    render_json,
    render_text,
    run_lint,
)
from repro.compiler import Toolchain
from repro.compiler.migration_points import scaled_target_gap
from repro.compiler.stackmaps import StackMap, StackMapEntry, join_stackmaps
from repro.ir import FunctionBuilder, GlobalVar, Module
from repro.ir.instructions import Br, MigPoint
from repro.isa.types import ValueType as VT
from repro.workloads import build_workload, workload_names

from tests.helpers import call_chain_module, simple_sum_module


def _codes(report):
    return {d.code for d in report.diagnostics}


def _build(module, **kw):
    return Toolchain(**kw).build(module)


# ----------------------------------------------------------- clean runs

class TestCleanWorkloads:
    @pytest.mark.parametrize("name", workload_names())
    def test_registry_workload_lints_clean(self, name):
        """Zero error-severity diagnostics for every registered
        workload, on both ISAs (the checked-in baseline stays empty)."""
        toolchain = Toolchain(
            target_gap=scaled_target_gap(0.002),
            allow_unmigratable=True,
        )
        binary = toolchain.build(build_workload(name, "A", 1, 0.002))
        report = run_lint(binary)
        assert report.error_count == 0, [d.format() for d in report.errors]
        assert len(binary.isa_names) >= 2
        # A clean report must mean "verified", not "skipped".
        for name_ in pass_names():
            assert report.pass_checks[name_] > 0

    def test_helper_module_lints_clean(self):
        report = run_lint(_build(call_chain_module()))
        assert report.error_count == 0, [d.format() for d in report.errors]


# ------------------------------------------------------ seeded bugs

class TestStackmapPass:
    def test_dropped_live_entry_detected(self):
        binary = _build(call_chain_module())
        mf = binary.machine_function("x86_64", "f0")
        site, smap = next(
            (s, m) for s, m in sorted(mf.stackmaps.items()) if m.entries
        )
        victim = smap.entries[0].var
        smap.entries = [e for e in smap.entries if e.var != victim]
        report = run_lint(binary, passes=["stackmap"])
        assert "MIG010" in _codes(report)
        assert "MIG012" in _codes(report)  # now diverges from arm64
        assert any(
            d.code == "MIG010" and d.symbol == victim and d.site == site
            for d in report.errors
        )

    def test_stackmap_for_missing_site_detected(self):
        binary = _build(call_chain_module())
        mf = binary.machine_function("arm64", "f1")
        bogus = max(mf.stackmaps) + 1000
        smap = next(iter(mf.stackmaps.values()))
        mf.stackmaps[bogus] = StackMap(
            site_id=bogus, function="f1", block=smap.block, index=smap.index
        )
        report = run_lint(binary, passes=["stackmap"])
        assert any(
            d.code == "MIG013" and d.site == bogus for d in report.errors
        )


class TestUnwindPass:
    def test_corrupted_save_slot_detected(self):
        binary = _build(call_chain_module())
        for isa_name in binary.isa_names:
            cbin = binary.binary_for(isa_name)
            for mf in cbin.machine_functions.values():
                clobbered = [
                    r for r in mf.alloc.clobbered_callee_saved
                    if r in mf.unwind.saved_reg_depths
                ]
                if clobbered:
                    del mf.unwind.saved_reg_depths[clobbered[0]]
                    report = run_lint(binary, passes=["unwind"])
                    assert "MIG020" in _codes(report)
                    assert "MIG023" in _codes(report)  # unwind != frame
                    return
        pytest.fail("no function with a clobbered callee-saved register")


class TestLayoutPass:
    def test_skewed_symbol_address_detected(self):
        binary = _build(call_chain_module())
        binary.machine_function("arm64", "f2").text_addr += 16
        report = run_lint(binary, passes=["layout"])
        assert any(
            d.code == "MIG030" and d.symbol == "f2" for d in report.errors
        )


class TestCoveragePass:
    def test_stripped_chunk_point_detected(self):
        # arm64: int_alu expansion 1.1 puts the point-free iteration
        # over the target gap, so the stripped point is error-severity.
        binary = _build(call_chain_module(depth=2, work_per_level=160_000_000))
        mf = binary.machine_function("arm64", "f1")
        chunk_bodies = [label for label in mf.blocks if ".wb" in label]
        assert chunk_bodies, "expected a strip-mined chunk loop"
        label = chunk_bodies[0]
        mf.blocks[label] = [
            mi for mi in mf.blocks[label] if not isinstance(mi.ir, MigPoint)
        ]
        report = run_lint(binary, passes=["coverage"])
        assert any(
            d.code == "MIG041"
            and d.severity is Severity.ERROR
            and d.isa == "arm64"
            and d.function == "f1"
            for d in report.diagnostics
        )

    def test_clean_chunk_loop_not_flagged(self):
        binary = _build(call_chain_module(depth=2, work_per_level=160_000_000))
        report = run_lint(binary, passes=["coverage"])
        assert report.error_count == 0


class TestEscapePass:
    def test_stack_address_escaping_to_global_detected(self):
        m = Module("leak")
        m.add_global(GlobalVar("g_slot", VT.PTR))
        fb = FunctionBuilder(m.function("main", [], VT.I64))
        buf = fb.stack_alloc(64, "buf")
        fb.store(fb.addr_of("g_slot"), 0, buf, VT.PTR)
        fb.ret(0)
        m.entry = "main"
        report = run_lint(m, passes=["escape"])
        assert any(
            d.code == "MIG050" and d.severity is Severity.ERROR
            for d in report.diagnostics
        )

    def test_plain_pointer_use_not_flagged(self):
        report = run_lint(simple_sum_module(), passes=["escape"])
        assert report.error_count == 0


class TestIrPass:
    def test_all_structural_problems_reported_at_once(self):
        m = simple_sum_module()
        for fn_name in ("accum", "main"):
            fn = m.functions[fn_name]
            entry = fn.blocks[fn.entry]
            entry.instrs[-1] = Br("nowhere")
        report = run_lint(m)
        mig001 = [d for d in report.diagnostics if d.code == "MIG001"]
        assert len(mig001) >= 2  # both broken functions, one run
        assert {d.function for d in mig001} >= {"accum", "main"}
        # Downstream passes are skipped, not crashed, on invalid IR.
        assert _codes(report) == {"MIG001"}


# -------------------------------------------------- driver & reporting

class TestDriver:
    def test_unknown_pass_rejected(self):
        with pytest.raises(ValueError, match="unknown lint passes"):
            run_lint(simple_sum_module(), passes=["bogus"])

    def test_module_lint_skips_binary_passes(self):
        report = run_lint(simple_sum_module())
        assert report.pass_checks["ir"] > 0
        assert report.pass_checks["stackmap"] == 0

    def test_toolchain_fail_on_error(self):
        binary = Toolchain(lint=True).build(call_chain_module())
        assert binary.site_count > 0  # clean build lints and ships

        toolchain = Toolchain(lint=False)
        binary = toolchain.build(call_chain_module())
        mf = binary.machine_function("x86_64", "f0")
        site, smap = next(
            (s, m) for s, m in sorted(mf.stackmaps.items()) if m.entries
        )
        smap.entries = smap.entries[1:]
        with pytest.raises(LintError, match="MIG01"):
            toolchain._lint(binary)

    def test_unregistered_code_rejected(self):
        with pytest.raises(ValueError, match="unregistered"):
            Diagnostic(code="MIG999", severity=Severity.ERROR, message="x")


class TestReporting:
    def _sample_report(self):
        binary = _build(call_chain_module())
        binary.machine_function("arm64", "f1").text_addr += 32
        return run_lint(binary, passes=["layout", "coverage"])

    def test_text_reporter_hides_info_by_default(self):
        report = self._sample_report()
        text = render_text(report)
        assert "MIG030" in text
        if report.by_severity(Severity.INFO):
            assert "hidden" in text
            assert "MIG042" not in text
            assert "MIG042" in render_text(report, verbose=True)

    def test_json_reporter_shape(self):
        report = self._sample_report()
        payload = json.loads(render_json(report))
        assert payload["subject"]
        assert payload["summary"]["severities"]["error"] >= 1
        diag = payload["diagnostics"][0]
        for key in ("code", "severity", "fingerprint", "message"):
            assert key in diag
        many = json.loads(render_json([report, report]))
        assert isinstance(many, list) and len(many) == 2

    def test_baseline_round_trip(self, tmp_path):
        report = self._sample_report()
        assert report.error_count > 0
        baseline = Baseline.from_reports([report])
        path = tmp_path / "baseline.json"
        baseline.save(path)
        loaded = Baseline.load(path)
        assert loaded.fingerprints == baseline.fingerprints

        fresh = self._sample_report()
        fresh.apply_baseline(loaded)
        assert fresh.error_count == 0
        assert fresh.suppressed

    def test_missing_baseline_is_empty(self, tmp_path):
        assert len(Baseline.load(tmp_path / "absent.json")) == 0

    def test_bad_baseline_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"wrong": []}')
        with pytest.raises(ValueError, match="not a lint baseline"):
            Baseline.load(path)

    def test_every_code_documented(self):
        from pathlib import Path

        doc = Path(__file__).resolve().parent.parent / "docs" / "lint.md"
        text = doc.read_text()
        for code, summary in DIAGNOSTIC_CODES.items():
            assert code.startswith(("MIG", "RACE", "SHR")) and summary
            assert f"## {code}" in text, f"{code} missing from docs/lint.md"
        import re

        for code in re.findall(r"(?:MIG|RACE|SHR)\d{3}", text):
            assert code in DIAGNOSTIC_CODES, (
                f"docs/lint.md mentions unregistered code {code}"
            )


# -------------------------------------------- stackmap index (satellite)

class TestStackMapIndex:
    def _map(self, *vars_):
        from repro.compiler.frame import Location

        return StackMap(
            site_id=1, function="f", block="bb0", index=0,
            entries=[
                StackMapEntry(
                    var=v, vt=VT.I64, location=Location(kind="slot", depth=d)
                )
                for d, v in enumerate(vars_, start=1)
            ],
        )

    def test_entry_for_uses_index(self):
        smap = self._map("a", "b", "c")
        assert smap.entry_for("b").var == "b"
        assert smap.entry_for("nope") is None
        assert smap.index_by_var() is smap.index_by_var()  # cached

    def test_index_rebuilt_after_mutation(self):
        smap = self._map("a", "b")
        assert smap.entry_for("a") is not None
        smap.entries = [e for e in smap.entries if e.var != "a"]
        assert smap.entry_for("a") is None
        assert smap.entry_for("b") is not None

    def test_join_pairs_by_var(self):
        src, dst = self._map("a", "b"), self._map("b", "a")
        pairs = join_stackmaps(src, dst)
        assert [(s.var, d.var) for s, d in pairs] == [("a", "a"), ("b", "b")]

    def test_join_mismatch_raises(self):
        with pytest.raises(ValueError, match="live-set mismatch"):
            join_stackmaps(self._map("a"), self._map("a", "b"))
