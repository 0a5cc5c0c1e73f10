"""Unit tests for the compiler: regalloc, frames, codegen, stackmaps."""

import pytest

from repro.compiler import Toolchain, allocate_registers, lower_function
from repro.compiler.frame import FrameLayout, Location, build_frame_layout
from repro.compiler.stackmaps import join_stackmaps
from repro.ir import FunctionBuilder, Module
from repro.isa import ARM64, X86_64
from repro.isa.isa import InstrClass
from repro.isa.types import ValueType as VT

from tests.helpers import call_chain_module, float_module, simple_sum_module


def _fn_with_calls():
    m = Module("m")
    g = m.function("g", [("v", VT.I64)], VT.I64)
    FunctionBuilder(g).ret("v")
    f = m.function("f", [("n", VT.I64)], VT.I64)
    fb = FunctionBuilder(f)
    keep1 = fb.local("keep1", VT.I64, init=1)
    keep2 = fb.local("keep2", VT.F64, init=2.0)
    r = fb.call("g", ["n"], VT.I64)
    s = fb.call("g", [r], VT.I64)
    total = fb.binop("add", keep1, s, VT.I64)
    fkeep = fb.unop("f2i", keep2, VT.I64)
    fb.ret(fb.binop("add", total, fkeep, VT.I64))
    m.entry = "f"
    return m


class TestRegalloc:
    def test_live_across_call_gets_callee_saved(self):
        m = _fn_with_calls()
        fn = m.functions["f"]
        alloc = allocate_registers(fn, ARM64)
        reg = alloc.reg_assignment["keep1"]
        assert ARM64.regfile[reg].callee_saved

    def test_fp_live_across_call_spills_on_x86(self):
        # x86-64 has no callee-saved FPRs, so keep2 must live in memory.
        m = _fn_with_calls()
        fn = m.functions["f"]
        alloc = allocate_registers(fn, X86_64)
        assert "keep2" in alloc.memory_locals

    def test_fp_live_across_call_in_register_on_arm(self):
        m = _fn_with_calls()
        fn = m.functions["f"]
        alloc = allocate_registers(fn, ARM64)
        reg = alloc.reg_assignment["keep2"]
        assert reg.startswith("v") and ARM64.regfile[reg].callee_saved

    def test_address_taken_pinned_to_memory(self):
        m = simple_sum_module()
        fn = m.functions["accum"]
        alloc = allocate_registers(fn, X86_64)
        assert "cell" in alloc.memory_locals
        assert "cell" not in alloc.reg_assignment

    def test_clobbered_list_matches_assignment(self):
        m = _fn_with_calls()
        fn = m.functions["f"]
        for isa in (ARM64, X86_64):
            alloc = allocate_registers(fn, isa)
            for reg in alloc.clobbered_callee_saved:
                assert isa.regfile[reg].callee_saved


class TestFrameLayout:
    def test_x86_return_address_at_eight(self):
        layout = build_frame_layout(X86_64, ["rbx"], ["a"], {})
        assert layout.return_addr_depth == 8
        assert layout.saved_fp_depth == 16

    def test_arm_fp_lr_at_bottom(self):
        layout = build_frame_layout(ARM64, ["x19"], ["a"], {})
        assert layout.saved_fp_depth == layout.frame_size or (
            layout.frame_size - layout.saved_fp_depth < 16
        )
        assert layout.saved_lr_depth == layout.saved_fp_depth - 8

    def test_frame_alignment(self):
        for isa in (ARM64, X86_64):
            layout = build_frame_layout(isa, [], ["a", "b", "c"], {"buf": 24})
            assert layout.frame_size % isa.cc.stack_alignment == 0

    def test_layouts_differ_between_isas(self):
        arm = build_frame_layout(ARM64, ["x19"], ["a", "b"], {"buf": 32})
        x86 = build_frame_layout(X86_64, ["rbx"], ["a", "b"], {"buf": 32})
        assert arm.slot_depths != x86.slot_depths

    def test_no_overlapping_slots(self):
        layout = build_frame_layout(
            X86_64, ["rbx", "r12"], ["a", "b", "c"], {"buf": 40}
        )
        spans = []
        for depth in layout.slot_depths.values():
            spans.append((depth - 8, depth))
        for reg_depth in layout.saved_reg_depths.values():
            spans.append((reg_depth - 8, reg_depth))
        for depth, size in layout.buffer_depths.values():
            spans.append((depth - size, depth))
        spans.append((layout.return_addr_depth - 8, layout.return_addr_depth))
        spans.append((layout.saved_fp_depth - 8, layout.saved_fp_depth))
        spans.sort()
        for (lo1, hi1), (lo2, hi2) in zip(spans, spans[1:]):
            assert hi1 <= lo2 or lo1 == lo2 == 0

    def test_slot_address(self):
        layout = build_frame_layout(X86_64, [], ["a"], {})
        cfa = 0x1000
        assert layout.slot_address(cfa, "a") == cfa - layout.slot_depths["a"]

    def test_location_repr(self):
        assert "reg" in repr(Location.in_reg("rbx"))
        assert "CFA-16" in repr(Location.in_slot(16))


class TestCodegen:
    def test_costs_positive(self):
        m = simple_sum_module()
        mf = lower_function(m.functions["accum"], ARM64)
        for instrs in mf.blocks.values():
            for mi in instrs:
                assert all(v >= 0 for v in mi.counts.values())

    def test_code_sizes_differ_per_isa(self):
        m = simple_sum_module()
        arm = lower_function(m.functions["accum"], ARM64)
        x86 = lower_function(m.functions["accum"], X86_64)
        assert arm.code_size != x86.code_size

    def test_prologue_counts_scale_with_saved_regs(self):
        m = _fn_with_calls()
        leaf = lower_function(m.functions["g"], X86_64)
        caller = lower_function(m.functions["f"], X86_64)
        assert sum(caller.prologue_counts.values()) > sum(
            leaf.prologue_counts.values()
        )

    def test_return_address_round_trip(self):
        m = _fn_with_calls()
        Toolchain().build(m)
        for isa in (ARM64, X86_64):
            mf = lower_function(m.functions["f"], isa)
            mf.text_addr = 0x400000
            for site in mf.site_positions:
                ra = mf.return_address(site)
                assert mf.site_for_return_address(ra) == site

    def test_return_addresses_differ_across_isas(self):
        m = _fn_with_calls()
        binary = Toolchain().build(m)
        f_arm = binary.machine_function("arm64", "f")
        f_x86 = binary.machine_function("x86_64", "f")
        sites = set(f_arm.site_positions) & set(f_x86.site_positions)
        assert sites
        differing = [
            s for s in sites
            if f_arm.return_address(s) != f_x86.return_address(s)
        ]
        assert differing


class TestLivenessOncePerFunction:
    def test_build_analyses_each_function_once(self, monkeypatch):
        """Liveness does not depend on the ISA: a build computes it once
        per function and hands it to every ISA's register allocation
        and stackmaps (it used to run four times per function)."""
        from repro.compiler import codegen, regalloc, toolchain
        from repro.ir.analysis import liveness

        analysed = []

        def counted(fn):
            analysed.append(fn.name)
            return liveness(fn)

        for module in (codegen, regalloc, toolchain):
            monkeypatch.setattr(module, "liveness", counted)
        m = call_chain_module(depth=3)
        binary = Toolchain().build(m)
        assert sorted(analysed) == sorted(m.functions)
        assert len(binary.binaries) == 2


class TestStackmaps:
    def test_stackmaps_at_every_site(self):
        m = call_chain_module(3)
        binary = Toolchain().build(m)
        for isa_name in binary.isa_names:
            for mf in binary.binary_for(isa_name).machine_functions.values():
                assert set(mf.stackmaps) == set(mf.site_positions)

    def test_live_sets_agree_across_isas(self):
        m = call_chain_module(4)
        binary = Toolchain().build(m)
        arm = binary.binary_for("arm64")
        x86 = binary.binary_for("x86_64")
        for name, mf_arm in arm.machine_functions.items():
            mf_x86 = x86.machine_functions[name]
            for site, sm_arm in mf_arm.stackmaps.items():
                pairs = join_stackmaps(sm_arm, mf_x86.stackmaps[site])
                for e_arm, e_x86 in pairs:
                    assert e_arm.var == e_x86.var
                    assert e_arm.vt == e_x86.vt

    def test_locations_generally_differ(self):
        m = float_module()
        binary = Toolchain().build(m)
        mf_arm = binary.machine_function("arm64", "mix")
        mf_x86 = binary.machine_function("x86_64", "mix")
        diffs = 0
        for site, sm in mf_arm.stackmaps.items():
            for e in sm.entries:
                other = mf_x86.stackmaps[site].entry_for(e.var)
                if other.location != e.location:
                    diffs += 1
        assert diffs > 0

    def test_join_rejects_mismatch(self):
        m = call_chain_module(3)
        binary = Toolchain().build(m)
        mf = binary.machine_function("arm64", "f0")
        sites = sorted(mf.stackmaps)
        a = mf.stackmaps[sites[0]]
        b = mf.stackmaps[sites[1]]
        if set(e.var for e in a.entries) != set(e.var for e in b.entries):
            with pytest.raises(ValueError):
                join_stackmaps(a, b)
