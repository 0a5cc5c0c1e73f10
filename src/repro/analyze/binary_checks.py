"""Whole-binary lint passes over a linked :class:`MultiIsaBinary`.

Each pass re-derives, from first principles, a contract the paper's
migration machinery depends on, and diffs it against what the toolchain
actually emitted:

* ``stackmap``  — IR dataflow liveness vs. emitted stackmaps, per site,
  per ISA, plus cross-ISA live-set/type equivalence;
* ``unwind``    — every clobbered callee-saved register has a save
  slot, the CFA is derivable from :class:`UnwindInfo` alone, and no
  two frame objects collide;
* ``layout``    — one common address-space layout: identical symbol
  addresses across ISAs, sufficient ``.text`` alias padding, TLS
  equality, no overlaps, no section overflow;
* ``coverage``  — static instruction-cost bound on the longest
  migration-point-free path per function, loop-aware.
"""

import math
from typing import Dict, List, Optional, Set, Tuple

from repro.analyze.diagnostics import LintReport, Severity
from repro.analyze.ir_checks import unmigratable_reason
from repro.compiler.codegen import MachineFunction
from repro.ir.analysis import liveness, strongly_connected
from repro.ir.instructions import Call, MigPoint, Syscall, Work
from repro.isa.abi import FrameLayoutStyle
from repro.isa.isa import InstrClass
from repro.isa.types import ValueType
from repro.linker.alignment import align_symbols
from repro.linker.tls import build_tls_layout
from repro.sim.numeric import ordered_sum

WORD = 8


# ------------------------------------------------------------- stackmaps

def run_stackmap_soundness(ctx, report: LintReport) -> None:
    """``MIG010``-``MIG015``: stackmaps must equal recomputed liveness.

    A live variable missing from the map silently loses state on
    migration (error); a dead entry only wastes transform work
    (warning).  Locations must agree with register allocation and the
    frame layout, and the live set at every shared ``site_id`` must be
    identical — names and types — on every ISA.
    """
    binary = ctx.binary
    for fn_name, fn in binary.module.functions.items():
        live = liveness(fn)
        expected: Dict[int, Tuple[str, int, Set[str]]] = {}
        for label, i, instr in fn.instructions():
            site = getattr(instr, "site_id", -1)
            if site >= 0 and isinstance(instr, (Call, Syscall, MigPoint)):
                vars_ = set(live.live_after[(label, i)])
                vars_.discard(getattr(instr, "dst", ""))
                expected[site] = (label, i, vars_)
        for isa_name in binary.isa_names:
            mf = binary.machine_function(isa_name, fn_name)
            _check_isa_stackmaps(isa_name, mf, expected, report)
            report.note_checks("stackmap", max(len(expected), 1))
        _check_cross_isa_equivalence(binary, fn_name, expected, report)


def _check_isa_stackmaps(
    isa_name: str,
    mf: MachineFunction,
    expected: Dict[int, Tuple[str, int, Set[str]]],
    report: LintReport,
) -> None:
    fn_name = mf.name
    for site in sorted(set(expected) - set(mf.stackmaps)):
        report.emit(
            "MIG013", Severity.ERROR,
            f"site has no emitted stackmap (at "
            f"{expected[site][0]}:{expected[site][1]})",
            pass_name="stackmap", isa=isa_name, function=fn_name, site=site,
        )
    for site in sorted(set(mf.stackmaps) - set(expected)):
        report.emit(
            "MIG013", Severity.ERROR,
            "stackmap emitted for a site that does not exist in the IR",
            pass_name="stackmap", isa=isa_name, function=fn_name, site=site,
        )
    for site, (_label, _i, want) in sorted(expected.items()):
        smap = mf.stackmaps.get(site)
        if smap is None:
            continue
        have = {e.var for e in smap.entries}
        for var in sorted(want - have):
            report.emit(
                "MIG010", Severity.ERROR,
                f"live variable {var!r} missing from the stackmap; "
                f"migration here would silently lose its value",
                pass_name="stackmap", isa=isa_name, function=fn_name,
                site=site, symbol=var,
            )
        for var in sorted(have - want):
            report.emit(
                "MIG011", Severity.WARNING,
                f"dead variable {var!r} recorded in the stackmap "
                f"(wasted transform work)",
                pass_name="stackmap", isa=isa_name, function=fn_name,
                site=site, symbol=var,
            )
        for entry in smap.entries:
            _check_entry_location(isa_name, mf, site, entry, report)


def _check_entry_location(isa_name, mf, site, entry, report) -> None:
    fn_name = mf.name
    loc = entry.location
    if loc.kind == "reg":
        assigned = mf.alloc.reg_assignment.get(entry.var)
        if loc.reg not in mf.isa.regfile:
            report.emit(
                "MIG014", Severity.ERROR,
                f"{entry.var!r} mapped to unknown register {loc.reg!r}",
                pass_name="stackmap", isa=isa_name, function=fn_name,
                site=site, symbol=entry.var,
            )
        elif assigned != loc.reg:
            report.emit(
                "MIG014", Severity.ERROR,
                f"{entry.var!r} mapped to {loc.reg}, but the allocator "
                f"placed it in {assigned or 'a frame slot'}",
                pass_name="stackmap", isa=isa_name, function=fn_name,
                site=site, symbol=entry.var,
            )
    else:
        frame = mf.frame
        expected_depth = frame.slot_depths.get(entry.var)
        if expected_depth is None or loc.depth != expected_depth:
            report.emit(
                "MIG014", Severity.ERROR,
                f"{entry.var!r} mapped to slot CFA-{loc.depth}, but the "
                f"frame layout says "
                f"{'no slot' if expected_depth is None else f'CFA-{expected_depth}'}",
                pass_name="stackmap", isa=isa_name, function=fn_name,
                site=site, symbol=entry.var,
            )
        elif not frame.contains_depth(loc.depth):
            report.emit(
                "MIG014", Severity.ERROR,
                f"{entry.var!r} slot depth {loc.depth} outside the "
                f"{frame.frame_size}-byte frame",
                pass_name="stackmap", isa=isa_name, function=fn_name,
                site=site, symbol=entry.var,
            )
    if entry.vt is ValueType.PTR and not entry.maybe_stack_pointer:
        report.emit(
            "MIG015", Severity.ERROR,
            f"pointer-typed entry {entry.var!r} not flagged "
            f"maybe_stack_pointer; a stack pointer here would never be "
            f"fixed up",
            pass_name="stackmap", isa=isa_name, function=fn_name,
            site=site, symbol=entry.var,
        )


def _check_cross_isa_equivalence(binary, fn_name, expected, report) -> None:
    isas = binary.isa_names
    if len(isas) < 2:
        return
    ref_isa = isas[0]
    ref = binary.machine_function(ref_isa, fn_name).stackmaps
    for other_isa in isas[1:]:
        other = binary.machine_function(other_isa, fn_name).stackmaps
        for site in sorted(set(ref) & set(other)):
            report.note_checks("stackmap", 1)
            ref_vars = {e.var: e.vt for e in ref[site].entries}
            other_vars = {e.var: e.vt for e in other[site].entries}
            if set(ref_vars) != set(other_vars):
                only_ref = sorted(set(ref_vars) - set(other_vars))
                only_other = sorted(set(other_vars) - set(ref_vars))
                report.emit(
                    "MIG012", Severity.ERROR,
                    f"live sets differ across ISAs: only-{ref_isa}="
                    f"{only_ref}, only-{other_isa}={only_other}",
                    pass_name="stackmap", function=fn_name, site=site,
                )
                continue
            for var, vt in sorted(ref_vars.items()):
                if other_vars[var] is not vt:
                    report.emit(
                        "MIG012", Severity.ERROR,
                        f"{var!r} typed {vt.value} on {ref_isa} but "
                        f"{other_vars[var].value} on {other_isa}",
                        pass_name="stackmap", function=fn_name, site=site,
                        symbol=var,
                    )


# ---------------------------------------------------------------- unwind

def run_unwind_consistency(ctx, report: LintReport) -> None:
    """``MIG020``-``MIG023``: the stack walker's view must be complete.

    The transformation runtime finds callee-saved values by walking
    save slots recorded in the unwind metadata; a clobbered register
    with no slot makes that walk read garbage.  The CFA chain is only
    derivable when frame sizes are positive, ABI-aligned, and every
    anchor (return address, saved FP/LR) lies inside the frame without
    colliding with another slot.
    """
    binary = ctx.binary
    for isa_name in binary.isa_names:
        cbin = binary.binary_for(isa_name)
        for fn_name, mf in cbin.machine_functions.items():
            report.note_checks("unwind", 1)
            _check_save_slots(isa_name, mf, report)
            _check_cfa_derivable(isa_name, mf, report)
            _check_unwind_matches_frame(isa_name, mf, report)


def _check_save_slots(isa_name: str, mf: MachineFunction, report) -> None:
    frame = mf.frame
    unwind = mf.unwind
    clobbered = list(mf.alloc.clobbered_callee_saved)
    for reg in clobbered:
        if reg not in unwind.saved_reg_depths:
            report.emit(
                "MIG020", Severity.ERROR,
                f"callee-saved {reg} is clobbered (holds "
                f"{_var_in_reg(mf, reg)!r}) but has no save slot; the "
                f"caller's value is unrecoverable during unwinding",
                pass_name="unwind", isa=isa_name, function=mf.name,
                symbol=reg,
            )
    clobbered_set = set(clobbered)
    for reg in sorted(unwind.saved_reg_depths):
        regfile = mf.isa.regfile
        if reg not in clobbered_set:
            report.emit(
                "MIG021", Severity.WARNING,
                f"save slot recorded for {reg}, which this function "
                f"never clobbers",
                pass_name="unwind", isa=isa_name, function=mf.name,
                symbol=reg,
            )
        elif reg in regfile and not regfile[reg].callee_saved:
            report.emit(
                "MIG021", Severity.WARNING,
                f"save slot recorded for caller-saved {reg}; it is dead "
                f"across the call anyway",
                pass_name="unwind", isa=isa_name, function=mf.name,
                symbol=reg,
            )
    del frame  # frame agreement is checked by _check_unwind_matches_frame


def _var_in_reg(mf: MachineFunction, reg: str) -> str:
    for var, assigned in mf.alloc.reg_assignment.items():
        if assigned == reg:
            return var
    return "?"


def _frame_objects(mf: MachineFunction) -> List[Tuple[str, int, int]]:
    """Every object in the frame as (label, start_offset, size) with
    offsets relative to the CFA (negative, growing down)."""
    frame = mf.frame
    objects = []
    if frame.return_addr_depth:
        objects.append(("return address", -frame.return_addr_depth, WORD))
    if frame.saved_fp_depth:
        objects.append(("saved FP", -frame.saved_fp_depth, WORD))
    if frame.saved_lr_depth:
        objects.append(("saved LR", -frame.saved_lr_depth, WORD))
    for reg, depth in frame.saved_reg_depths.items():
        objects.append((f"save slot {reg}", -depth, WORD))
    for var, depth in frame.slot_depths.items():
        objects.append((f"local {var}", -depth, WORD))
    for name, (depth, size) in frame.buffer_depths.items():
        objects.append((f"buffer {name}", -depth, size))
    return objects


def _check_cfa_derivable(isa_name: str, mf: MachineFunction, report) -> None:
    frame = mf.frame
    unwind = mf.unwind
    emit = lambda msg, sym="": report.emit(  # noqa: E731
        "MIG022", Severity.ERROR, msg,
        pass_name="unwind", isa=isa_name, function=mf.name, symbol=sym,
    )
    align = mf.isa.cc.stack_alignment
    if frame.frame_size <= 0:
        emit(f"non-positive frame size {frame.frame_size}")
        return
    if frame.frame_size % align:
        emit(
            f"frame size {frame.frame_size} not {align}-byte aligned; "
            f"the callee CFA (caller CFA - frame size) would be misaligned"
        )
    style = mf.isa.cc.frame_style
    if style is FrameLayoutStyle.SYSV_X86_64:
        if unwind.return_addr_depth <= 0:
            emit("x86-64 frame without a pushed return-address depth")
        if unwind.saved_lr_depth:
            emit("x86-64 frame claims an LR save slot")
    elif style is FrameLayoutStyle.AAPCS64:
        if unwind.saved_lr_depth <= 0:
            emit("AArch64 frame without a saved-LR depth")
        if unwind.return_addr_depth:
            emit("AArch64 frame claims a pushed return address")
    if unwind.saved_fp_depth <= 0:
        emit("frame without a saved-FP depth; the FP chain breaks here")
    objects = _frame_objects(mf)
    for label, start, size in objects:
        if start < -frame.frame_size or start + size > 0:
            emit(
                f"{label} at CFA{start:+d} (+{size}) lies outside the "
                f"{frame.frame_size}-byte frame",
                sym=label,
            )
    placed = sorted(objects, key=lambda o: o[1])
    for (label_a, start_a, size_a), (label_b, start_b, _sb) in zip(
        placed, placed[1:]
    ):
        if start_a + size_a > start_b:
            emit(
                f"{label_a} at CFA{start_a:+d} (+{size_a}) overlaps "
                f"{label_b} at CFA{start_b:+d}",
                sym=label_a,
            )


def _check_unwind_matches_frame(isa_name, mf: MachineFunction, report) -> None:
    frame, unwind = mf.frame, mf.unwind
    mismatches = []
    if unwind.frame_size != frame.frame_size:
        mismatches.append(
            f"frame_size {unwind.frame_size} != {frame.frame_size}"
        )
    for attr in ("return_addr_depth", "saved_fp_depth", "saved_lr_depth"):
        if getattr(unwind, attr) != getattr(frame, attr):
            mismatches.append(
                f"{attr} {getattr(unwind, attr)} != {getattr(frame, attr)}"
            )
    if dict(unwind.saved_reg_depths) != dict(frame.saved_reg_depths):
        mismatches.append(
            f"saved_reg_depths {dict(unwind.saved_reg_depths)} != "
            f"{dict(frame.saved_reg_depths)}"
        )
    for mismatch in mismatches:
        report.emit(
            "MIG023", Severity.ERROR,
            f"unwind metadata diverged from the frame layout: {mismatch}",
            pass_name="unwind", isa=isa_name, function=mf.name,
        )


# ---------------------------------------------------------------- layout

def run_layout_lint(ctx, report: LintReport) -> None:
    """``MIG030``-``MIG034``: one common address space for all ISAs.

    Identical virtual addresses for every shared symbol are what make
    pointers (and the TLS block) migrate as plain bits.  The pass
    re-runs symbol alignment from the per-ISA objects and diffs it
    against the linked layout, then checks padding, overlap, section
    extents and TLS canonical form.
    """
    binary = ctx.binary
    layout = binary.layout
    _check_symbol_addresses(binary, report)
    _check_placed_symbols(binary, report)
    _check_section_extents(binary, report)
    _check_tls(binary, report)
    del layout


def _check_symbol_addresses(binary, report) -> None:
    layout = binary.layout
    # Code addresses: every ISA's .text must be aliased at the common VA.
    for isa_name in binary.isa_names:
        cbin = binary.binary_for(isa_name)
        for fn_name, mf in cbin.machine_functions.items():
            report.note_checks("layout", 1)
            common = layout.address_of(fn_name)
            if mf.text_addr != common:
                report.emit(
                    "MIG030", Severity.ERROR,
                    f"code placed at {mf.text_addr:#x} but the common "
                    f"layout puts {fn_name} at {common:#x}; return "
                    f"addresses would diverge across ISAs",
                    pass_name="layout", isa=isa_name, function=fn_name,
                    symbol=fn_name,
                )
    # Recompute the alignment from the retained per-ISA objects.
    if layout.aligned and len(binary.isa_names) >= 2:
        objects = [
            binary.binary_for(isa).object for isa in binary.isa_names
        ]
        try:
            fresh = align_symbols(objects, binary.vm_map, align_functions=True)
        except ValueError as exc:
            report.emit(
                "MIG030", Severity.ERROR,
                f"symbol alignment is not reproducible: {exc}",
                pass_name="layout",
            )
            return
        for name, placed in sorted(fresh.symbols.items()):
            report.note_checks("layout", 1)
            linked = layout.symbols.get(name)
            if linked is None:
                report.emit(
                    "MIG030", Severity.ERROR,
                    f"symbol present in the objects but absent from the "
                    f"linked layout",
                    pass_name="layout", symbol=name,
                )
            elif linked.address != placed.address:
                report.emit(
                    "MIG030", Severity.ERROR,
                    f"linked at {linked.address:#x} but alignment "
                    f"recomputation places it at {placed.address:#x}",
                    pass_name="layout", symbol=name,
                )
    # Cached global addresses must agree with the layout.
    for name, addr in sorted(binary.global_addresses.items()):
        if name in binary.layout.symbols and addr != binary.layout.address_of(name):
            report.emit(
                "MIG030", Severity.ERROR,
                f"cached global address {addr:#x} != layout "
                f"{binary.layout.address_of(name):#x}",
                pass_name="layout", symbol=name,
            )


def _check_placed_symbols(binary, report) -> None:
    layout = binary.layout
    for name, placed in sorted(layout.symbols.items()):
        report.note_checks("layout", 1)
        for isa_name, size in sorted(placed.sizes.items()):
            if layout.aligned and placed.padded_size < size:
                report.emit(
                    "MIG034", Severity.ERROR,
                    f"padded to {placed.padded_size} bytes but the "
                    f"{isa_name} code/data is {size} bytes; the alias "
                    f"would truncate it",
                    pass_name="layout", isa=isa_name, symbol=name,
                )
    # Overlap within and across sections (addresses are global).
    placed_all = sorted(layout.symbols.values(), key=lambda s: s.address)
    for a, b in zip(placed_all, placed_all[1:]):
        if a.end > b.address:
            report.emit(
                "MIG032", Severity.ERROR,
                f"{a.name} [{a.address:#x},{a.end:#x}) overlaps "
                f"{b.name} at {b.address:#x}",
                pass_name="layout", symbol=a.name,
            )


def _check_section_extents(binary, report) -> None:
    layout = binary.layout
    vm = binary.vm_map
    region_bases = sorted(
        (vm.text_base, vm.rodata_base, vm.data_base, vm.bss_base,
         vm.tls_template_base, vm.vdso_base, vm.heap_base)
    )

    def next_base(base: int) -> Optional[int]:
        for candidate in region_bases:
            if candidate > base:
                return candidate
        return None

    for section, extent in sorted(layout.section_extent.items()):
        report.note_checks("layout", 1)
        base = vm.section_base(section)
        limit = next_base(base)
        if limit is not None and extent > limit:
            report.emit(
                "MIG033", Severity.ERROR,
                f"section {section} extends to {extent:#x}, past the "
                f"next region base {limit:#x}",
                pass_name="layout", symbol=section,
            )
        for placed in layout.in_section(section):
            if placed.address < base:
                report.emit(
                    "MIG033", Severity.ERROR,
                    f"{placed.name} at {placed.address:#x} lies below "
                    f"its section base {base:#x}",
                    pass_name="layout", symbol=placed.name,
                )
    # Per-symbol natural alignment from the objects.
    for isa_name in binary.isa_names:
        obj = binary.binary_for(isa_name).object
        for section in obj.sections.values():
            for sym in section.symbols:
                placed = binary.layout.symbols.get(sym.name)
                if placed is not None and placed.address % sym.align:
                    report.emit(
                        "MIG033", Severity.ERROR,
                        f"{sym.name} at {placed.address:#x} violates its "
                        f"{sym.align}-byte alignment",
                        pass_name="layout", isa=isa_name, symbol=sym.name,
                    )


def _check_tls(binary, report) -> None:
    tls = binary.tls
    fresh = build_tls_layout(binary.module.globals.values())
    report.note_checks("layout", max(len(fresh.offsets), 1))
    if tls.offsets != fresh.offsets or tls.block_size != fresh.block_size:
        drift = sorted(
            set(tls.offsets.items()) ^ set(fresh.offsets.items())
        )
        report.emit(
            "MIG031", Severity.ERROR,
            f"TLS layout diverged from the canonical x86-64 mapping "
            f"(block {tls.block_size} vs {fresh.block_size}, drift "
            f"{drift[:4]})",
            pass_name="layout", symbol=".tls",
        )
    if tls.block_size % 16:
        report.emit(
            "MIG031", Severity.ERROR,
            f"TLS block size {tls.block_size} not 16-byte aligned",
            pass_name="layout", symbol=".tls",
        )
    spans = []
    for name, offset in sorted(tls.offsets.items()):
        size = tls.element_size.get(name, WORD) * tls.element_count.get(name, 1)
        if not (-tls.block_size <= offset and offset + size <= 0):
            report.emit(
                "MIG031", Severity.ERROR,
                f"TLS symbol {name} at offset {offset} (+{size}) lies "
                f"outside the variant-2 block [-{tls.block_size}, 0)",
                pass_name="layout", symbol=name,
            )
        spans.append((offset, size, name))
    spans.sort()
    for (off_a, size_a, name_a), (off_b, _sb, name_b) in zip(spans, spans[1:]):
        if off_a + size_a > off_b:
            report.emit(
                "MIG031", Severity.ERROR,
                f"TLS symbols {name_a} and {name_b} overlap",
                pass_name="layout", symbol=name_a,
            )


# -------------------------------------------------------------- coverage

def run_migration_coverage(ctx, report: LintReport) -> None:
    """``MIG002``/``MIG040``-``MIG042``: responsiveness is bounded.

    The paper targets one migration point per ~50M instructions; a
    thread between points cannot react to a scheduling decision.  The
    pass bounds the static instruction cost of the longest
    point-free CFG path per function (loop-aware: a cycle without a
    point is unbounded repetition) using the codegen cost annotations.
    Work bursts use their constant amount; a dynamic burst is bounded
    by the strip-mine chunk constant when the defining ``min`` is
    visible, and is unbounded otherwise.
    """
    binary = ctx.binary
    if ctx.point_mode == "none":
        return  # bare baseline binary: coverage intentionally absent
    target = ctx.target_gap
    # The one-chunk-per-point design makes a point-free segment of one
    # full chunk (plus scaffolding) inherent; only flag real excess.
    slack = 1.5
    for fn_name, fn in binary.module.functions.items():
        reason = unmigratable_reason(fn)
        if reason:
            report.note_checks("coverage", 1)
            report.emit(
                "MIG002", Severity.INFO,
                f"skipped by migration-safety passes: {reason}",
                pass_name="coverage", function=fn_name,
            )
            continue
        for isa_name in binary.isa_names:
            mf = binary.machine_function(isa_name, fn_name)
            report.note_checks("coverage", 1)
            _check_function_coverage(isa_name, mf, target, slack, report)


def _instr_cost(mf: MachineFunction, mi) -> float:
    """Static machine-instruction bound for one lowered instruction."""
    if isinstance(mi.ir, Work):
        amount = mi.ir.amount
        if isinstance(amount, (int, float)):
            expansion = mf.isa.expansion(_work_class(mi.ir.kind))
            return float(amount) * expansion + mi.total
        return math.inf  # bounded later by the chunk pattern, if visible
    return mi.total


def _work_class(kind: str) -> InstrClass:
    try:
        return InstrClass(kind)
    except ValueError:
        return InstrClass.INT_ALU


def _bound_dynamic_work(mf: MachineFunction, label: str, costs: List[float]) -> None:
    """Replace inf costs of strip-mined bursts with the chunk constant.

    ``_strip_mine`` emits ``chunk = min(rem, C); work(chunk)``; when the
    defining ``min`` with a constant operand is visible earlier in the
    same block, ``C`` bounds the burst.
    """
    instrs = mf.blocks[label]
    for i, mi in enumerate(instrs):
        if not math.isinf(costs[i]) or not isinstance(mi.ir, Work):
            continue
        amount = mi.ir.amount
        for j in range(i - 1, -1, -1):
            ir = instrs[j].ir
            if getattr(ir, "dst", None) != amount:
                continue
            if getattr(ir, "op", "") == "min":
                consts = [
                    op for op in (ir.a, ir.b) if isinstance(op, (int, float))
                ]
                if consts:
                    expansion = mf.isa.expansion(_work_class(mi.ir.kind))
                    costs[i] = float(min(consts)) * expansion + mi.total
            break


def _check_function_coverage(
    isa_name: str, mf: MachineFunction, target: int, slack: float, report
) -> None:
    fn = mf.fn
    order = fn.block_order
    # Per-block segment costs around migration points.
    prefix: Dict[str, float] = {}   # cost before the first point
    suffix: Dict[str, float] = {}   # cost after the last point
    total: Dict[str, float] = {}    # whole-block cost
    has_point: Dict[str, bool] = {}
    has_work: Dict[str, bool] = {}
    unbounded_work: Dict[str, bool] = {}
    for label in order:
        instrs = mf.blocks[label]
        costs = [_instr_cost(mf, mi) for mi in instrs]
        _bound_dynamic_work(mf, label, costs)
        points = [
            i for i, mi in enumerate(instrs) if isinstance(mi.ir, MigPoint)
        ]
        total[label] = ordered_sum(costs)
        has_point[label] = bool(points)
        has_work[label] = any(isinstance(mi.ir, Work) for mi in instrs)
        unbounded_work[label] = any(math.isinf(c) for c in costs)
        if points:
            prefix[label] = ordered_sum(costs[: points[0]])
            suffix[label] = ordered_sum(costs[points[-1] + 1:])
        else:
            prefix[label] = suffix[label] = total[label]

    succs = {label: fn.blocks[label].successors() for label in order}
    _check_cycles(
        isa_name, mf, succs, has_point, has_work, unbounded_work, total,
        target, report,
    )
    _check_longest_path(
        isa_name, mf, order, succs, prefix, suffix, total, has_point,
        target, slack, report,
    )


def _check_cycles(
    isa_name, mf, succs, has_point, has_work, unbounded_work, total,
    target, report,
) -> None:
    for component in strongly_connected(mf.fn.block_order, succs):
        members = set(component)
        if len(component) == 1:
            label = component[0]
            if label not in succs.get(label, ()):  # no self-loop
                continue
        if any(has_point[label] for label in members):
            continue
        iteration_cost = ordered_sum(total[label] for label in members)
        looped_work = any(has_work[label] for label in members)
        where = ",".join(sorted(members))
        if any(unbounded_work[label] for label in members):
            report.emit(
                "MIG041", Severity.ERROR,
                f"loop {{{where}}} executes an unbounded work burst with "
                f"no migration point on the cycle",
                pass_name="coverage", isa=isa_name, function=mf.name,
                symbol=sorted(members)[0],
            )
        elif looped_work and iteration_cost > target:
            report.emit(
                "MIG041", Severity.ERROR,
                f"loop {{{where}}} costs ~{iteration_cost:.0f} machine "
                f"instructions per iteration (> target gap {target}) "
                f"with no migration point on the cycle",
                pass_name="coverage", isa=isa_name, function=mf.name,
                symbol=sorted(members)[0],
            )
        elif looped_work:
            report.emit(
                "MIG041", Severity.WARNING,
                f"loop {{{where}}} repeats a work burst "
                f"(~{iteration_cost:.0f} instructions/iteration) with no "
                f"migration point; total gap grows with the trip count",
                pass_name="coverage", isa=isa_name, function=mf.name,
                symbol=sorted(members)[0],
            )
        else:
            report.emit(
                "MIG042", Severity.INFO,
                f"loop {{{where}}} has no migration point; repetition "
                f"is not statically bounded",
                pass_name="coverage", isa=isa_name, function=mf.name,
                symbol=sorted(members)[0],
            )


def _check_longest_path(
    isa_name, mf, order, succs, prefix, suffix, total, has_point,
    target, slack, report,
) -> None:
    """Longest point-free path over the acyclic condensation.

    ``in_cost[b]`` is the maximum point-free cost flowing into block
    ``b``; a path candidate ends at b's first migration point (or at
    function exit).  Back edges are handled by the cycle check; here
    they are dropped, so the bound is over acyclic executions.
    """
    position = {label: i for i, label in enumerate(order)}
    in_cost: Dict[str, float] = {label: 0.0 for label in order}
    best = 0.0
    best_at = order[0] if order else ""
    for label in order:
        candidate = in_cost[label] + prefix[label]
        if candidate > best:
            best, best_at = candidate, label
        out = suffix[label] if has_point[label] else in_cost[label] + total[label]
        for succ in succs.get(label, ()):
            # Forward edges only: position order approximates topological
            # order for builder-generated CFGs.
            if position.get(succ, -1) > position[label]:
                in_cost[succ] = max(in_cost[succ], out)
    threshold = target * slack
    if math.isinf(best):
        report.emit(
            "MIG040", Severity.ERROR,
            f"a migration-point-free path through {best_at} executes an "
            f"unbounded work burst; responsiveness is unbounded",
            pass_name="coverage", isa=isa_name, function=mf.name,
            symbol=best_at,
        )
    elif best > threshold:
        report.emit(
            "MIG040", Severity.WARNING,
            f"longest migration-point-free path costs ~{best:.0f} machine "
            f"instructions (> {slack:g}x target gap {target}), ending in "
            f"block {best_at}",
            pass_name="coverage", isa=isa_name, function=mf.name,
            symbol=best_at,
        )
