"""IR-level lint passes: structural validity and stack-pointer escape.

These passes need only a :class:`~repro.ir.function.Module`, so they run
both standalone (``repro lint`` before the toolchain) and as the first
stage of a whole-binary lint.
"""

from typing import Set

from repro.analyze.diagnostics import LintReport, Severity
from repro.ir.function import Function, Module
from repro.ir.instructions import (
    AddrOf,
    BinOp,
    Call,
    InlineAsm,
    MigPoint,
    StackAlloc,
    Store,
    Syscall,
    UnOp,
)
from repro.ir.validate import ValidationError, validate_module
from repro.isa.types import ValueType


def run_ir_validity(ctx, report: LintReport) -> None:
    """Aggregate :mod:`repro.ir.validate` into ``MIG001`` diagnostics.

    The structural validator raises a single :class:`ValidationError`
    mid-pipeline; here every recorded problem becomes its own
    diagnostic so a broken module surfaces all at once.
    """
    module: Module = ctx.module
    report.note_checks("ir", len(module.functions) or 1)
    try:
        validate_module(module)
    except ValidationError as exc:
        for problem in exc.problems:
            report.emit(
                "MIG001", Severity.ERROR, problem, pass_name="ir",
                function=_function_of(problem),
            )


def _function_of(problem: str) -> str:
    # validate_module prefixes most problems with "function <name>".
    if problem.startswith("function "):
        return problem[len("function "):].split(":")[0].split(" ")[0]
    return ""


# ---------------------------------------------------------------- escape

def _stack_tainted(fn: Function) -> Set[str]:
    """Locals that may hold an address into this function's own frame.

    Flow-insensitive forward taint: seeds are ``stack_alloc`` results
    and ``addr_of`` over locals/buffers; taint propagates through moves
    and arithmetic (pointer adjustment), never through loads.
    """
    tainted: Set[str] = set()
    changed = True
    while changed:
        changed = False
        for _, _, instr in fn.instructions():
            dst = getattr(instr, "dst", "")
            if not dst or dst in tainted:
                continue
            if isinstance(instr, StackAlloc):
                hit = True
            elif isinstance(instr, AddrOf):
                hit = (
                    instr.symbol in fn.var_types
                    or instr.symbol in fn.stack_buffers
                )
            elif isinstance(instr, (BinOp, UnOp)):
                hit = any(u in tainted for u in instr.uses())
            else:
                hit = False
            if hit:
                tainted.add(dst)
                changed = True
    return tainted


def run_stack_escape(ctx, report: LintReport) -> None:
    """``MIG050``/``MIG051``: stack addresses the fix-up cannot track.

    The transformation runtime only rewrites stack pointers it can see:
    live, pointer-typed stackmap entries.  A stack address written
    through a pointer ends up in raw memory — fatal when the target is
    the heap or a global (the old stack half dies with the migration),
    and a silent hazard even stack-to-stack (buffers are copied
    verbatim, without fix-up).  ``MIG051`` flags the related blind spot:
    a stack-derived value typed as a plain integer that is live across a
    migration site is copied bit-for-bit, never fixed up.
    """
    module: Module = ctx.module
    for name, fn in module.functions.items():
        tainted = _stack_tainted(fn)
        report.note_checks("escape", 1)
        if not tainted:
            continue
        for label, i, instr in fn.instructions():
            if not isinstance(instr, Store):
                continue
            src = instr.src
            if not isinstance(src, str) or src not in tainted:
                continue
            addr_is_stack = isinstance(instr.addr, str) and instr.addr in tainted
            if addr_is_stack:
                report.emit(
                    "MIG050", Severity.WARNING,
                    f"stack address {src!r} stored into stack memory at "
                    f"{label}:{i}; buffer contents are copied without "
                    f"pointer fix-up",
                    pass_name="escape", function=name, symbol=src,
                )
            else:
                report.emit(
                    "MIG050", Severity.ERROR,
                    f"stack address {src!r} escapes to a heap/global store "
                    f"at {label}:{i}; it will dangle after migration",
                    pass_name="escape", function=name, symbol=src,
                )
        _flag_untyped_stack_values(fn, tainted, report)


def _flag_untyped_stack_values(
    fn: Function, tainted: Set[str], report: LintReport
) -> None:
    live_at_sites = _live_across_sites(fn)
    for var in sorted(tainted & live_at_sites):
        if fn.var_types.get(var) is not ValueType.PTR:
            report.emit(
                "MIG051", Severity.WARNING,
                f"stack-derived value {var!r} has type "
                f"{fn.var_types[var].value}, not ptr; it is live across a "
                f"migration site but invisible to the pointer fix-up",
                pass_name="escape", function=fn.name, symbol=var,
            )


def _live_across_sites(fn: Function) -> Set[str]:
    from repro.ir.analysis import liveness

    live = liveness(fn)
    across: Set[str] = set()
    for label, i, instr in fn.instructions():
        if isinstance(instr, (Call, Syscall, MigPoint)):
            after = set(live.live_after[(label, i)])
            after.discard(getattr(instr, "dst", ""))
            across |= after
    return across


def unmigratable_reason(fn: Function) -> str:
    """Why migration-safety passes skip ``fn`` ('' when they don't)."""
    if fn.library:
        return "library code (Section 5.4: no migration during library calls)"
    for _, _, instr in fn.instructions():
        if isinstance(instr, InlineAsm):
            return "inline assembly defeats the live-variable analysis"
    return ""
