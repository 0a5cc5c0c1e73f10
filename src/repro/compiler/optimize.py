"""Middle-end optimisation passes.

The paper's pipeline "runs standard compiler optimizations and several
custom passes over LLVM's intermediate representation" before the
per-ISA back-ends.  This module provides the standard-optimisation
stage for our IR:

* constant folding (arithmetic on literal operands),
* copy propagation (forward `mov`/`const` values within a block),
* dead code elimination (unused pure definitions),
* branch simplification (constant-condition CBr -> Br),
* unreachable block elimination.

Passes are semantics-preserving by construction and run to a fixed
point; the toolchain applies them at ``opt_level >= 1``.  Migration
safety is unaffected: passes run *before* migration-point insertion and
site-id assignment, exactly as in the paper's flow (Figure 2).
"""

from typing import Dict, List, Set, Union

from repro.ir.function import Function, Module
from repro.ir.instructions import (
    AddrOf,
    BinOp,
    Br,
    CBr,
    Const,
    UnOp,
)
# The interpreter uses the same tables, so folding and execution can
# never disagree about semantics.
from repro.ir.semantics import FLOAT_BIN as _FLOAT_BIN
from repro.ir.semantics import INT_BIN as _INT_BIN
from repro.ir.semantics import apply_unop as _apply_unop

# Instructions whose only effect is defining their destination.
_PURE = (Const, BinOp, UnOp, AddrOf)


def _fold_binop(instr: BinOp):
    if isinstance(instr.a, str) or isinstance(instr.b, str):
        return None
    ops = _FLOAT_BIN if instr.vt.is_float else _INT_BIN
    try:
        return ops[instr.op](instr.a, instr.b)
    except ZeroDivisionError:
        return None  # keep the trap behaviour at runtime


def _fold_unop(instr: UnOp):
    if isinstance(instr.a, str):
        return None
    try:
        return _apply_unop(instr.op, instr.a)
    except (ValueError, TypeError):
        return None


def constant_fold(fn: Function) -> int:
    """Replace constant-operand BinOp/UnOp with Const; returns count."""
    changed = 0
    for label in fn.block_order:
        block = fn.blocks[label]
        for i, instr in enumerate(block.instrs):
            value = None
            if isinstance(instr, BinOp):
                value = _fold_binop(instr)
            elif isinstance(instr, UnOp) and instr.op != "mov":
                value = _fold_unop(instr)
            if value is not None:
                block.instrs[i] = Const(instr.dst, value, instr.vt)
                changed += 1
    return changed


def copy_propagate(fn: Function) -> int:
    """Forward known constants/copies within each basic block."""
    changed = 0
    for label in fn.block_order:
        known: Dict[str, Union[int, float, str]] = {}
        block = fn.blocks[label]
        for instr in block.instrs:
            # Substitute known values into operand fields.
            for attr in ("a", "b", "addr", "src", "cond", "amount", "pages"):
                value = getattr(instr, attr, None)
                if isinstance(value, str) and value in known:
                    # Every operand slot accepts either a variable name
                    # or a literal, so substitution is always well-typed.
                    setattr(instr, attr, known[value])
                    changed += 1
            if hasattr(instr, "args"):
                new_args = []
                for arg in instr.args:
                    if isinstance(arg, str) and arg in known:
                        new_args.append(known[arg])
                        changed += 1
                    else:
                        new_args.append(arg)
                instr.args = new_args
            if hasattr(instr, "value") and isinstance(getattr(instr, "value"), str):
                if instr.value in known:
                    instr.value = known[instr.value]
                    changed += 1
            # Update the known map.
            defs = instr.defs()
            if isinstance(instr, Const):
                known[instr.dst] = instr.value
            elif isinstance(instr, UnOp) and instr.op == "mov":
                source = instr.a
                known[instr.dst] = known.get(source, source) if isinstance(
                    source, str
                ) else source
            else:
                for d in defs:
                    known.pop(d, None)
            # A definition invalidates any mapping THROUGH the defined
            # name (x -> y where y just changed).
            for d in defs:
                stale = [k for k, v in known.items() if v == d and k != d]
                for k in stale:
                    del known[k]
    return changed


def eliminate_dead_code(fn: Function) -> int:
    """Drop pure definitions whose destination is never read.

    Iterates to a local fixed point: removing one dead definition can
    make its operands' definitions dead in turn.
    """
    from repro.ir.analysis import liveness

    total = 0
    while True:
        live = liveness(fn)
        changed = 0
        for label in fn.block_order:
            block = fn.blocks[label]
            kept: List = []
            for i, instr in enumerate(block.instrs):
                if (
                    isinstance(instr, _PURE)
                    and instr.dst not in live.live_after[(label, i)]
                    and instr.dst not in fn.address_taken
                ):
                    changed += 1
                    continue
                kept.append(instr)
            block.instrs = kept
        total += changed
        if changed == 0:
            return total


def simplify_branches(fn: Function) -> int:
    """CBr on a constant condition becomes an unconditional Br."""
    changed = 0
    for label in fn.block_order:
        block = fn.blocks[label]
        if not block.instrs:
            continue
        term = block.instrs[-1]
        if isinstance(term, CBr) and not isinstance(term.cond, str):
            target = term.if_true if term.cond else term.if_false
            block.instrs[-1] = Br(target)
            changed += 1
    return changed


def remove_unreachable_blocks(fn: Function) -> int:
    """Drop blocks no path from the entry reaches."""
    reachable: Set[str] = set()
    stack = [fn.entry]
    while stack:
        label = stack.pop()
        if label in reachable:
            continue
        reachable.add(label)
        stack.extend(fn.blocks[label].successors())
    doomed = [label for label in fn.block_order if label not in reachable]
    for label in doomed:
        del fn.blocks[label]
        fn.block_order.remove(label)
    return len(doomed)


def optimize_function(fn: Function, max_iterations: int = 10) -> Dict[str, int]:
    """Run all passes to a fixed point; returns per-pass change counts."""
    totals = {
        "constant_fold": 0,
        "copy_propagate": 0,
        "dead_code": 0,
        "branches": 0,
        "unreachable": 0,
    }
    for _ in range(max_iterations):
        round_changes = 0
        for name, pass_fn in (
            ("copy_propagate", copy_propagate),
            ("constant_fold", constant_fold),
            ("branches", simplify_branches),
            ("unreachable", remove_unreachable_blocks),
            ("dead_code", eliminate_dead_code),
        ):
            n = pass_fn(fn)
            totals[name] += n
            round_changes += n
        if round_changes == 0:
            break
    return totals


def optimize_module(module: Module) -> Dict[str, int]:
    """Optimise every function; returns aggregated change counts."""
    totals: Dict[str, int] = {}
    for fn in module.functions.values():
        for name, count in optimize_function(fn).items():
            totals[name] = totals.get(name, 0) + count
    return totals
