"""Register allocation.

A deliberately simple allocator that still produces the asymmetries the
paper's runtime has to cope with:

* locals live across a call or migration point may only use
  *callee-saved* registers — of which ARM64 has ten GPRs plus eight
  FPRs, while SysV x86-64 has five GPRs and **zero** FPRs, so the same
  function keeps FP state in registers on ARM and spills it on x86;
* address-taken locals and allocas are pinned to memory;
* everything that does not fit spills to a frame slot.

Allocation is per-function and static (one location per local for the
whole function), which keeps stackmaps exact and the transformation
runtime honest.
"""

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

from repro.ir.analysis import LivenessResult, liveness
from repro.ir.function import Function
from repro.isa.isa import Isa
from repro.isa.registers import RegKind


@dataclass
class AllocationResult:
    """Outcome of register allocation for one function on one ISA."""

    # var -> register name (only register-resident vars appear here).
    reg_assignment: Dict[str, str] = field(default_factory=dict)
    # Locals that need a frame slot, in deterministic layout order.
    memory_locals: List[str] = field(default_factory=list)
    # Callee-saved registers clobbered by this function (need saving).
    clobbered_callee_saved: List[str] = field(default_factory=list)


def _is_float(fn: Function, var: str) -> bool:
    return fn.var_types[var].is_float


def allocate_registers(
    fn: Function, isa: Isa, live: Optional[LivenessResult] = None
) -> AllocationResult:
    """Assign every local of ``fn`` a register or a frame slot on ``isa``.

    ``live`` is ``fn``'s liveness, if the caller already has it.
    """
    if live is None:
        live = liveness(fn)
    across_calls = live.live_across_calls(fn)
    pinned: Set[str] = set(fn.address_taken)

    result = AllocationResult()

    callee_gprs = [r.name for r in isa.regfile.callee_saved(RegKind.GPR)]
    callee_fprs = [r.name for r in isa.regfile.callee_saved(RegKind.FPR)]
    caller_gprs = [r.name for r in isa.regfile.caller_saved(RegKind.GPR)]
    caller_fprs = [r.name for r in isa.regfile.caller_saved(RegKind.FPR)]
    # Reserve a couple of caller-saved scratch registers for codegen
    # (address computation, immediates) so they never hold locals.
    caller_gprs = caller_gprs[2:]
    caller_fprs = caller_fprs[2:]

    # Deterministic order: params first, then locals by first appearance.
    ordered = [name for name, _ in fn.params]
    seen = set(ordered)
    for _, _, instr in fn.instructions():
        for var in list(instr.defs()) + list(instr.uses()):
            if var not in seen:
                seen.add(var)
                ordered.append(var)
    for var in fn.var_types:
        if var not in seen:
            ordered.append(var)
            seen.add(var)

    free_callee = {RegKind.GPR: list(callee_gprs), RegKind.FPR: list(callee_fprs)}
    free_caller = {RegKind.GPR: list(caller_gprs), RegKind.FPR: list(caller_fprs)}

    for var in ordered:
        if var in pinned:
            result.memory_locals.append(var)
            continue
        kind = RegKind.FPR if _is_float(fn, var) else RegKind.GPR
        if var in across_calls:
            pool = free_callee[kind]
            if pool:
                reg = pool.pop(0)
                result.reg_assignment[var] = reg
                result.clobbered_callee_saved.append(reg)
            else:
                result.memory_locals.append(var)
        else:
            pool = free_caller[kind]
            if pool:
                result.reg_assignment[var] = pool.pop(0)
            else:
                # Fall back to remaining callee-saved, then to memory.
                pool = free_callee[kind]
                if pool:
                    reg = pool.pop(0)
                    result.reg_assignment[var] = reg
                    result.clobbered_callee_saved.append(reg)
                else:
                    result.memory_locals.append(var)

    return result
