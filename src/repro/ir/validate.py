"""Structural validation of IR modules.

Run by the toolchain before lowering; catches the usual construction
mistakes (unterminated blocks, branches to nowhere, undeclared locals,
calls to missing functions) at build time instead of interpret time.
"""

from typing import List

from repro.ir.function import Function, Module
from repro.ir.instructions import AddrOf, Call, StackAlloc


class ValidationError(Exception):
    """Raised when a module is structurally invalid."""

    def __init__(self, problems: List[str]):
        self.problems = problems
        super().__init__("; ".join(problems))


def _validate_function(fn: Function, module: Module, problems: List[str]) -> None:
    where = f"function {fn.name}"
    if not fn.block_order:
        problems.append(f"{where}: no blocks")
        return
    for label in fn.block_order:
        block = fn.blocks[label]
        if not block.terminated:
            problems.append(f"{where}: block {label} not terminated")
            continue
        for i, instr in enumerate(block.instrs[:-1]):
            if instr.is_terminator:
                problems.append(
                    f"{where}: terminator mid-block at {label}:{i}"
                )
        for succ in block.successors():
            if succ not in fn.blocks:
                problems.append(f"{where}: branch to unknown block {succ}")
    for label, i, instr in fn.instructions():
        at = f"{where} {label}:{i}"
        for use in instr.uses():
            if use not in fn.var_types:
                problems.append(f"{at}: use of undeclared local {use}")
        for d in instr.defs():
            if d not in fn.var_types:
                problems.append(f"{at}: def of undeclared local {d}")
        if isinstance(instr, Call) and instr.callee not in module.functions:
            problems.append(f"{at}: call to unknown function {instr.callee}")
        if isinstance(instr, AddrOf):
            known = (
                instr.symbol in module.globals
                or instr.symbol in fn.var_types
                or instr.symbol in fn.stack_buffers
                or instr.symbol in module.functions
            )
            if not known:
                problems.append(f"{at}: addr_of unknown symbol {instr.symbol}")
        if isinstance(instr, StackAlloc) and instr.size <= 0:
            problems.append(f"{at}: stack_alloc of size {instr.size}")


def validate_module(module: Module) -> None:
    """Raise :class:`ValidationError` if ``module`` is malformed."""
    problems: List[str] = []
    if module.entry not in module.functions:
        problems.append(f"entry function {module.entry} not defined")
    for fn in module.functions.values():
        _validate_function(fn, module, problems)
    if problems:
        raise ValidationError(problems)
