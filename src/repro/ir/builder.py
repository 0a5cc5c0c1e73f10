"""Ergonomic construction of IR functions.

Workloads (repro.workloads) are written against this API.  The builder
tracks a *current block* and provides structured control flow so that
benchmark code reads like the C it stands in for:

>>> from repro.ir import Module, FunctionBuilder
>>> from repro.isa.types import ValueType as VT
>>> m = Module("demo")
>>> fb = FunctionBuilder(m.function("sum_to", [("n", VT.I64)], VT.I64))
>>> acc = fb.local("acc", VT.I64, init=0)
>>> with fb.for_range("i", 0, "n") as i:
...     fb.binop_into(acc, "add", acc, i, VT.I64)
>>> fb.ret(acc)
"""

import contextlib
from typing import Callable, List, Optional

from repro.ir.function import BasicBlock, Function
from repro.ir.instructions import (
    AddrOf,
    BinOp,
    Br,
    CBr,
    Call,
    Const,
    InlineAsm,
    Load,
    MigPoint,
    Operand,
    Ret,
    StackAlloc,
    Store,
    Syscall,
    UnOp,
    Work,
)
from repro.isa.types import ValueType


class FunctionBuilder:
    """Builds the body of one :class:`Function`."""

    def __init__(self, fn: Function):
        self.fn = fn
        self._current: BasicBlock = fn.block("entry")
        self._temp_counter = 0
        self._migpoint_counter = 0

    # ---------------------------------------------------------------- blocks

    @property
    def current(self) -> BasicBlock:
        return self._current

    def emit(self, instr) -> None:
        self._current.append(instr)

    def new_block(self, label: str = "") -> BasicBlock:
        return self.fn.block(label)

    def switch_to(self, block: BasicBlock) -> None:
        self._current = block

    def branch_to(self, block: BasicBlock) -> None:
        """Terminate the current block with a jump and continue in ``block``."""
        if not self._current.terminated:
            self.emit(Br(block.label))
        self._current = block

    # ---------------------------------------------------------------- values

    def local(self, name: str, vt: ValueType, init: Optional[Operand] = None) -> str:
        self.fn.declare(name, vt)
        if init is not None:
            self.assign(name, init, vt)
        return name

    def temp(self, vt: ValueType) -> str:
        name = f".t{self._temp_counter}"
        self._temp_counter += 1
        return self.fn.declare(name, vt)

    def assign(self, dst: str, src: Operand, vt: Optional[ValueType] = None) -> str:
        vt = vt or self.fn.var_types.get(dst) or ValueType.I64
        self.fn.declare(dst, vt)
        if isinstance(src, str):
            self.emit(UnOp(dst, "mov", src, vt))
        else:
            self.emit(Const(dst, src, vt))
        return dst

    def binop(self, op: str, a: Operand, b: Operand, vt: ValueType) -> str:
        dst = self.temp(vt)
        self.emit(BinOp(dst, op, a, b, vt))
        return dst

    def binop_into(self, dst: str, op: str, a: Operand, b: Operand, vt: ValueType) -> str:
        self.fn.declare(dst, vt)
        self.emit(BinOp(dst, op, a, b, vt))
        return dst

    def unop(self, op: str, a: Operand, vt: ValueType) -> str:
        dst = self.temp(vt)
        self.emit(UnOp(dst, op, a, vt))
        return dst

    # ---------------------------------------------------------------- memory

    def load(self, addr: Operand, offset: int, vt: ValueType) -> str:
        dst = self.temp(vt)
        self.emit(Load(dst, addr, offset, vt))
        return dst

    def store(self, addr: Operand, offset: int, src: Operand, vt: ValueType) -> None:
        self.emit(Store(addr, offset, src, vt))

    def addr_of(self, symbol: str) -> str:
        dst = self.temp(ValueType.PTR)
        self.emit(AddrOf(dst, symbol))
        if symbol in self.fn.var_types:
            self.fn.address_taken.add(symbol)
        return dst

    def stack_alloc(self, size: int, name: str = "") -> str:
        """Allocate ``size`` bytes in this function's frame; returns a PTR."""
        if not name:
            name = f".buf{len(self.fn.stack_buffers)}"
        self.fn.stack_buffers[name] = size
        dst = self.temp(ValueType.PTR)
        self.emit(StackAlloc(dst, size, name))
        return dst

    # ----------------------------------------------------------------- calls

    def call(
        self,
        callee: str,
        args: Optional[List[Operand]] = None,
        ret_vt: Optional[ValueType] = None,
    ) -> str:
        dst = self.temp(ret_vt) if ret_vt is not None else ""
        self.emit(Call(dst, callee, list(args or [])))
        return dst

    def syscall(
        self,
        name: str,
        args: Optional[List[Operand]] = None,
        ret_vt: Optional[ValueType] = None,
    ) -> str:
        dst = self.temp(ret_vt) if ret_vt is not None else ""
        self.emit(Syscall(dst, name, list(args or [])))
        return dst

    def ret(self, value: Optional[Operand] = None) -> None:
        self.emit(Ret(value))

    # ------------------------------------------------------------------ misc

    def work(
        self,
        amount: Operand,
        kind: str = "int_alu",
        pages: Optional[Operand] = None,
        span: int = 0,
    ) -> None:
        self.emit(Work(amount, kind, pages, span))

    def inline_asm(self, text: str, instr_estimate: int = 4) -> None:
        """Emit opaque inline assembly (makes the function unmigratable)."""
        self.emit(InlineAsm(text=text, instr_estimate=instr_estimate))

    def migration_point(self, origin: str = "explicit") -> None:
        self.emit(MigPoint(point_id=self._migpoint_counter, origin=origin))
        self._migpoint_counter += 1

    # --------------------------------------------------------- control flow

    @contextlib.contextmanager
    def for_range(
        self,
        var: str,
        start: Operand,
        stop: Operand,
        step: int = 1,
        vt: ValueType = ValueType.I64,
    ):
        """``for var in range(start, stop, step)`` over IR blocks."""
        self.local(var, vt, init=start)
        header = self.new_block()
        body = self.new_block()
        exit_block = self.new_block()
        self.branch_to(header)
        cond = self.binop("lt" if step > 0 else "gt", var, stop, vt)
        self.emit(CBr(cond, body.label, exit_block.label))
        self.switch_to(body)
        yield var
        if not self._current.terminated:
            self.binop_into(var, "add", var, step, vt)
            self.emit(Br(header.label))
        self.switch_to(exit_block)

    @contextlib.contextmanager
    def while_loop(self, make_cond: Callable[[], Operand]):
        """``while make_cond():`` — the callable emits into the header block."""
        header = self.new_block()
        body = self.new_block()
        exit_block = self.new_block()
        self.branch_to(header)
        cond = make_cond()
        self.emit(CBr(cond, body.label, exit_block.label))
        self.switch_to(body)
        yield
        if not self._current.terminated:
            self.emit(Br(header.label))
        self.switch_to(exit_block)

    @contextlib.contextmanager
    def if_then(self, cond: Operand):
        then_block = self.new_block()
        join = self.new_block()
        self.emit(CBr(cond, then_block.label, join.label))
        self.switch_to(then_block)
        yield
        if not self._current.terminated:
            self.emit(Br(join.label))
        self.switch_to(join)

    def if_then_else(
        self, cond: Operand, then_fn: Callable[[], None], else_fn: Callable[[], None]
    ) -> None:
        then_block = self.new_block()
        else_block = self.new_block()
        join = self.new_block()
        self.emit(CBr(cond, then_block.label, else_block.label))
        self.switch_to(then_block)
        then_fn()
        if not self._current.terminated:
            self.emit(Br(join.label))
        self.switch_to(else_block)
        else_fn()
        if not self._current.terminated:
            self.emit(Br(join.label))
        self.switch_to(join)
