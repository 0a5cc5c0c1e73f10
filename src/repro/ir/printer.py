"""Textual IR: printing.

A human-readable serialisation of modules (the analogue of LLVM's
``.ll`` form), used by the CLI's ``dump`` command and round-trippable
through :mod:`repro.ir.parser`.  Format by example::

    module is.A.1
    entry main

    global g_keys i64 x 1
    global g_init f64 x 2 = [1.5, 2.5]
    tls tls_counter i64 x 1 = [100]

    func main() -> i64 {
    entry:
      acc : i64 = const 0
      t : i64 = add acc, 3
      p : ptr = addr_of cell
      store i64 [p + 0], t
      v : i64 = load i64 [p + 8]
      r : i64 = call accum(t, 5)
      x : i64 = syscall print(r)
      work 5000 int_alu pages=base span=4096
      asm "rep movsb" ~ 16
      migpoint 0 entry
      cbr v, body, exit
    body:
      br entry
    exit:
      ret acc
    }
"""

from typing import List

from repro.ir.function import Function, GlobalVar, Module
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


def _operand(op: Operand) -> str:
    if isinstance(op, str):
        return op
    if isinstance(op, float):
        return repr(op)
    return str(op)


def _vt(vt) -> str:
    return vt.value


def format_instr(instr, fn: Function = None) -> str:
    """One instruction as a line of text (no indentation).

    ``fn`` supplies destination types for call/syscall results; without
    it they print as ``i64``.
    """

    def dst_type(dst: str) -> str:
        if fn is not None and dst in fn.var_types:
            return _vt(fn.var_types[dst])
        return "i64"

    if isinstance(instr, Const):
        return f"{instr.dst} : {_vt(instr.vt)} = const {_operand(instr.value)}"
    if isinstance(instr, BinOp):
        return (
            f"{instr.dst} : {_vt(instr.vt)} = {instr.op} "
            f"{_operand(instr.a)}, {_operand(instr.b)}"
        )
    if isinstance(instr, UnOp):
        return f"{instr.dst} : {_vt(instr.vt)} = {instr.op} {_operand(instr.a)}"
    if isinstance(instr, Load):
        return (
            f"{instr.dst} : {_vt(instr.vt)} = load {_vt(instr.vt)} "
            f"[{_operand(instr.addr)} + {instr.offset}]"
        )
    if isinstance(instr, Store):
        return (
            f"store {_vt(instr.vt)} [{_operand(instr.addr)} + {instr.offset}], "
            f"{_operand(instr.src)}"
        )
    if isinstance(instr, AddrOf):
        return f"{instr.dst} : ptr = addr_of {instr.symbol}"
    if isinstance(instr, StackAlloc):
        return f"{instr.dst} : ptr = alloca {instr.size} {instr.name}"
    if isinstance(instr, Call):
        args = ", ".join(_operand(a) for a in instr.args)
        head = f"{instr.dst} : {dst_type(instr.dst)} = " if instr.dst else ""
        return f"{head}call {instr.callee}({args})"
    if isinstance(instr, Syscall):
        args = ", ".join(_operand(a) for a in instr.args)
        head = f"{instr.dst} : {dst_type(instr.dst)} = " if instr.dst else ""
        return f"{head}syscall {instr.name}({args})"
    if isinstance(instr, Ret):
        if instr.value is None:
            return "ret"
        return f"ret {_operand(instr.value)}"
    if isinstance(instr, Br):
        return f"br {instr.target}"
    if isinstance(instr, CBr):
        return f"cbr {_operand(instr.cond)}, {instr.if_true}, {instr.if_false}"
    if isinstance(instr, Work):
        text = f"work {_operand(instr.amount)} {instr.kind}"
        if instr.pages is not None:
            text += f" pages={_operand(instr.pages)} span={instr.span}"
        return text
    if isinstance(instr, MigPoint):
        return f"migpoint {instr.point_id} {instr.origin}"
    if isinstance(instr, InlineAsm):
        return f'asm "{instr.text}" ~ {instr.instr_estimate}'
    raise TypeError(f"unprintable instruction {type(instr).__name__}")


def _format_global(gv: GlobalVar) -> str:
    kind = "tls" if gv.thread_local else ("const" if gv.const else "global")
    line = f"{kind} {gv.name} {_vt(gv.vt)} x {gv.count}"
    if gv.init:
        values = ", ".join(_operand(v) for v in gv.init)
        line += f" = [{values}]"
    return line


def format_function(fn: Function) -> List[str]:
    params = ", ".join(f"{name} : {_vt(vt)}" for name, vt in fn.params)
    ret = _vt(fn.ret) if fn.ret is not None else "void"
    library = " library" if fn.library else ""
    lines = [f"func {fn.name}({params}) -> {ret}{library} {{"]
    # Locals that are never defined by an instruction (e.g. declared,
    # address-taken, written only through memory) need explicit
    # declarations or their types would be lost in the round trip.
    defined = {name for name, _ in fn.params}
    for label in fn.block_order:
        for instr in fn.blocks[label].instrs:
            defined.update(instr.defs())
    for name, vt in fn.var_types.items():
        if name not in defined:
            lines.append(f"  decl {name} : {_vt(vt)}")
    for label in fn.block_order:
        lines.append(f"{label}:")
        for instr in fn.blocks[label].instrs:
            lines.append(f"  {format_instr(instr, fn)}")
    lines.append("}")
    return lines


def print_module(module: Module) -> str:
    """Serialise a module to its textual form."""
    lines = [f"module {module.name}", f"entry {module.entry}", ""]
    for gv in module.globals.values():
        lines.append(_format_global(gv))
    if module.globals:
        lines.append("")
    for fn in module.functions.values():
        lines.extend(format_function(fn))
        lines.append("")
    return "\n".join(lines)
