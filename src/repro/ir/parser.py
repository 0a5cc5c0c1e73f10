"""Textual IR: parsing.

Inverse of :mod:`repro.ir.printer`: ``parse_module(print_module(m))``
reconstructs a structurally identical module (types, blocks, globals,
address-taken sets and stack buffers included).  Site ids are not part
of the text — the toolchain assigns them at build time.
"""

import re
from typing import List, Optional

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
    BINARY_OPS,
    UNARY_OPS,
)
from repro.ir.instructions import Work
from repro.isa.types import ValueType

_IDENT = r"[A-Za-z_.][A-Za-z0-9_.]*"
_NUM = r"-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?"

_RE_GLOBAL = re.compile(
    rf"^(global|const|tls) ({_IDENT}) (\w+) x (\d+)(?: = \[(.*)\])?$"
)
_RE_FUNC = re.compile(
    rf"^func ({_IDENT})\((.*)\) -> (\w+)( library)? \{{$"
)
_RE_LABEL = re.compile(rf"^({_IDENT}):$")
_RE_DEF = re.compile(rf"^({_IDENT}) : (\w+) = (.+)$")
_RE_LOAD = re.compile(rf"^load (\w+) \[({_IDENT}|{_NUM}) \+ (-?\d+)\]$")
_RE_STORE = re.compile(
    rf"^store (\w+) \[({_IDENT}|{_NUM}) \+ (-?\d+)\], (.+)$"
)
_RE_CALLISH = re.compile(rf"^(call|syscall) ({_IDENT})\((.*)\)$")
_RE_WORK = re.compile(
    rf"^work ({_IDENT}|{_NUM}) (\w+)(?: pages=({_IDENT}|{_NUM}) span=(\d+))?$"
)
_RE_MIGPOINT = re.compile(r"^migpoint (-?\d+) (\w+)$")
_RE_ASM = re.compile(r'^asm "(.*)" ~ (\d+)$')
_RE_ALLOCA = re.compile(rf"^alloca (\d+) ({_IDENT})$")


class ParseError(Exception):
    def __init__(self, line_no: int, line: str, reason: str):
        super().__init__(f"line {line_no}: {reason}: {line!r}")
        self.line_no = line_no


def _parse_operand(text: str) -> Operand:
    text = text.strip()
    if re.fullmatch(_NUM, text):
        if any(c in text for c in ".eE") and not text.lstrip("-").isdigit():
            return float(text)
        return int(text)
    return text


def _parse_args(text: str) -> List[Operand]:
    text = text.strip()
    if not text:
        return []
    return [_parse_operand(part) for part in text.split(",")]


def _vt(name: str, line_no: int, line: str) -> ValueType:
    try:
        return ValueType(name)
    except ValueError:
        raise ParseError(line_no, line, f"unknown type {name}") from None


def _parse_rhs(dst: str, vt: ValueType, rhs: str, fn: Function,
               line_no: int, line: str):
    """The right-hand side of a ``dst : vt = ...`` definition."""
    m = _RE_LOAD.match(rhs)
    if m:
        load_vt = _vt(m.group(1), line_no, line)
        return Load(dst, _parse_operand(m.group(2)), int(m.group(3)), load_vt)
    m = _RE_CALLISH.match(rhs)
    if m:
        kind, callee, args = m.groups()
        if kind == "call":
            return Call(dst, callee, _parse_args(args))
        return Syscall(dst, callee, _parse_args(args))
    m = _RE_ALLOCA.match(rhs)
    if m:
        size, name = int(m.group(1)), m.group(2)
        fn.stack_buffers[name] = size
        return StackAlloc(dst, size, name)
    if rhs.startswith("addr_of "):
        symbol = rhs[len("addr_of "):].strip()
        return AddrOf(dst, symbol)
    if rhs.startswith("const "):
        return Const(dst, _parse_operand(rhs[len("const "):]), vt)
    # Unary / binary operators.
    parts = rhs.split(None, 1)
    if len(parts) == 2:
        op, rest = parts
        operands = [_parse_operand(p) for p in rest.split(",")]
        if op in BINARY_OPS and len(operands) == 2:
            return BinOp(dst, op, operands[0], operands[1], vt)
        if op in UNARY_OPS and len(operands) == 1:
            return UnOp(dst, op, operands[0], vt)
    raise ParseError(line_no, line, "unparseable definition")


def _parse_plain(text: str, fn: Function, line_no: int, line: str):
    """An instruction without a destination."""
    m = _RE_STORE.match(text)
    if m:
        vt = _vt(m.group(1), line_no, line)
        return Store(
            _parse_operand(m.group(2)), int(m.group(3)),
            _parse_operand(m.group(4)), vt,
        )
    m = _RE_CALLISH.match(text)
    if m:
        kind, callee, args = m.groups()
        if kind == "call":
            return Call("", callee, _parse_args(args))
        return Syscall("", callee, _parse_args(args))
    m = _RE_WORK.match(text)
    if m:
        amount, kind, pages, span = m.groups()
        return Work(
            _parse_operand(amount), kind,
            _parse_operand(pages) if pages is not None else None,
            int(span) if span is not None else 0,
        )
    m = _RE_MIGPOINT.match(text)
    if m:
        return MigPoint(point_id=int(m.group(1)), origin=m.group(2))
    m = _RE_ASM.match(text)
    if m:
        return InlineAsm(text=m.group(1), instr_estimate=int(m.group(2)))
    if text == "ret":
        return Ret(None)
    if text.startswith("ret "):
        return Ret(_parse_operand(text[4:]))
    if text.startswith("br "):
        return Br(text[3:].strip())
    if text.startswith("cbr "):
        cond, if_true, if_false = [p.strip() for p in text[4:].split(",")]
        return CBr(_parse_operand(cond), if_true, if_false)
    raise ParseError(line_no, line, "unparseable instruction")


def parse_module(text: str) -> Module:
    """Parse the textual form back into a :class:`Module`."""
    module: Optional[Module] = None
    fn: Optional[Function] = None
    block = None

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("module "):
            module = Module(line[len("module "):].strip())
            continue
        if module is None:
            raise ParseError(line_no, line, "missing module header")
        if line.startswith("entry "):
            module.entry = line[len("entry "):].strip()
            continue
        m = _RE_GLOBAL.match(line)
        if m and fn is None:
            kind, name, vt_name, count, init = m.groups()
            values = _parse_args(init) if init else []
            module.add_global(
                GlobalVar(
                    name,
                    _vt(vt_name, line_no, line),
                    count=int(count),
                    init=values,
                    thread_local=(kind == "tls"),
                    const=(kind == "const"),
                )
            )
            continue
        m = _RE_FUNC.match(line)
        if m:
            name, params_text, ret_name, library = m.groups()
            params = []
            if params_text.strip():
                for part in params_text.split(","):
                    pname, ptype = [x.strip() for x in part.split(":")]
                    params.append((pname, _vt(ptype, line_no, line)))
            ret = None if ret_name == "void" else _vt(ret_name, line_no, line)
            fn = module.function(name, params, ret, library=bool(library))
            block = None
            continue
        if line == "}":
            fn = None
            block = None
            continue
        if fn is None:
            raise ParseError(line_no, line, "instruction outside a function")
        if line.startswith("decl "):
            name, vt_name = [x.strip() for x in line[5:].split(":")]
            fn.declare(name, _vt(vt_name, line_no, line))
            continue
        m = _RE_LABEL.match(line)
        if m:
            block = fn.block(m.group(1))
            continue
        if block is None:
            raise ParseError(line_no, line, "instruction outside a block")
        m = _RE_DEF.match(line)
        if m:
            dst, vt_name, rhs = m.groups()
            vt = _vt(vt_name, line_no, line)
            instr = _parse_rhs(dst, vt, rhs.strip(), fn, line_no, line)
            fn.declare(dst, vt)
        else:
            instr = _parse_plain(line, fn, line_no, line)
        # Re-derive bookkeeping the builder normally maintains.
        if isinstance(instr, AddrOf) and instr.symbol in fn.var_types:
            fn.address_taken.add(instr.symbol)
        block.append(instr)

    if module is None:
        raise ParseError(0, "", "empty input")
    return module
