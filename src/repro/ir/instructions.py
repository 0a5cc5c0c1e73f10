"""IR instruction set.

Operands are either a ``str`` naming a local variable or a Python
``int``/``float`` literal.  Every instruction that produces a value
names its destination local in ``dst``.
"""

from dataclasses import dataclass, field
from typing import List, Optional, Union

from repro.isa.types import ValueType

Operand = Union[str, int, float]

BINARY_OPS = (
    "add", "sub", "mul", "div", "mod",
    "and", "or", "xor", "shl", "shr",
    "eq", "ne", "lt", "le", "gt", "ge",
    "min", "max",
)
UNARY_OPS = ("mov", "neg", "not", "i2f", "f2i", "sqrt", "abs")
# Syscall names understood by repro.kernel.syscall.
SYSCALL_NAMES = (
    "exit", "print", "sbrk", "free",
    "spawn", "join", "barrier_init", "barrier_wait",
    "mutex_init", "mutex_lock", "mutex_unlock",
    "cond_init", "cond_wait", "cond_signal", "cond_broadcast",
    "gettid", "getcpu", "time_ns", "migrate_hint",
    "write", "read", "open", "close",
)


@dataclass
class Instr:
    """Base class for IR instructions."""

    def uses(self) -> List[str]:
        """Names of locals this instruction reads."""
        return []

    def defs(self) -> List[str]:
        """Names of locals this instruction writes."""
        return []

    @property
    def is_terminator(self) -> bool:
        return False


def _vars(*operands: Operand) -> List[str]:
    return [op for op in operands if isinstance(op, str)]


@dataclass
class Const(Instr):
    dst: str
    value: Union[int, float]
    vt: ValueType

    def defs(self):
        return [self.dst]


@dataclass
class BinOp(Instr):
    dst: str
    op: str
    a: Operand
    b: Operand
    vt: ValueType

    def __post_init__(self):
        if self.op not in BINARY_OPS:
            raise ValueError(f"unknown binary op {self.op!r}")

    def uses(self):
        return _vars(self.a, self.b)

    def defs(self):
        return [self.dst]


@dataclass
class UnOp(Instr):
    dst: str
    op: str
    a: Operand
    vt: ValueType

    def __post_init__(self):
        if self.op not in UNARY_OPS:
            raise ValueError(f"unknown unary op {self.op!r}")

    def uses(self):
        return _vars(self.a)

    def defs(self):
        return [self.dst]


@dataclass
class Load(Instr):
    """dst = *(addr + offset), typed."""

    dst: str
    addr: Operand
    offset: int
    vt: ValueType

    def uses(self):
        return _vars(self.addr)

    def defs(self):
        return [self.dst]


@dataclass
class Store(Instr):
    """*(addr + offset) = src, typed."""

    addr: Operand
    offset: int
    src: Operand
    vt: ValueType

    def uses(self):
        return _vars(self.addr, self.src)


@dataclass
class AddrOf(Instr):
    """dst = &symbol — address of a global or of a stack allocation."""

    dst: str
    symbol: str

    def uses(self):
        # The *address-taken* local is not a data dependency here; the
        # back-end resolves the symbol to a frame slot or global address.
        return []

    def defs(self):
        return [self.dst]


@dataclass
class StackAlloc(Instr):
    """dst = address of a fresh per-frame buffer of ``size`` bytes."""

    dst: str
    size: int
    name: str = ""

    def defs(self):
        return [self.dst]


@dataclass
class Call(Instr):
    """dst = callee(args...); dst may be '' for void calls.

    ``site_id`` is assigned by the toolchain; it is the ISA-independent
    identifier that lets the stack transformation runtime map a return
    address on one ISA to the matching one on the other.
    """

    dst: str
    callee: str
    args: List[Operand] = field(default_factory=list)
    site_id: int = -1

    def uses(self):
        return _vars(*self.args)

    def defs(self):
        return [self.dst] if self.dst else []


@dataclass
class Ret(Instr):
    value: Optional[Operand] = None

    def uses(self):
        return _vars(self.value) if self.value is not None else []

    @property
    def is_terminator(self):
        return True


@dataclass
class Br(Instr):
    target: str

    @property
    def is_terminator(self):
        return True


@dataclass
class CBr(Instr):
    cond: Operand
    if_true: str
    if_false: str

    def uses(self):
        return _vars(self.cond)

    @property
    def is_terminator(self):
        return True


@dataclass
class Work(Instr):
    """Execute ``amount`` abstract machine operations of class ``kind``.

    ``amount`` may be a local (data-dependent inner loops).  ``pages``
    optionally names a local holding the base address of the region this
    burst touches, with ``span`` bytes — the DSM charges on-demand page
    transfers for it after a migration.
    """

    amount: Operand
    kind: str = "int_alu"
    pages: Optional[Operand] = None
    span: int = 0

    def uses(self):
        ops = _vars(self.amount)
        if self.pages is not None:
            ops += _vars(self.pages)
        return ops


@dataclass
class MigPoint(Instr):
    """A migration point: poll the scheduler flag, maybe migrate.

    ``point_id`` is unique per function; ``origin`` records whether the
    point came from a function boundary ('entry'/'exit'), an explicit
    source annotation, or the profiler-guided insertion pass.
    """

    point_id: int = -1
    origin: str = "entry"
    site_id: int = -1


@dataclass
class InlineAsm(Instr):
    """Opaque inline assembly (Section 5.4).

    Executes as a short opaque burst on its native ISA, but defeats the
    live-variable analysis — "the toolchain does not support
    applications that use inline assembly" — so the toolchain rejects
    modules containing it unless unmigratable functions are allowed.
    """

    text: str = ""
    instr_estimate: int = 4


@dataclass
class Syscall(Instr):
    """dst = syscall(name, args...) — the narrow OS interface."""

    dst: str
    name: str
    args: List[Operand] = field(default_factory=list)
    site_id: int = -1

    def __post_init__(self):
        if self.name not in SYSCALL_NAMES:
            raise ValueError(f"unknown syscall {self.name!r}")

    def uses(self):
        return _vars(*self.args)

    def defs(self):
        return [self.dst] if self.dst else []
