"""Modules, functions, globals and basic blocks."""

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

from repro.ir.instructions import Instr
from repro.isa.types import ValueType, type_size
from repro.sim.numeric import ordered_sum


@dataclass
class GlobalVar:
    """A global data symbol: ``count`` elements of type ``vt``.

    ``init`` holds initial element values; shorter than ``count`` means
    the remainder is zero-initialised (.bss-like).  ``section`` follows
    ELF conventions and drives the linker layout.
    """

    name: str
    vt: ValueType
    count: int = 1
    init: List[Union[int, float]] = field(default_factory=list)
    thread_local: bool = False
    const: bool = False

    @property
    def size(self) -> int:
        return type_size(self.vt) * self.count

    @property
    def section(self) -> str:
        if self.thread_local:
            return ".tdata" if self.init else ".tbss"
        if self.const:
            return ".rodata"
        return ".data" if self.init else ".bss"


class BasicBlock:
    """A labelled straight-line run of instructions ending in a terminator."""

    def __init__(self, label: str):
        self.label = label
        self.instrs: List[Instr] = []

    def append(self, instr: Instr) -> None:
        if self.instrs and self.instrs[-1].is_terminator:
            raise ValueError(f"block {self.label} already terminated")
        self.instrs.append(instr)

    @property
    def terminated(self) -> bool:
        return bool(self.instrs) and self.instrs[-1].is_terminator

    def successors(self) -> List[str]:
        if not self.terminated:
            return []
        term = self.instrs[-1]
        targets = []
        for attr in ("target", "if_true", "if_false"):
            value = getattr(term, attr, None)
            if value is not None:
                targets.append(value)
        return targets

    def __repr__(self) -> str:
        return f"BasicBlock({self.label}, {len(self.instrs)} instrs)"


class Function:
    """A function: typed params and locals, and a CFG of basic blocks."""

    def __init__(
        self,
        name: str,
        params: List[Tuple[str, ValueType]],
        ret: Optional[ValueType] = None,
        library: bool = False,
    ):
        self.name = name
        self.params = list(params)
        self.ret = ret
        # Library code (libc-like): migration points are never inserted
        # here — "applications cannot migrate during library code
        # execution" (Section 5.4).
        self.library = library
        self.var_types: Dict[str, ValueType] = dict(params)
        self.blocks: Dict[str, BasicBlock] = {}
        self.block_order: List[str] = []
        # Locals whose address is taken — they must live in memory.
        self.address_taken: set = set()
        # Stack buffers: name -> size in bytes.
        self.stack_buffers: Dict[str, int] = {}
        self._label_counter = 0

    @property
    def entry(self) -> str:
        if not self.block_order:
            raise ValueError(f"function {self.name} has no blocks")
        return self.block_order[0]

    def block(self, label: str = "") -> BasicBlock:
        """Create (and register) a new basic block."""
        if not label:
            label = f"bb{self._label_counter}"
            self._label_counter += 1
        if label in self.blocks:
            raise ValueError(f"duplicate block label {label} in {self.name}")
        bb = BasicBlock(label)
        self.blocks[label] = bb
        self.block_order.append(label)
        return bb

    def declare(self, name: str, vt: ValueType) -> str:
        existing = self.var_types.get(name)
        if existing is not None and existing != vt:
            raise ValueError(
                f"local {name} redeclared as {vt} (was {existing}) in {self.name}"
            )
        self.var_types[name] = vt
        return name

    def instructions(self):
        """Iterate (block_label, index, instr) in layout order."""
        for label in self.block_order:
            for i, instr in enumerate(self.blocks[label].instrs):
                yield label, i, instr

    def __repr__(self) -> str:
        n = ordered_sum(len(b.instrs) for b in self.blocks.values())
        return f"Function({self.name}, {len(self.blocks)} blocks, {n} instrs)"


class Module:
    """A compilation unit: globals plus functions."""

    def __init__(self, name: str):
        self.name = name
        self.globals: Dict[str, GlobalVar] = {}
        self.functions: Dict[str, Function] = {}
        self.entry: str = "main"

    def add_global(self, gv: GlobalVar) -> GlobalVar:
        if gv.name in self.globals:
            raise ValueError(f"duplicate global {gv.name}")
        self.globals[gv.name] = gv
        return gv

    def function(
        self,
        name: str,
        params: Optional[List[Tuple[str, ValueType]]] = None,
        ret: Optional[ValueType] = None,
        library: bool = False,
    ) -> Function:
        if name in self.functions:
            raise ValueError(f"duplicate function {name}")
        fn = Function(name, params or [], ret, library=library)
        self.functions[name] = fn
        return fn

    def __repr__(self) -> str:
        return (
            f"Module({self.name}, {len(self.functions)} functions, "
            f"{len(self.globals)} globals)"
        )
