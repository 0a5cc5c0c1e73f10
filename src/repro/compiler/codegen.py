"""Lowering IR functions to per-ISA machine functions.

A :class:`MachineFunction` is the unit the execution engine runs and
the linker lays out: the shared IR body annotated, per ISA, with

* the register/slot location of every local (after register allocation),
* the ABI frame layout and unwind rules,
* per-instruction machine-instruction counts by :class:`InstrClass`
  (already scaled by the ISA's lowering expansion),
* stackmaps at every call site and migration point,
* a static code size in bytes for the linker.
"""

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.compiler.frame import FrameLayout, Location, build_frame_layout
from repro.compiler.regalloc import AllocationResult, allocate_registers
from repro.compiler.stackmaps import StackMap, StackMapEntry
from repro.compiler.unwind import UnwindInfo
from repro.ir.analysis import LivenessResult, liveness
from repro.ir.function import Function
from repro.ir.instructions import (
    AddrOf,
    BinOp,
    Br,
    CBr,
    Call,
    Const,
    InlineAsm,
    Instr,
    Load,
    MigPoint,
    Ret,
    StackAlloc,
    Store,
    Syscall,
    UnOp,
    Work,
)
from repro.isa.isa import InstrClass, Isa
from repro.sim.numeric import ordered_sum

# Average static machine instructions a `work` burst loop compiles to,
# regardless of its dynamic trip count.
_WORK_STATIC_INSTRS = 8
_DIV_COST = 8
_SQRT_COST = 12
_CONVERT_COST = 2


@dataclass
class MachineInstr:
    """One IR instruction with its per-ISA cost annotation."""

    ir: Instr
    # Machine instructions by class; Work with a variable amount keeps
    # its dynamic cost out of this dict (the engine computes it).
    counts: Dict[InstrClass, float] = field(default_factory=dict)

    @property
    def total(self) -> float:
        return ordered_sum(self.counts.values())


@dataclass
class MachineFunction:
    """A function lowered for one ISA."""

    fn: Function
    isa: Isa
    alloc: AllocationResult
    frame: FrameLayout
    unwind: UnwindInfo
    blocks: Dict[str, List[MachineInstr]]
    stackmaps: Dict[int, StackMap]
    # site_id -> (block, index) of the site instruction, for resuming.
    site_positions: Dict[int, Tuple[str, int]]
    prologue_counts: Dict[InstrClass, float]
    # Instructions the prologue retires, the ``ordered_sum`` of
    # ``prologue_counts``: both engines add it to ``instret`` at
    # every call.
    prologue_instret: float
    code_size: int
    text_addr: int = 0  # assigned by the linker

    @property
    def name(self) -> str:
        return self.fn.name

    # Return addresses: each call site gets a stable code offset within
    # the function; the stride differs per ISA (encoding widths differ)
    # so the numeric return addresses genuinely differ across ISAs and
    # must be mapped during migration, as in the paper.
    _RA_BASE = 32

    def _ra_stride(self) -> int:
        return max(int(self.isa.bytes_per_instr * 5), 8)

    def _site_ordinals(self) -> Dict[int, int]:
        cached = getattr(self, "_site_ordinal_cache", None)
        if cached is None:
            cached = {
                site: i for i, site in enumerate(sorted(self.site_positions))
            }
            self._site_ordinal_cache = cached
        return cached

    def return_address(self, site_id: int) -> int:
        """The post-call return address for ``site_id`` in this ISA's code."""
        ordinal = self._site_ordinals()[site_id]
        return self.text_addr + self._RA_BASE + ordinal * self._ra_stride()

    def site_for_return_address(self, addr: int) -> int:
        """Invert :meth:`return_address`; raises KeyError if not a site."""
        offset = addr - self.text_addr - self._RA_BASE
        stride = self._ra_stride()
        if offset < 0 or offset % stride:
            raise KeyError(f"{addr:#x} is not a return address in {self.name}")
        ordinal = offset // stride
        for site, o in self._site_ordinals().items():
            if o == ordinal:
                return site
        raise KeyError(f"{addr:#x} beyond the sites of {self.name}")

    def location(self, var: str) -> Location:
        reg = self.alloc.reg_assignment.get(var)
        if reg is not None:
            return Location.in_reg(reg)
        return Location.in_slot(self.frame.slot_depths[var])


def _work_class(kind: str) -> InstrClass:
    try:
        return InstrClass(kind)
    except ValueError:
        raise ValueError(f"unknown work kind {kind!r}") from None


def _abstract_costs(instr: Instr, fn: Function) -> Dict[InstrClass, float]:
    """Machine-instruction counts by class, before ISA expansion."""
    if isinstance(instr, Const):
        return {InstrClass.MOV: 1}
    if isinstance(instr, UnOp):
        if instr.op == "mov":
            return {InstrClass.MOV: 1}
        if instr.op == "sqrt":
            return {InstrClass.FP_ALU: _SQRT_COST}
        if instr.op in ("i2f", "f2i"):
            return {InstrClass.FP_ALU: _CONVERT_COST}
        cls = InstrClass.FP_ALU if instr.vt.is_float else InstrClass.INT_ALU
        return {cls: 1}
    if isinstance(instr, BinOp):
        cls = InstrClass.FP_ALU if instr.vt.is_float else InstrClass.INT_ALU
        cost = _DIV_COST if instr.op in ("div", "mod") else 1
        return {cls: float(cost)}
    if isinstance(instr, Load):
        return {InstrClass.LOAD: 1}
    if isinstance(instr, Store):
        return {InstrClass.STORE: 1}
    if isinstance(instr, (AddrOf, StackAlloc)):
        return {InstrClass.INT_ALU: 1}
    if isinstance(instr, Call):
        return {InstrClass.CALL: 1, InstrClass.MOV: float(len(instr.args) + 1)}
    if isinstance(instr, Ret):
        return {InstrClass.RET: 1}
    if isinstance(instr, Br):
        return {InstrClass.BRANCH: 1}
    if isinstance(instr, CBr):
        return {InstrClass.BRANCH: 1, InstrClass.INT_ALU: 1}
    if isinstance(instr, Work):
        # Work is always charged dynamically by the execution engine
        # (the amount may be a runtime value); only the loop scaffold
        # contributes static cost, via _WORK_STATIC_INSTRS below.
        return {}
    if isinstance(instr, MigPoint):
        # "a function call and a memory read" plus the flag test.
        return {
            InstrClass.LOAD: 1,
            InstrClass.BRANCH: 1,
            InstrClass.CALL: 1,
            InstrClass.MOV: 2,
        }
    if isinstance(instr, Syscall):
        return {InstrClass.SYSCALL: 1, InstrClass.MOV: float(len(instr.args))}
    if isinstance(instr, InlineAsm):
        return {InstrClass.INT_ALU: float(instr.instr_estimate)}
    raise TypeError(f"unknown instruction {type(instr).__name__}")


def _expand(counts: Dict[InstrClass, float], isa: Isa) -> Dict[InstrClass, float]:
    return {cls: n * isa.expansion(cls) for cls, n in counts.items()}


def _static_size(
    mf_blocks: Dict[str, List[MachineInstr]],
    prologue_instret: float,
    isa: Isa,
) -> int:
    static_instrs = prologue_instret
    for instrs in mf_blocks.values():
        for mi in instrs:
            if isinstance(mi.ir, Work):
                static_instrs += _WORK_STATIC_INSTRS
            else:
                static_instrs += mi.total
    return max(int(static_instrs * isa.bytes_per_instr), 16)


def lower_function(
    fn: Function, isa: Isa, live: Optional[LivenessResult] = None
) -> MachineFunction:
    """Compile one function for one ISA.

    ``live`` is ``fn``'s liveness, if the caller already has it: it
    does not depend on the ISA, so a build computes it once per
    function for all of them.
    """
    if live is None:
        live = liveness(fn)
    alloc = allocate_registers(fn, isa, live)
    frame = build_frame_layout(
        isa,
        saved_regs=alloc.clobbered_callee_saved,
        memory_locals=alloc.memory_locals,
        buffers=fn.stack_buffers,
    )
    unwind = UnwindInfo.from_layout(fn.name, frame)

    blocks: Dict[str, List[MachineInstr]] = {}
    stackmaps: Dict[int, StackMap] = {}
    site_positions: Dict[int, Tuple[str, int]] = {}

    def make_stackmap(
        instr: Instr, block: str, index: int, site_id: int
    ) -> StackMap:
        live_vars = set(live.live_after[(block, index)])
        live_vars.discard(getattr(instr, "dst", ""))
        entries = []
        for var in sorted(live_vars):
            vt = fn.var_types[var]
            entries.append(
                StackMapEntry(
                    var=var,
                    vt=vt,
                    location=_var_location(var, alloc, frame),
                    maybe_stack_pointer=(vt.name == "PTR"),
                )
            )
        return StackMap(
            site_id=site_id,
            function=fn.name,
            block=block,
            index=index,
            entries=entries,
        )

    for label in fn.block_order:
        lowered: List[MachineInstr] = []
        for index, instr in enumerate(fn.blocks[label].instrs):
            counts = _expand(_abstract_costs(instr, fn), isa)
            lowered.append(MachineInstr(ir=instr, counts=counts))
            site_id = getattr(instr, "site_id", -1)
            if site_id >= 0 and isinstance(instr, (Call, Syscall, MigPoint)):
                stackmaps[site_id] = make_stackmap(instr, label, index, site_id)
                site_positions[site_id] = (label, index)
        blocks[label] = lowered

    saved = len(alloc.clobbered_callee_saved)
    prologue = _expand(
        {
            InstrClass.STORE: float(saved + 2),  # callee-saved + fp/lr pair
            InstrClass.INT_ALU: 2.0,  # stack pointer adjustment
            InstrClass.MOV: float(len(fn.params)),
        },
        isa,
    )
    prologue_instret = ordered_sum(prologue.values())

    return MachineFunction(
        fn=fn,
        isa=isa,
        alloc=alloc,
        frame=frame,
        unwind=unwind,
        blocks=blocks,
        stackmaps=stackmaps,
        site_positions=site_positions,
        prologue_counts=prologue,
        prologue_instret=prologue_instret,
        code_size=_static_size(blocks, prologue_instret, isa),
    )


def _var_location(
    var: str, alloc: AllocationResult, frame: FrameLayout
) -> Location:
    reg = alloc.reg_assignment.get(var)
    if reg is not None:
        return Location.in_reg(reg)
    return Location.in_slot(frame.slot_depths[var])
