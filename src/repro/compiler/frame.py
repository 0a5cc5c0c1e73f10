"""ABI-specific stack frame layout.

Offsets are *depths*: a slot at depth ``d`` lives at address ``CFA - d``
where the CFA (canonical frame address) is the stack pointer value at
the call site in the caller, exactly as in DWARF.  Depths grow downward
in memory; a frame occupies ``[CFA - frame_size, CFA)``.

The two layout styles intentionally disagree about where everything
lives (that is the whole point of the paper's stack transformation):

* ``SYSV_X86_64``: return address at depth 8 (pushed by ``call``),
  saved RBP at 16, callee-saved register save area next, then locals
  and spills, stack buffers deepest.
* ``AAPCS64``: the FP/LR pair is stored at the *bottom* of the frame
  (greatest depth), callee-saved registers just above it, locals and
  spills above those, stack buffers closest to the CFA.
"""

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.isa.abi import FrameLayoutStyle
from repro.isa.isa import Isa

WORD = 8


@dataclass(frozen=True)
class Location:
    """Where a live value lives: a register or a frame slot."""

    kind: str  # 'reg' or 'slot'
    reg: str = ""
    depth: int = 0  # CFA - depth, only for kind == 'slot'

    @staticmethod
    def in_reg(name: str) -> "Location":
        return Location(kind="reg", reg=name)

    @staticmethod
    def in_slot(depth: int) -> "Location":
        return Location(kind="slot", depth=depth)

    def __repr__(self) -> str:
        if self.kind == "reg":
            return f"Loc(reg={self.reg})"
        return f"Loc(CFA-{self.depth})"


@dataclass
class FrameLayout:
    """The complete frame map of one function on one ISA."""

    isa_name: str
    frame_size: int = 0
    # Depth of the pushed return address (x86 only; 0 when in LR).
    return_addr_depth: int = 0
    saved_fp_depth: int = 0
    saved_lr_depth: int = 0  # ARM only
    # Callee-saved registers this function clobbers -> save-slot depth.
    saved_reg_depths: Dict[str, int] = field(default_factory=dict)
    # Memory-resident locals / spills -> slot depth.
    slot_depths: Dict[str, int] = field(default_factory=dict)
    # Stack buffers (alloca) -> (depth of buffer END, size). The buffer
    # occupies [CFA - depth, CFA - depth + size).
    buffer_depths: Dict[str, Tuple[int, int]] = field(default_factory=dict)

    def slot_address(self, cfa: int, var: str) -> int:
        return cfa - self.slot_depths[var]

    def contains_depth(self, depth: int) -> bool:
        return 0 < depth <= self.frame_size


def _align_up(value: int, alignment: int) -> int:
    return (value + alignment - 1) // alignment * alignment


def build_frame_layout(
    isa: Isa,
    saved_regs: List[str],
    memory_locals: List[str],
    buffers: Dict[str, int],
) -> FrameLayout:
    """Lay out one function's frame for ``isa``.

    ``saved_regs``: callee-saved registers the allocator assigned,
    ``memory_locals``: locals that need a stack slot (address-taken or
    spilled), ``buffers``: alloca name -> size in bytes.
    """
    layout = FrameLayout(isa_name=isa.name)
    style = isa.cc.frame_style

    if style is FrameLayoutStyle.SYSV_X86_64:
        depth = WORD  # return address pushed by `call`
        layout.return_addr_depth = depth
        depth += WORD  # push rbp
        layout.saved_fp_depth = depth
        for reg in saved_regs:
            depth += WORD
            layout.saved_reg_depths[reg] = depth
        for var in memory_locals:
            depth += WORD
            layout.slot_depths[var] = depth
        for name, size in buffers.items():
            depth = _align_up(depth + size, WORD)
            layout.buffer_depths[name] = (depth, size)
        layout.frame_size = _align_up(depth, isa.cc.stack_alignment)
    elif style is FrameLayoutStyle.AAPCS64:
        # Build from the CFA downwards: buffers first (shallow), then
        # locals, then the callee-saved area, with the FP/LR pair at the
        # very bottom — the mirror image of the x86 frame.
        depth = 0
        for name, size in buffers.items():
            depth = _align_up(depth + size, WORD)
            layout.buffer_depths[name] = (depth, size)
        for var in memory_locals:
            depth += WORD
            layout.slot_depths[var] = depth
        for reg in saved_regs:
            depth += WORD
            layout.saved_reg_depths[reg] = depth
        depth += WORD
        layout.saved_lr_depth = depth
        depth += WORD
        layout.saved_fp_depth = depth
        layout.frame_size = _align_up(depth, isa.cc.stack_alignment)
    else:  # pragma: no cover - only two styles exist
        raise ValueError(f"unknown frame style {style}")

    return layout
