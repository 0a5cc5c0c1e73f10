"""DWARF-like frame unwind metadata.

The transformation runtime walks the source stack frame-by-frame; for
each function it needs the frame size, where the caller's frame pointer
and return address were saved, and the callee-saved register save
procedure (register -> save-slot depth).  This is the per-architecture,
per-function "DWARF frame unwinding information" of Section 5.3.
"""

from dataclasses import dataclass, field
from typing import Dict

from repro.compiler.frame import FrameLayout


@dataclass(frozen=True)
class UnwindInfo:
    """Unwind rules for one function on one ISA."""

    function: str
    isa_name: str
    frame_size: int
    return_addr_depth: int  # 0 when the return address travels in LR
    saved_fp_depth: int
    saved_lr_depth: int
    saved_reg_depths: Dict[str, int] = field(default_factory=dict)

    @staticmethod
    def from_layout(function: str, layout: FrameLayout) -> "UnwindInfo":
        return UnwindInfo(
            function=function,
            isa_name=layout.isa_name,
            frame_size=layout.frame_size,
            return_addr_depth=layout.return_addr_depth,
            saved_fp_depth=layout.saved_fp_depth,
            saved_lr_depth=layout.saved_lr_depth,
            saved_reg_depths=dict(layout.saved_reg_depths),
        )
