"""C calling conventions and stack frame disciplines.

The two ABIs the prototype targets differ in exactly the ways that make
stack transformation non-trivial:

* different numbers of argument / callee-saved registers,
* a link register on ARM64 vs a pushed return address on x86-64,
* different prologue conventions, hence different frame layouts and
  frame sizes for the same function.
"""

import enum
from dataclasses import dataclass
from typing import Tuple


class FrameLayoutStyle(enum.Enum):
    """How a back-end organises a stack frame.

    AAPCS64 frames place the saved FP/LR pair at the *top* of the frame
    and callee-saved registers next to it; SysV x86-64 pushes the return
    address then RBP, then callee-saved registers, with locals below.
    The distinction changes every slot offset, which is what forces the
    runtime to rewrite frames rather than copy them.
    """

    AAPCS64 = "aapcs64"
    SYSV_X86_64 = "sysv-x86-64"


@dataclass(frozen=True)
class CallingConvention:
    """The subset of a C ABI needed for codegen and transformation."""

    name: str
    int_arg_regs: Tuple[str, ...]
    fp_arg_regs: Tuple[str, ...]
    int_return_reg: str
    fp_return_reg: str
    stack_alignment: int
    red_zone: int
    # True when the call instruction pushes the return address onto the
    # stack (x86); False when it lands in a link register (ARM).
    return_address_on_stack: bool
    link_register: str = ""
    frame_style: FrameLayoutStyle = FrameLayoutStyle.AAPCS64

    def max_reg_args(self, is_float: bool) -> int:
        return len(self.fp_arg_regs if is_float else self.int_arg_regs)

    def arg_register(self, index: int, is_float: bool) -> str:
        """Register carrying argument ``index`` of its class, or ''."""
        regs = self.fp_arg_regs if is_float else self.int_arg_regs
        if index < len(regs):
            return regs[index]
        return ""
