"""Instruction set architecture descriptions.

This package captures everything the rest of the stack needs to know
about an ISA: its register file, its C ABI (calling convention, stack
discipline), the sizes and alignments of primitive types, and a cost
model for instruction classes.  Two concrete ISAs are provided, matching
the paper's evaluation platform: ARM64 (AArch64 / AAPCS64, the APM
X-Gene 1 side) and x86-64 (SysV AMD64, the Xeon side).
"""

from repro.isa.arm64 import ARM64
from repro.isa.isa import Isa
from repro.isa.x86_64 import X86_64

ALL_ISAS = {ARM64.name: ARM64, X86_64.name: X86_64}


def get_isa(name: str) -> Isa:
    """Look up an ISA by name ('arm64' or 'x86_64')."""
    try:
        return ALL_ISAS[name]
    except KeyError:
        raise KeyError(f"unknown ISA {name!r}; known: {sorted(ALL_ISAS)}") from None

