"""The multi-ISA compiler toolchain.

Mirrors the paper's modified clang/LLVM pipeline (Figure 2):

1. migration points are inserted at function boundaries and, guided by a
   Valgrind-like profile, inside long-running loops
   (:mod:`repro.compiler.migration_points`, :mod:`repro.compiler.profiling`);
2. each target back-end performs register allocation against its own
   register file and lays out an ABI-specific stack frame
   (:mod:`repro.compiler.regalloc`, :mod:`repro.compiler.frame`);
3. codegen lowers IR to per-ISA machine functions with instruction-class
   cost annotations (:mod:`repro.compiler.codegen`);
4. live-value stackmaps and DWARF-like unwind metadata are emitted at
   every call site (:mod:`repro.compiler.stackmaps`,
   :mod:`repro.compiler.unwind`);
5. the toolchain driver links everything into a multi-ISA binary with a
   common symbol layout (:mod:`repro.compiler.toolchain` +
   :mod:`repro.linker`).
"""

from repro.compiler.frame import FrameLayout, Location
from repro.compiler.codegen import MachineFunction, MachineInstr, lower_function
from repro.compiler.regalloc import AllocationResult, allocate_registers
from repro.compiler.stackmaps import StackMap, StackMapEntry
from repro.compiler.unwind import UnwindInfo
from repro.compiler.toolchain import CompiledBinary, MultiIsaBinary, Toolchain

__all__ = [
    "Location",
    "FrameLayout",
    "MachineFunction",
    "MachineInstr",
    "lower_function",
    "AllocationResult",
    "allocate_registers",
    "StackMap",
    "StackMapEntry",
    "UnwindInfo",
    "Toolchain",
    "CompiledBinary",
    "MultiIsaBinary",
]
