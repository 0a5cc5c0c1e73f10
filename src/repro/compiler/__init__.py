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

from repro._lazy import lazy_exports

__getattr__ = lazy_exports(__name__, {
    ".codegen": "lower_function",
    ".regalloc": "allocate_registers",
    ".toolchain": "Toolchain",
})
