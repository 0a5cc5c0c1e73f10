"""A small typed intermediate representation.

This stands in for LLVM bitcode in the paper's toolchain.  Workloads are
written against :class:`repro.ir.builder.FunctionBuilder`; the per-ISA
back-ends in :mod:`repro.compiler` lower modules to machine functions.

Design points mirroring the paper's needs:

* locals are mutable and typed (no SSA) — liveness analysis recovers the
  live sets the stackmap emitter needs at call sites;
* address-taken locals and stack arrays live in (simulated) memory, so
  pointers into the stack exist and must be fixed up on migration;
* an abstract ``work`` instruction represents a calibrated burst of
  machine instructions of one class, letting class-C NPB runs execute in
  a Python interpreter without interpreting billions of operations.
"""

from repro._lazy import lazy_exports

__getattr__ = lazy_exports(__name__, {
    ".builder": "FunctionBuilder",
    ".function": "GlobalVar Module",
    ".instructions": "BinOp Br Call Const MigPoint Ret Syscall UnOp Work",
    ".validate": "ValidationError validate_module",
})
