"""User-space runtime: address space, heap, stacks, the execution
engine, and the migration runtime (stack transformation + register
mapping).

This is the paper's modified musl + migration library layer: everything
that runs in user mode, between the compiled multi-ISA binary and the
replicated-kernel OS.
"""
