"""Shared scaffolding for the benchmark suite.

Every benchmark follows the NPB shape: ``main`` allocates shared arrays
on the heap (their base addresses published through globals), spawns
``T`` worker threads, joins them, verifies the computed result and
prints ``(checksum, verified)``.  Workers synchronise with a barrier
per iteration, exactly like the OpenMP loops of the originals (the
paper runs them through Popcorn's POMP).

Each benchmark sizes its work bursts from its entry in
:data:`repro.workloads.profiles.PROFILES` — per-class total instruction
counts, instruction-class mix and memory footprint — the table the
analytic job model of the datacenter experiments also prices from.
"""

from typing import Callable, List

from repro.ir import FunctionBuilder, GlobalVar, Module
from repro.isa.types import ValueType as VT

BARRIER_ID = 1
LCG_A = 1103515245
LCG_C = 12345
LCG_MASK = (1 << 31) - 1


# --------------------------------------------------------------- helpers

def emit_lcg_next(fb: FunctionBuilder, state_var: str) -> str:
    """state = (state * A + C) & MASK; returns the new value's var."""
    t = fb.binop("mul", state_var, LCG_A, VT.I64)
    t = fb.binop("add", t, LCG_C, VT.I64)
    fb.binop_into(state_var, "and", t, LCG_MASK, VT.I64)
    return state_var


def build_parallel_scaffold(
    module: Module,
    threads: int,
    worker_body: Callable[[FunctionBuilder, str], None],
    setup: Callable[[FunctionBuilder], None],
    verify: Callable[[FunctionBuilder], str],
) -> None:
    """Emit ``main`` + ``worker`` with the standard NPB shape.

    ``worker_body(fb, idx_var)`` emits one worker's computation;
    ``setup(fb)`` runs in main before spawning; ``verify(fb)`` runs in
    main after joining and must return the var holding 1 (pass) / 0.
    Main prints the checksum global is expected to be handled by the
    benchmark itself; the scaffold prints only the verified flag and
    returns it as the exit code (0 = success, 1 = failure, following
    shell conventions).
    """
    worker = module.function("worker", [("idx", VT.I64)], VT.I64)
    wb = FunctionBuilder(worker)
    worker_body(wb, "idx")
    wb.ret(0)

    main = module.function("main", [], VT.I64)
    fb = FunctionBuilder(main)
    setup(fb)
    worker_addr = fb.addr_of("worker")
    fb.syscall("barrier_init", [BARRIER_ID, threads])
    tids = fb.stack_alloc(8 * max(threads, 1), "tids")
    with fb.for_range("spawn_i", 0, threads) as i:
        tid = fb.syscall("spawn", [worker_addr, i], VT.I64)
        off = fb.binop("mul", i, 8, VT.I64)
        slot = fb.binop("add", tids, off, VT.I64)
        fb.store(slot, 0, tid, VT.I64)
    with fb.for_range("join_i", 0, threads) as i:
        off = fb.binop("mul", i, 8, VT.I64)
        slot = fb.binop("add", tids, off, VT.I64)
        tid = fb.load(slot, 0, VT.I64)
        fb.syscall("join", [tid], VT.I64)
    ok = verify(fb)
    fb.syscall("print", [ok])
    failed = fb.binop("eq", ok, 0, VT.I64)
    fb.ret(failed)
    module.entry = "main"


def emit_barrier(fb: FunctionBuilder) -> None:
    fb.syscall("barrier_wait", [BARRIER_ID], VT.I64)


def declare_shared_arrays(module: Module, names: List[str]) -> None:
    """Globals holding heap base addresses published by main's setup."""
    for name in names:
        module.add_global(GlobalVar(name, VT.I64, count=1))


def emit_publish_array(fb: FunctionBuilder, global_name: str, nbytes: int) -> str:
    """sbrk an array and store its base in a global; returns the var."""
    base = fb.syscall("sbrk", [nbytes], VT.I64)
    gaddr = fb.addr_of(global_name)
    fb.store(gaddr, 0, base, VT.PTR)
    return base


def emit_read_array(fb: FunctionBuilder, global_name: str) -> str:
    gaddr = fb.addr_of(global_name)
    return fb.load(gaddr, 0, VT.PTR)
