"""Shared program builders and run helpers for the test suite."""

import gc
import tracemalloc
from typing import List, Optional, Tuple

from repro.compiler import Toolchain
from repro.ir import FunctionBuilder, GlobalVar, Module
from repro.isa.types import ValueType as VT
from repro.kernel import boot_testbed
from repro.runtime.execution import EngineHooks, make_engine

X86 = "x86-server"
ARM = "arm-server"


def simple_sum_module(n: int = 10) -> Module:
    """main() { acc = sum(0..n) + cell updates through a pointer }"""
    m = Module("simple")
    f = m.function("accum", [("n", VT.I64)], VT.I64)
    fb = FunctionBuilder(f)
    acc = fb.local("acc", VT.I64, init=1)
    fb.local("cell", VT.I64, init=7)
    p = fb.addr_of("cell")
    with fb.for_range("i", 0, "n") as i:
        v = fb.load(p, 0, VT.I64)
        fb.store(p, 0, fb.binop("add", v, i, VT.I64), VT.I64)
        fb.binop_into(acc, "add", acc, fb.load(p, 0, VT.I64), VT.I64)
    fb.ret(acc)

    main = m.function("main", [], VT.I64)
    fb = FunctionBuilder(main)
    r = fb.call("accum", [n], VT.I64)
    fb.syscall("print", [r])
    fb.ret(r)
    m.entry = "main"
    return m


def call_chain_module(depth: int = 5, work_per_level: int = 60_000_000) -> Module:
    """A chain f0 -> f1 -> ... -> f(depth-1), each with live state and
    a strip-mineable work burst (so migration points appear deep in the
    call stack)."""
    m = Module(f"chain{depth}")
    for level in range(depth - 1, -1, -1):
        f = m.function(f"f{level}", [("x", VT.I64)], VT.I64)
        fb = FunctionBuilder(f)
        local = fb.local("keep", VT.I64)
        fb.binop_into(local, "mul", "x", level + 3, VT.I64)
        if level == depth - 1:
            fb.work(work_per_level, "int_alu")
            fb.ret(fb.binop("add", local, 11, VT.I64))
        else:
            sub = fb.call(f"f{level + 1}", [fb.binop("add", "x", 1, VT.I64)], VT.I64)
            fb.ret(fb.binop("add", local, sub, VT.I64))

    main = m.function("main", [], VT.I64)
    fb = FunctionBuilder(main)
    r = fb.call("f0", [5], VT.I64)
    fb.syscall("print", [r])
    fb.ret(r)
    m.entry = "main"
    return m


def float_module() -> Module:
    """FP-heavy function exercising FPR allocation asymmetries."""
    m = Module("floats")
    f = m.function("mix", [("n", VT.I64)], VT.F64)
    fb = FunctionBuilder(f)
    a = fb.local("a", VT.F64, init=1.5)
    b = fb.local("b", VT.F64, init=0.25)
    with fb.for_range("i", 0, "n"):
        fb.work(55_000_000, "fp_alu")
        fb.binop_into(a, "add", a, fb.binop("mul", b, 1.125, VT.F64), VT.F64)
        fb.binop_into(b, "div", b, 2.0, VT.F64)
    fb.ret(fb.binop("add", a, fb.unop("sqrt", b, VT.F64), VT.F64))

    main = m.function("main", [], VT.I64)
    fb = FunctionBuilder(main)
    r = fb.call("mix", [4], VT.F64)
    scaled = fb.unop("f2i", fb.binop("mul", r, 1e9, VT.F64), VT.I64)
    fb.syscall("print", [scaled])
    fb.ret(scaled)
    m.entry = "main"
    return m


def stack_pointer_module() -> Module:
    """Pointers into stack buffers that must be fixed up on migration."""
    m = Module("stackptr")
    f = m.function("fill", [("n", VT.I64)], VT.I64)
    fb = FunctionBuilder(f)
    buf = fb.stack_alloc(256, "scratch")
    cursor = fb.local("cursor", VT.PTR)
    fb.assign(cursor, buf)
    with fb.for_range("i", 0, "n") as i:
        fb.work(60_000_000, "int_alu")
        fb.store(cursor, 0, fb.binop("mul", i, 3, VT.I64), VT.I64)
        fb.binop_into(cursor, "add", cursor, 8, VT.PTR)
    total = fb.local("total", VT.I64, init=0)
    with fb.for_range("j", 0, "n") as j:
        off = fb.binop("mul", j, 8, VT.I64)
        fb.binop_into(
            total, "add", total,
            fb.load(fb.binop("add", buf, off, VT.I64), 0, VT.I64), VT.I64,
        )
    fb.ret(total)

    main = m.function("main", [], VT.I64)
    fb = FunctionBuilder(main)
    r = fb.call("fill", [8], VT.I64)
    fb.syscall("print", [r])
    fb.ret(r)
    m.entry = "main"
    return m


def tls_module() -> Module:
    """Thread-local counters; each spawned thread bumps its own."""
    m = Module("tls")
    m.add_global(GlobalVar("tls_counter", VT.I64, thread_local=True, init=[100]))
    m.add_global(GlobalVar("g_results", VT.I64, count=8))

    w = m.function("bump", [("idx", VT.I64)], VT.I64)
    fb = FunctionBuilder(w)
    taddr = fb.addr_of("tls_counter")
    with fb.for_range("i", 0, 5):
        v = fb.load(taddr, 0, VT.I64)
        fb.store(taddr, 0, fb.binop("add", v, 1, VT.I64), VT.I64)
    out = fb.addr_of("g_results")
    final = fb.load(taddr, 0, VT.I64)
    slot = fb.binop("add", out, fb.binop("mul", "idx", 8, VT.I64), VT.I64)
    fb.store(slot, 0, final, VT.I64)
    fb.ret(final)

    main = m.function("main", [], VT.I64)
    fb = FunctionBuilder(main)
    waddr = fb.addr_of("bump")
    t1 = fb.syscall("spawn", [waddr, 0], VT.I64)
    t2 = fb.syscall("spawn", [waddr, 1], VT.I64)
    fb.syscall("join", [t1], VT.I64)
    fb.syscall("join", [t2], VT.I64)
    out = fb.addr_of("g_results")
    a = fb.load(out, 0, VT.I64)
    b = fb.load(out, 8, VT.I64)
    fb.syscall("print", [a])
    fb.syscall("print", [b])
    fb.ret(fb.binop("add", a, b, VT.I64))
    m.entry = "main"
    return m


def run_to_completion(
    module: Module,
    start: str = X86,
    migrate_at: Optional[int] = None,
    toolchain: Optional[Toolchain] = None,
    batch: int = 256,
    engine: str = "exact",
) -> Tuple[List[float], Optional[int], object]:
    """Build + run a module on the ``engine`` kind of
    :func:`~repro.runtime.execution.make_engine`; optionally migrate at
    the Nth migration point hit.  Returns (output, exit_code, system)."""
    binary = (toolchain or Toolchain()).build(module)
    system = boot_testbed()
    process = system.exec_process(binary, start)
    hooks = EngineHooks()
    hits = [0]

    def on_point(thread, fn, point_id, instrs):
        hits[0] += 1
        if migrate_at is not None and hits[0] == migrate_at:
            others = [m for m in system.machine_order if m != thread.machine_name]
            system.request_migration(process, others[0])

    hooks.on_migration_point = on_point
    make_engine(system, process, hooks, batch=batch, engine=engine).run()
    return process.output, process.exit_code, system


def traced_memory(fn):
    """``(result, retained bytes, peak bytes)`` of ``fn()`` under
    tracemalloc, both counted from the call's start."""
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = fn()
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, current - base, peak - base
