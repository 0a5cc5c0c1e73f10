"""Shared machinery for the NPB grid solvers (BT, SP, MG).

BT (block tridiagonal), SP (scalar pentadiagonal) and MG (multigrid)
are all iterative stencil solvers; they differ in instruction mix,
iteration structure and call tree.  Each emits:

* a real per-iteration Jacobi-style sweep over a small 1-D grid run by
  thread 0 (integer-exact checksum via scaled fixed-point),
* per-ISA work bursts sized to the class instruction budget, spread
  over directional solve phases (``x_solve``/``y_solve``/``z_solve``
  for BT/SP, the V-cycle levels for MG) to create the call-tree shape
  the gap and transformation figures rely on.
"""

from typing import List

from repro.ir import FunctionBuilder, GlobalVar, Module
from repro.isa.types import ValueType as VT
from repro.workloads.base import (
    build_parallel_scaffold,
    declare_shared_arrays,
    emit_barrier,
    emit_publish_array,
    emit_read_array,
)
from repro.workloads.profiles import PROFILES


def _emit_sweep(module: Module, n: int) -> None:
    """One Jacobi sweep: u[i] = (u[i-1] + u[i+1]) / 2 + f[i] (fixed-point)."""
    fn = module.function("sweep", [], VT.I64)
    fb = FunctionBuilder(fn)
    u = emit_read_array(fb, "g_u")
    f = emit_read_array(fb, "g_f")
    check = fb.local("sweep_check", VT.I64, init=0)
    prev = fb.local("prev", VT.I64, init=0)
    with fb.for_range("i", 1, n - 1) as i:
        off = fb.binop("mul", i, 8, VT.I64)
        ua = fb.binop("add", u, off, VT.I64)
        left = fb.load(fb.binop("sub", ua, 8, VT.I64), 0, VT.I64)
        right = fb.load(fb.binop("add", ua, 8, VT.I64), 0, VT.I64)
        fv = fb.load(fb.binop("add", f, off, VT.I64), 0, VT.I64)
        avg = fb.binop("div", fb.binop("add", left, right, VT.I64), 2, VT.I64)
        nv = fb.binop("add", avg, fv, VT.I64)
        fb.store(ua, 0, nv, VT.I64)
        fb.binop_into(check, "xor", check, nv, VT.I64)
        fb.assign(prev, nv)
    fb.ret(check)


def _emit_solve_phase(
    module: Module, name: str, instr: int, kind: str, footprint: int
) -> None:
    fn = module.function(name, [("do_work", VT.I64)], VT.I64)
    fb = FunctionBuilder(fn)
    big = emit_read_array(fb, "g_big")
    with fb.if_then(fb.binop("gt", "do_work", 0, VT.I64)):
        fb.work(instr, kind, pages=big, span=footprint)
    fb.ret(0)


def build_stencil(
    bench: str,
    cls: str,
    threads: int,
    scale: float,
    phases: List[str],
    phase_kind: str,
) -> Module:
    """Build one grid-solver workload."""
    params = PROFILES[bench].params(cls)
    n = params.elements
    module = Module(f"{bench}.{cls}.{threads}")
    declare_shared_arrays(module, ["g_u", "g_f", "g_big"])
    module.add_global(GlobalVar("g_checksum", VT.I64))

    total_instr = params.total_instructions * scale
    per_phase = int(
        total_instr / (params.iterations * len(phases) * max(threads, 1))
    )

    _emit_sweep(module, n)
    for phase in phases:
        _emit_solve_phase(module, phase, per_phase, phase_kind, params.footprint_bytes)

    # adi(): one timestep — all directional phases plus the real sweep.
    adi = module.function("adi", [("do_real", VT.I64)], VT.I64)
    fb = FunctionBuilder(adi)
    for phase in phases:
        fb.call(phase, [1], VT.I64)
    out = fb.local("adi_out", VT.I64, init=0)
    with fb.if_then(fb.binop("gt", "do_real", 0, VT.I64)):
        fb.assign(out, fb.call("sweep", [], VT.I64))
    fb.ret(out)

    def worker_body(fb: FunctionBuilder, idx: str) -> None:
        is_zero = fb.binop("eq", idx, 0, VT.I64)
        check = fb.local("check", VT.I64, init=0)
        with fb.for_range("it", 0, params.iterations):
            v = fb.call("adi", [is_zero], VT.I64)
            fb.binop_into(check, "xor", check, v, VT.I64)
            emit_barrier(fb)
        with fb.if_then(is_zero):
            fb.store(fb.addr_of("g_checksum"), 0, check, VT.I64)

    def setup(fb: FunctionBuilder) -> None:
        u = emit_publish_array(fb, "g_u", n * 8)
        f = emit_publish_array(fb, "g_f", n * 8)
        emit_publish_array(fb, "g_big", params.footprint_bytes)
        with fb.for_range("i", 0, n) as i:
            off = fb.binop("mul", i, 8, VT.I64)
            # u starts as a ramp, f as its curvature source.
            fb.store(fb.binop("add", u, off, VT.I64), 0,
                     fb.binop("mul", i, 1000, VT.I64), VT.I64)
            fb.store(fb.binop("add", f, off, VT.I64), 0,
                     fb.binop("mod", i, 17, VT.I64), VT.I64)

    def verify(fb: FunctionBuilder) -> str:
        check = fb.load(fb.addr_of("g_checksum"), 0, VT.I64)
        fb.syscall("print", [check])
        return fb.binop("ne", check, 0, VT.I64)

    build_parallel_scaffold(module, threads, worker_body, setup, verify)
    return module
