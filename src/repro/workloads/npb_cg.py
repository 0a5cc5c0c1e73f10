"""NPB CG — conjugate gradient with irregular memory access.

Real part: a full conjugate-gradient solve on a small diagonally
dominant tridiagonal system (double precision), run by thread 0 so the
checksum is independent of FP reduction order; the class-sized flop
count is carried by distributed work bursts.  The call chain
``worker -> cg_iter -> conj_grad -> sparse_matvec`` gives the stack
transformation multi-frame work with FP live values.
"""

from repro.ir import FunctionBuilder, GlobalVar, Module
from repro.isa.types import ValueType as VT
from repro.workloads.base import (
    build_parallel_scaffold,
    declare_shared_arrays,
    emit_barrier,
    emit_lcg_next,
    emit_publish_array,
    emit_read_array,
)
from repro.workloads.profiles import PROFILES

_CG_SOLVE_ITERS = 15


def _emit_makea(module: Module, n: int) -> None:
    """Fill diag[] with 4 + small pseudo-random fraction (SPD system)."""
    fn = module.function("makea", [("seed", VT.I64)], VT.I64)
    fb = FunctionBuilder(fn)
    diag = emit_read_array(fb, "g_diag")
    state = fb.local("state", VT.I64)
    fb.assign(state, "seed")
    with fb.for_range("i", 0, n) as i:
        emit_lcg_next(fb, state)
        frac_i = fb.binop("mod", state, 1000, VT.I64)
        frac = fb.unop("i2f", frac_i, VT.F64)
        frac = fb.binop("div", frac, 2000.0, VT.F64)
        val = fb.binop("add", 4.0, frac, VT.F64)
        off = fb.binop("mul", i, 8, VT.I64)
        fb.store(fb.binop("add", diag, off, VT.I64), 0, val, VT.F64)
    fb.ret(state)


def _emit_sparse_matvec(module: Module, n: int, flops: int, footprint: int) -> None:
    """q = A p for the tridiagonal A (real) + class-sized burst."""
    fn = module.function("sparse_matvec", [("do_work", VT.I64)], VT.F64)
    fb = FunctionBuilder(fn)
    diag = emit_read_array(fb, "g_diag")
    p = emit_read_array(fb, "g_p")
    q = emit_read_array(fb, "g_q")
    big = emit_read_array(fb, "g_big")
    with fb.if_then(fb.binop("gt", "do_work", 0, VT.I64)):
        fb.work(flops, "fp_alu", pages=big, span=footprint)
    total = fb.local("mv_total", VT.F64, init=0.0)
    with fb.for_range("i", 0, n) as i:
        off = fb.binop("mul", i, 8, VT.I64)
        d = fb.load(fb.binop("add", diag, off, VT.I64), 0, VT.F64)
        pi = fb.load(fb.binop("add", p, off, VT.I64), 0, VT.F64)
        acc = fb.binop("mul", d, pi, VT.F64)
        prev_i = fb.binop("sub", i, 1, VT.I64)
        with fb.if_then(fb.binop("ge", prev_i, 0, VT.I64)):
            poff = fb.binop("mul", prev_i, 8, VT.I64)
            pprev = fb.load(fb.binop("add", p, poff, VT.I64), 0, VT.F64)
            fb.binop_into(acc, "sub", acc, pprev, VT.F64)
        next_i = fb.binop("add", i, 1, VT.I64)
        with fb.if_then(fb.binop("lt", next_i, n, VT.I64)):
            noff = fb.binop("mul", next_i, 8, VT.I64)
            pnext = fb.load(fb.binop("add", p, noff, VT.I64), 0, VT.F64)
            fb.binop_into(acc, "sub", acc, pnext, VT.F64)
        fb.store(fb.binop("add", q, off, VT.I64), 0, acc, VT.F64)
        fb.binop_into(total, "add", total, acc, VT.F64)
    fb.ret(total)


def _emit_dot(module: Module, n: int) -> None:
    """dot(u, v) over two published arrays selected by index."""
    fn = module.function("dot", [("ua", VT.PTR), ("va", VT.PTR)], VT.F64)
    fb = FunctionBuilder(fn)
    total = fb.local("dot_total", VT.F64, init=0.0)
    with fb.for_range("i", 0, n) as i:
        off = fb.binop("mul", i, 8, VT.I64)
        u = fb.load(fb.binop("add", "ua", off, VT.I64), 0, VT.F64)
        v = fb.load(fb.binop("add", "va", off, VT.I64), 0, VT.F64)
        fb.binop_into(total, "add", total, fb.binop("mul", u, v, VT.F64), VT.F64)
    fb.ret(total)


def _emit_conj_grad(module: Module, n: int, flops_per_iter: int, footprint: int) -> None:
    """One full CG solve (thread 0 only); returns ||r||^2 at the end."""
    fn = module.function("conj_grad", [("do_work", VT.I64)], VT.F64)
    fb = FunctionBuilder(fn)
    p = emit_read_array(fb, "g_p")
    q = emit_read_array(fb, "g_q")
    r = emit_read_array(fb, "g_r")
    x = emit_read_array(fb, "g_x")
    # x = 0, r = b = 1, p = r.
    with fb.for_range("i", 0, n) as i:
        off = fb.binop("mul", i, 8, VT.I64)
        fb.store(fb.binop("add", x, off, VT.I64), 0, 0.0, VT.F64)
        fb.store(fb.binop("add", r, off, VT.I64), 0, 1.0, VT.F64)
        fb.store(fb.binop("add", p, off, VT.I64), 0, 1.0, VT.F64)
    rho = fb.local("rho", VT.F64)
    fb.assign(rho, fb.call("dot", [r, r], VT.F64))
    with fb.for_range("cgit", 0, _CG_SOLVE_ITERS):
        fb.call("sparse_matvec", ["do_work"], VT.F64)
        pq = fb.call("dot", [p, q], VT.F64)
        alpha = fb.binop("div", rho, pq, VT.F64)
        with fb.for_range("j", 0, n) as j:
            off = fb.binop("mul", j, 8, VT.I64)
            xa = fb.binop("add", x, off, VT.I64)
            ra = fb.binop("add", r, off, VT.I64)
            pa = fb.binop("add", p, off, VT.I64)
            qa = fb.binop("add", q, off, VT.I64)
            xv = fb.load(xa, 0, VT.F64)
            pv = fb.load(pa, 0, VT.F64)
            fb.store(xa, 0, fb.binop("add", xv, fb.binop("mul", alpha, pv, VT.F64), VT.F64), VT.F64)
            rv = fb.load(ra, 0, VT.F64)
            qv = fb.load(qa, 0, VT.F64)
            fb.store(ra, 0, fb.binop("sub", rv, fb.binop("mul", alpha, qv, VT.F64), VT.F64), VT.F64)
        rho_new = fb.call("dot", [r, r], VT.F64)
        beta = fb.binop("div", rho_new, rho, VT.F64)
        fb.assign(rho, rho_new)
        with fb.for_range("j2", 0, n) as j:
            off = fb.binop("mul", j, 8, VT.I64)
            pa = fb.binop("add", p, off, VT.I64)
            ra = fb.binop("add", r, off, VT.I64)
            pv = fb.load(pa, 0, VT.F64)
            rv = fb.load(ra, 0, VT.F64)
            fb.store(pa, 0, fb.binop("add", rv, fb.binop("mul", beta, pv, VT.F64), VT.F64), VT.F64)
    fb.ret(rho)


def build(cls: str = "A", threads: int = 1, scale: float = 1.0) -> Module:
    params = PROFILES["cg"].params(cls)
    n = params.elements
    module = Module(f"cg.{cls}.{threads}")
    declare_shared_arrays(
        module, ["g_diag", "g_p", "g_q", "g_r", "g_x", "g_big"]
    )
    module.add_global(GlobalVar("g_checksum", VT.I64))

    total_instr = params.total_instructions * scale
    flops_per_iter = int(
        total_instr / (_CG_SOLVE_ITERS * max(threads, 1))
    )

    _emit_makea(module, n)
    _emit_dot(module, n)
    _emit_sparse_matvec(module, n, flops_per_iter, params.footprint_bytes)
    _emit_conj_grad(module, n, flops_per_iter, params.footprint_bytes)

    # Worker 0 runs the real solve (its matvec calls carry work bursts);
    # other workers burn their share of the bursts and synchronise.
    burner = module.function("cg_burn", [("iters", VT.I64)], VT.I64)
    bb = FunctionBuilder(burner)
    big = emit_read_array(bb, "g_big")
    with bb.for_range("w", 0, "iters"):
        bb.work(flops_per_iter, "fp_alu", pages=big, span=params.footprint_bytes)
    bb.ret(0)

    def worker_body(fb: FunctionBuilder, idx: str) -> None:
        is_zero = fb.binop("eq", idx, 0, VT.I64)

        def solver() -> None:
            rho = fb.call("conj_grad", [1], VT.F64)
            scaled = fb.binop("mul", rho, 1e6, VT.F64)
            fb.store(fb.addr_of("g_checksum"), 0, fb.unop("f2i", scaled, VT.I64), VT.I64)

        def burn() -> None:
            fb.call("cg_burn", [_CG_SOLVE_ITERS], VT.I64)

        fb.if_then_else(is_zero, solver, burn)
        emit_barrier(fb)

    def setup(fb: FunctionBuilder) -> None:
        for name in ("g_diag", "g_p", "g_q", "g_r", "g_x"):
            emit_publish_array(fb, name, n * 8)
        emit_publish_array(fb, "g_big", params.footprint_bytes)
        fb.call("makea", [314159265], VT.I64)

    def verify(fb: FunctionBuilder) -> str:
        check = fb.load(fb.addr_of("g_checksum"), 0, VT.I64)
        fb.syscall("print", [check])
        # CG converged iff the final residual shrank below the start
        # (n at iteration 0); diagonally dominant => always true.
        return fb.binop("lt", check, int(n * 1e6), VT.I64)

    build_parallel_scaffold(module, threads, worker_body, setup, verify)
    return module
