"""NPB EP — embarrassingly parallel random-number kernel.

Each worker generates pseudo-random coordinate pairs and classifies
them into annulus counts (the real, integer-exact part — so the merged
counts are thread-count independent and fully verifiable), while FP
work bursts carry the class-sized Gaussian-pair flop counts.
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

N_BINS = 10



def _emit_gen_pairs(module: Module, pairs_per_thread: int, flops: int) -> None:
    """Generate pairs, bin them into the shared per-thread count rows."""
    fn = module.function("gen_pairs", [("idx", VT.I64)], VT.I64)
    fb = FunctionBuilder(fn)
    counts = emit_read_array(fb, "g_counts")
    big = emit_read_array(fb, "g_big")
    fb.work(flops, "fp_alu", pages=big, span=8 << 20)
    # Per-thread row of N_BINS counters (no races).
    row = fb.binop("mul", "idx", N_BINS * 8, VT.I64)
    base = fb.binop("add", counts, row, VT.I64)
    state = fb.local("state", VT.I64)
    seed = fb.binop("mul", "idx", 1000003, VT.I64)
    fb.assign(state, fb.binop("add", seed, 271828183, VT.I64))
    accepted = fb.local("accepted", VT.I64, init=0)
    with fb.for_range("i", 0, pairs_per_thread):
        emit_lcg_next(fb, state)
        xi = fb.binop("mod", state, 2000, VT.I64)
        emit_lcg_next(fb, state)
        yi = fb.binop("mod", state, 2000, VT.I64)
        x = fb.binop("sub", fb.unop("i2f", xi, VT.F64), 1000.0, VT.F64)
        y = fb.binop("sub", fb.unop("i2f", yi, VT.F64), 1000.0, VT.F64)
        x = fb.binop("div", x, 1000.0, VT.F64)
        y = fb.binop("div", y, 1000.0, VT.F64)
        t = fb.binop(
            "add",
            fb.binop("mul", x, x, VT.F64),
            fb.binop("mul", y, y, VT.F64),
            VT.F64,
        )
        inside = fb.binop("le", t, 1.0, VT.F64)
        with fb.if_then(inside):
            fb.binop_into(accepted, "add", accepted, 1, VT.I64)
            # Annulus index: floor(sqrt(t) * N_BINS), clamped.
            radius = fb.unop("sqrt", t, VT.F64)
            bin_f = fb.binop("mul", radius, float(N_BINS), VT.F64)
            bin_i = fb.unop("f2i", bin_f, VT.I64)
            bin_i = fb.binop("min", bin_i, N_BINS - 1, VT.I64)
            slot = fb.binop(
                "add", base, fb.binop("mul", bin_i, 8, VT.I64), VT.I64
            )
            old = fb.load(slot, 0, VT.I64)
            fb.store(slot, 0, fb.binop("add", old, 1, VT.I64), VT.I64)
    fb.ret(accepted)


def build(cls: str = "A", threads: int = 1, scale: float = 1.0) -> Module:
    params = PROFILES["ep"].params(cls)
    module = Module(f"ep.{cls}.{threads}")
    declare_shared_arrays(module, ["g_counts", "g_big"])
    module.add_global(GlobalVar("g_checksum", VT.I64))

    total_instr = params.total_instructions * scale
    flops = int(total_instr / max(threads, 1))
    pairs = max(params.elements // max(threads, 1), 1)

    _emit_gen_pairs(module, pairs, flops)

    def worker_body(fb: FunctionBuilder, idx: str) -> None:
        fb.call("gen_pairs", [idx], VT.I64)
        emit_barrier(fb)

    def setup(fb: FunctionBuilder) -> None:
        emit_publish_array(fb, "g_counts", max(threads, 1) * N_BINS * 8)
        emit_publish_array(fb, "g_big", 8 << 20)

    def verify(fb: FunctionBuilder) -> str:
        counts = emit_read_array(fb, "g_counts")
        check = fb.local("check", VT.I64, init=0)
        total = fb.local("total", VT.I64, init=0)
        with fb.for_range("t", 0, max(threads, 1)) as t:
            with fb.for_range("b", 0, N_BINS) as b:
                row = fb.binop("mul", t, N_BINS * 8, VT.I64)
                off = fb.binop("add", row, fb.binop("mul", b, 8, VT.I64), VT.I64)
                c = fb.load(fb.binop("add", counts, off, VT.I64), 0, VT.I64)
                fb.binop_into(total, "add", total, c, VT.I64)
                wt = fb.binop("mul", c, fb.binop("add", b, 1, VT.I64), VT.I64)
                fb.binop_into(check, "add", check, wt, VT.I64)
        fb.store(fb.addr_of("g_checksum"), 0, check, VT.I64)
        fb.syscall("print", [check])
        # All accepted pairs were binned; acceptance ~ pi/4 of throws.
        lo = int(0.5 * params.elements)
        hi = params.elements
        in_lo = fb.binop("ge", total, lo, VT.I64)
        in_hi = fb.binop("le", total, hi, VT.I64)
        return fb.binop("and", in_lo, in_hi, VT.I64)

    build_parallel_scaffold(module, threads, worker_body, setup, verify)
    return module
