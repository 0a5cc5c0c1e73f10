"""NPB FT — 3-D FFT PDE solver.

Deep call chain (``worker -> ft_iter -> fft3d -> cffts1 -> cfftz ->
fftz2``) matching the paper's observation that FT's ``fftz2`` produces
the deepest transformation (7 frames, ~31 live values, the longest
latency in Figure 10).  Real part: a complex phasor evolution over a
small spectrum, single-threaded for a reduction-order-free checksum.
"""

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

# Rotation applied per evolve step: (c, s) ~ unit phasor.
_COS = 0.9998
_SIN = 0.0199986


def _emit_fftz2(module: Module, n: int, flops: int, footprint: int) -> None:
    """Innermost butterfly: rotate each complex bin by the phasor."""
    fn = module.function(
        "fftz2",
        [("lo", VT.I64), ("hi", VT.I64), ("c", VT.F64), ("s", VT.F64),
         ("do_work", VT.I64)],
        VT.F64,
    )
    fb = FunctionBuilder(fn)
    re = emit_read_array(fb, "g_re")
    im = emit_read_array(fb, "g_im")
    big = emit_read_array(fb, "g_big")
    with fb.if_then(fb.binop("gt", "do_work", 0, VT.I64)):
        fb.work(flops, "fp_alu", pages=big, span=footprint)
    checksum = fb.local("bsum", VT.F64, init=0.0)
    with fb.for_range("i", "lo", "hi") as i:
        off = fb.binop("mul", i, 8, VT.I64)
        ra = fb.binop("add", re, off, VT.I64)
        ia = fb.binop("add", im, off, VT.I64)
        rv = fb.load(ra, 0, VT.F64)
        iv = fb.load(ia, 0, VT.F64)
        nr = fb.binop(
            "sub",
            fb.binop("mul", rv, "c", VT.F64),
            fb.binop("mul", iv, "s", VT.F64),
            VT.F64,
        )
        ni = fb.binop(
            "add",
            fb.binop("mul", rv, "s", VT.F64),
            fb.binop("mul", iv, "c", VT.F64),
            VT.F64,
        )
        fb.store(ra, 0, nr, VT.F64)
        fb.store(ia, 0, ni, VT.F64)
        fb.binop_into(checksum, "add", checksum, nr, VT.F64)
    fb.ret(checksum)


def _emit_chain(module: Module, n: int) -> None:
    """cfftz -> fftz2, cffts1 -> cfftz, fft3d -> cffts1 (call depth)."""
    cfftz = module.function(
        "cfftz", [("half", VT.I64), ("do_work", VT.I64)], VT.F64
    )
    fb = FunctionBuilder(cfftz)
    mid = n // 2
    a = fb.call("fftz2", [0, mid, _COS, _SIN, "do_work"], VT.F64)
    b = fb.call("fftz2", [mid, n, _COS, -_SIN, "half"], VT.F64)
    fb.ret(fb.binop("add", a, b, VT.F64))

    cffts1 = module.function("cffts1", [("do_work", VT.I64)], VT.F64)
    fb = FunctionBuilder(cffts1)
    v = fb.call("cfftz", [0, "do_work"], VT.F64)
    fb.ret(v)

    fft3d = module.function("fft3d", [("do_work", VT.I64)], VT.F64)
    fb = FunctionBuilder(fft3d)
    v1 = fb.call("cffts1", ["do_work"], VT.F64)
    v2 = fb.call("cffts1", [0], VT.F64)
    v3 = fb.call("cffts1", [0], VT.F64)
    t = fb.binop("add", v1, v2, VT.F64)
    fb.ret(fb.binop("add", t, v3, VT.F64))


def build(cls: str = "A", threads: int = 1, scale: float = 1.0) -> Module:
    params = PROFILES["ft"].params(cls)
    n = params.elements
    module = Module(f"ft.{cls}.{threads}")
    declare_shared_arrays(module, ["g_re", "g_im", "g_big"])
    module.add_global(GlobalVar("g_checksum", VT.I64))

    total_instr = params.total_instructions * scale
    flops = int(total_instr / (params.iterations * max(threads, 1)))

    _emit_fftz2(module, n, flops, params.footprint_bytes)
    _emit_chain(module, n)

    burner = module.function("ft_burn", [("iters", VT.I64)], VT.I64)
    bb = FunctionBuilder(burner)
    big = emit_read_array(bb, "g_big")
    with bb.for_range("w", 0, "iters"):
        bb.work(flops, "fp_alu", pages=big, span=params.footprint_bytes)
    bb.ret(0)

    def worker_body(fb: FunctionBuilder, idx: str) -> None:
        is_zero = fb.binop("eq", idx, 0, VT.I64)
        acc = fb.local("acc", VT.F64, init=0.0)
        with fb.for_range("it", 0, params.iterations):
            def evolve() -> None:
                v = fb.call("fft3d", [1], VT.F64)
                fb.binop_into(acc, "add", acc, v, VT.F64)

            def burn() -> None:
                fb.call("ft_burn", [1], VT.I64)

            fb.if_then_else(is_zero, evolve, burn)
            emit_barrier(fb)
        with fb.if_then(is_zero):
            scaled = fb.binop("mul", acc, 1e6, VT.F64)
            fb.store(
                fb.addr_of("g_checksum"), 0,
                fb.unop("f2i", scaled, VT.I64), VT.I64,
            )

    def setup(fb: FunctionBuilder) -> None:
        re = emit_publish_array(fb, "g_re", n * 8)
        im = emit_publish_array(fb, "g_im", n * 8)
        emit_publish_array(fb, "g_big", params.footprint_bytes)
        # Initial spectrum: re[k] = 1/(k+1), im[k] = 0.
        with fb.for_range("k", 0, n) as k:
            off = fb.binop("mul", k, 8, VT.I64)
            kp1 = fb.binop("add", k, 1, VT.I64)
            val = fb.binop("div", 1.0, fb.unop("i2f", kp1, VT.F64), VT.F64)
            fb.store(fb.binop("add", re, off, VT.I64), 0, val, VT.F64)
            fb.store(fb.binop("add", im, off, VT.I64), 0, 0.0, VT.F64)

    def verify(fb: FunctionBuilder) -> str:
        check = fb.load(fb.addr_of("g_checksum"), 0, VT.I64)
        fb.syscall("print", [check])
        # The phasor rotation preserves magnitude: |bsum| <= sum 1/k
        # per fftz2 call, so the folded checksum is bounded by the
        # call count times that (scaled by 1e6), and never zero.
        bound = int(1e4 * params.iterations * 1e6)
        in_lo = fb.binop("gt", check, -bound, VT.I64)
        in_hi = fb.binop("lt", check, bound, VT.I64)
        nonzero = fb.binop("ne", check, 0, VT.I64)
        return fb.binop("and", fb.binop("and", in_lo, in_hi, VT.I64), nonzero, VT.I64)

    build_parallel_scaffold(module, threads, worker_body, setup, verify)
    return module
