"""Dispatch-bound interpreter stress kernel (not a registry workload).

The registry benchmarks are the *correctness* corpus: memory-realistic
programs with threads, calls, syscalls, ``Work`` bursts and migration
points.  Their host time mixes dispatch with everything else the
engine does (building and compiling regions, calls, syscalls, thread
switches), so they are a poor probe of the one cost the fast engine
removes — per-instruction dispatch.  Nor is their time hDSM work: in a
traced registry pass ``kernel.dsm.*`` is 0.3% of the wall time,
``runtime.self_s`` about three quarters and ``compiler.build_s`` about
an eighth.

This module is the opposite: a long interpreted loop of register-only
scalar ALU work (integer and floating point, including the truncating
div/mod pair whose semantics the fast path inlines), with no Work
bursts, no loads/stores and therefore no DSM traffic.  Its wall time
is dispatch, which is exactly what ``tools/bench_interp.py`` measures
when it reports the fast-engine speedup recorded in
``BENCH_interp.json``.

It is intentionally *not* registered in the workload REGISTRY: it
computes nothing from the paper and must not show up in `repro list`,
the golden-checksum table, or the datacenter job mix.
"""

from repro.ir import FunctionBuilder, Module
from repro.isa.types import ValueType as VT

# Enough iterations that region compilation is amortized into noise
# and the wall-time ratio measures steady-state dispatch.
DEFAULT_ITERATIONS = 100_000


def interp_stress_module(iterations: int = DEFAULT_ITERATIONS) -> Module:
    """A tight scalar loop of ~10 interpreted ops per iteration.

    The body mixes the operator classes with distinct fast-path
    codegen: integer add/mul/xor, the truncating div/mod pair over
    sign-varying operands (inlined expressions on the fast path),
    float add/mul and the i2f/f2i conversions.  It deliberately stays
    lean — few live values, no call per iteration, no sqrt-style math
    whose native cost is identical in both engines — so the measured
    ratio is dispatch, not arithmetic.
    """
    m = Module("interp-stress")

    kern = m.function("kernel", [("n", VT.I64)], VT.I64)
    fb = FunctionBuilder(kern)
    acc = fb.local("acc", VT.I64, init=0x9E3779B9)
    x = fb.local("x", VT.F64, init=1.0)
    with fb.for_range("i", 0, "n") as i:
        t = fb.binop("mul", i, 3, VT.I64)
        t = fb.binop("add", t, 7, VT.I64)
        t = fb.binop("mod", t, 1000, VT.I64)
        # Truncating div/mod with sign-varying operands: the fast path
        # inlines both and has to match `semantics.truncdiv` exactly.
        s = fb.binop("sub", t, 500, VT.I64)
        q = fb.binop("div", s, 9, VT.I64)
        r = fb.binop("mod", s, 7, VT.I64)
        fb.assign(x, fb.binop("add", x, fb.unop("i2f", t, VT.F64), VT.F64))
        fb.assign(x, fb.binop("mul", x, 0.5, VT.F64))
        fb.binop_into(acc, "add", acc, t, VT.I64)
        fb.binop_into(acc, "xor", acc, fb.binop("sub", q, r, VT.I64), VT.I64)
    folded = fb.binop("xor", acc, fb.unop("f2i", fb.binop(
        "mul", x, 1e6, VT.F64), VT.I64), VT.I64)
    fb.ret(fb.binop("and", folded, (1 << 31) - 1, VT.I64))

    main = m.function("main", [], VT.I64)
    fb = FunctionBuilder(main)
    checksum = fb.call("kernel", [iterations], VT.I64)
    fb.syscall("print", [checksum])
    fb.ret(0)
    m.entry = "main"
    return m
