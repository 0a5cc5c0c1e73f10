"""NPB IS — integer sort (bucket/counting sort).

Real part: an LCG-generated key array is ranked with a counting sort
and fully verified (``full_verify``), producing a checksum that must
survive migration.  Work bursts carry the class-sized instruction
counts (integer/memory heavy) over the class-sized footprint.
"""

from typing import Optional

from repro.ir import FunctionBuilder, GlobalVar, Module
from repro.isa.types import ValueType as VT
from repro.workloads.base import (
    emit_barrier,
    emit_lcg_next,
    emit_publish_array,
    emit_read_array,
    build_parallel_scaffold,
    declare_shared_arrays,
)
from repro.workloads.profiles import PROFILES

MAX_KEY = 1024
CHECK_MASK = (1 << 48) - 1
# Span the verify pass touches; set per-build before emitting full_verify.
_VERIFY_SPAN = [0]



def _emit_create_seq(module: Module, elements: int) -> None:
    fn = module.function("create_seq", [("seed", VT.I64)], VT.I64)
    fb = FunctionBuilder(fn)
    keys = emit_read_array(fb, "g_keys")
    state = fb.local("state", VT.I64)
    fb.assign(state, "seed")
    with fb.for_range("i", 0, elements) as i:
        emit_lcg_next(fb, state)
        key = fb.binop("mod", state, MAX_KEY, VT.I64)
        off = fb.binop("mul", i, 8, VT.I64)
        slot = fb.binop("add", keys, off, VT.I64)
        fb.store(slot, 0, key, VT.I64)
    fb.ret(state)


def _emit_rank_chunk(module: Module, per_iter_instr: int, footprint: int) -> None:
    """The bucket-count kernel: work burst + real partial sum."""
    fn = module.function(
        "rank_chunk", [("lo", VT.I64), ("hi", VT.I64)], VT.I64
    )
    fb = FunctionBuilder(fn)
    keys = emit_read_array(fb, "g_keys")
    big = emit_read_array(fb, "g_big")
    fb.work(per_iter_instr, "int_alu", pages=big, span=footprint)
    total = fb.local("total", VT.I64, init=0)
    with fb.for_range("i", "lo", "hi") as i:
        off = fb.binop("mul", i, 8, VT.I64)
        slot = fb.binop("add", keys, off, VT.I64)
        key = fb.load(slot, 0, VT.I64)
        fb.binop_into(total, "add", total, key, VT.I64)
    fb.ret(total)


def _emit_full_verify_real(module: Module, elements: int, verify_instr: int) -> None:
    """Counting sort + sortedness check + checksum (the real IS verify)."""
    fn = module.function("full_verify", [], VT.I64)
    fb = FunctionBuilder(fn)
    keys = emit_read_array(fb, "g_keys")
    big = emit_read_array(fb, "g_big")
    hist = fb.stack_alloc(MAX_KEY * 8, "hist")
    fb.work(verify_instr, "load", pages=big, span=_VERIFY_SPAN[0])
    with fb.for_range("hz", 0, MAX_KEY) as i:
        off = fb.binop("mul", i, 8, VT.I64)
        fb.store(fb.binop("add", hist, off, VT.I64), 0, 0, VT.I64)
    with fb.for_range("hc", 0, elements) as i:
        off = fb.binop("mul", i, 8, VT.I64)
        key = fb.load(fb.binop("add", keys, off, VT.I64), 0, VT.I64)
        hoff = fb.binop("mul", key, 8, VT.I64)
        hslot = fb.binop("add", hist, hoff, VT.I64)
        count = fb.load(hslot, 0, VT.I64)
        fb.store(hslot, 0, fb.binop("add", count, 1, VT.I64), VT.I64)
    check = fb.local("check", VT.I64, init=0)
    pos = fb.local("pos", VT.I64, init=1)
    total = fb.local("total", VT.I64, init=0)
    with fb.for_range("k", 0, MAX_KEY) as k:
        hoff = fb.binop("mul", k, 8, VT.I64)
        count = fb.load(fb.binop("add", hist, hoff, VT.I64), 0, VT.I64)
        fb.binop_into(total, "add", total, count, VT.I64)
        # checksum += key * count * position (order-sensitive fold)
        t = fb.binop("mul", k, count, VT.I64)
        t = fb.binop("mul", t, pos, VT.I64)
        fb.binop_into(check, "add", check, t, VT.I64)
        fb.binop_into(check, "and", check, CHECK_MASK, VT.I64)
        fb.binop_into(pos, "add", pos, 1, VT.I64)
    ok = fb.binop("eq", total, elements, VT.I64)
    gaddr = fb.addr_of("g_checksum")
    fb.store(gaddr, 0, check, VT.I64)
    fb.ret(ok)


def build(cls: str = "A", threads: int = 1, scale: float = 1.0) -> Module:
    params = PROFILES["is"].params(cls)
    module = Module(f"is.{cls}.{threads}")
    declare_shared_arrays(module, ["g_keys", "g_big"])
    module.add_global(GlobalVar("g_checksum", VT.I64))

    elements = params.elements
    total_instr = params.total_instructions * scale
    per_iter = int(total_instr * 0.9 / params.iterations)
    verify_instr = int(total_instr * 0.1)
    chunk = max(elements // max(threads, 1), 1)

    _emit_create_seq(module, elements)
    _emit_rank_chunk(module, per_iter // max(threads, 1), params.footprint_bytes)
    _VERIFY_SPAN[0] = params.footprint_bytes
    _emit_full_verify_real(module, elements, verify_instr)

    def worker_body(fb: FunctionBuilder, idx: str) -> None:
        lo = fb.binop("mul", idx, chunk, VT.I64)
        hi_raw = fb.binop("add", lo, chunk, VT.I64)
        hi = fb.binop("min", hi_raw, elements, VT.I64)
        acc = fb.local("acc", VT.I64, init=0)
        with fb.for_range("it", 0, params.iterations):
            part = fb.call("rank_chunk", [lo, hi], VT.I64)
            fb.binop_into(acc, "add", acc, part, VT.I64)
            emit_barrier(fb)

    def setup(fb: FunctionBuilder) -> None:
        emit_publish_array(fb, "g_keys", elements * 8)
        emit_publish_array(fb, "g_big", params.footprint_bytes)
        fb.call("create_seq", [271828183], VT.I64)

    def verify(fb: FunctionBuilder) -> str:
        ok = fb.call("full_verify", [], VT.I64)
        gaddr = fb.addr_of("g_checksum")
        fb.syscall("print", [fb.load(gaddr, 0, VT.I64)])
        return ok

    build_parallel_scaffold(module, threads, worker_body, setup, verify)
    return module


def build_serial(
    cls: str = "B",
    scale: float = 1.0,
    migrate_before_verify: Optional[int] = None,
) -> Module:
    """The Figure 11 variant: serial IS, optionally migrating
    ``full_verify`` to the machine with the given index."""
    params = PROFILES["is"].params(cls)
    module = Module(f"is.{cls}.serial")
    declare_shared_arrays(module, ["g_keys", "g_big"])
    module.add_global(GlobalVar("g_checksum", VT.I64))

    elements = params.elements
    total_instr = params.total_instructions * scale
    per_iter = int(total_instr * 0.75 / params.iterations)
    verify_instr = int(total_instr * 0.25)

    _emit_create_seq(module, elements)
    _emit_rank_chunk(module, per_iter, params.footprint_bytes)
    _VERIFY_SPAN[0] = params.footprint_bytes
    _emit_full_verify_real(module, elements, verify_instr)

    main = module.function("main", [], VT.I64)
    fb = FunctionBuilder(main)
    emit_publish_array(fb, "g_keys", elements * 8)
    emit_publish_array(fb, "g_big", params.footprint_bytes)
    fb.call("create_seq", [271828183], VT.I64)
    with fb.for_range("it", 0, params.iterations):
        fb.call("rank_chunk", [0, elements], VT.I64)
    if migrate_before_verify is not None:
        fb.syscall("migrate_hint", [migrate_before_verify])
    ok = fb.call("full_verify", [], VT.I64)
    gaddr = fb.addr_of("g_checksum")
    fb.syscall("print", [fb.load(gaddr, 0, VT.I64)])
    fb.syscall("print", [ok])
    failed = fb.binop("eq", ok, 0, VT.I64)
    fb.ret(failed)
    module.entry = "main"
    return module
