"""A Redis-like key-value store serving a request trace.

Single-threaded (like Redis proper): a command loop applying SET/GET/
INCR operations from a deterministic trace to an open-addressing hash
table, with work bursts for request parsing/response formatting.  The
paper uses Redis for the emulation study (2.6x slowdown emulated on
ARM-host direction vs 34x the other way) and cites it as the class of
stateful C application that motivates native-code migration.
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

TABLE_SLOTS = 2048



def _emit_serve(module: Module, requests: int, instr: int, footprint: int) -> None:
    fn = module.function("serve_requests", [("seed", VT.I64)], VT.I64)
    fb = FunctionBuilder(fn)
    table = emit_read_array(fb, "g_table")
    big = emit_read_array(fb, "g_big")
    fb.work(instr, "load", pages=big, span=footprint)
    state = fb.local("state", VT.I64)
    fb.assign(state, "seed")
    check = fb.local("check", VT.I64, init=0)
    # The real request loop is a sample of the trace (1 in 64 requests);
    # the work burst above carries the full trace's instruction budget.
    sampled = max(requests // 64, 64)
    with fb.for_range("r", 0, sampled):
        emit_lcg_next(fb, state)
        key = fb.binop("mod", state, TABLE_SLOTS, VT.I64)
        op = fb.binop("mod", fb.binop("shr", state, 4, VT.I64), 3, VT.I64)
        slot = fb.binop("add", table, fb.binop("mul", key, 8, VT.I64), VT.I64)
        current = fb.load(slot, 0, VT.I64)

        def do_set() -> None:
            fb.store(slot, 0, fb.binop("add", key, 1, VT.I64), VT.I64)

        def do_get_or_incr() -> None:
            def do_get() -> None:
                # Responses fold value AND key, so the checksum is
                # nonzero even when every sampled GET misses.
                reply = fb.binop("add", current, fb.binop("add", key, 1, VT.I64), VT.I64)
                fb.binop_into(check, "add", check, reply, VT.I64)

            def do_incr() -> None:
                fb.store(slot, 0, fb.binop("add", current, 1, VT.I64), VT.I64)

            is_get = fb.binop("eq", op, 1, VT.I64)
            fb.if_then_else(is_get, do_get, do_incr)

        is_set = fb.binop("eq", op, 0, VT.I64)
        fb.if_then_else(is_set, do_set, do_get_or_incr)
    fb.ret(check)


def build(cls: str = "A", threads: int = 1, scale: float = 1.0) -> Module:
    """Redis is single-threaded; ``threads`` > 1 adds idle workers only
    (kept for interface uniformity with the other workloads)."""
    params = PROFILES["redis"].params(cls)
    module = Module(f"redis.{cls}.{threads}")
    declare_shared_arrays(module, ["g_table", "g_big"])
    module.add_global(GlobalVar("g_checksum", VT.I64))

    total_instr = params.total_instructions * scale

    _emit_serve(
        module, params.elements, int(total_instr), params.footprint_bytes
    )

    def worker_body(fb: FunctionBuilder, idx: str) -> None:
        is_zero = fb.binop("eq", idx, 0, VT.I64)
        with fb.if_then(is_zero):
            check = fb.call("serve_requests", [42424242], VT.I64)
            fb.store(fb.addr_of("g_checksum"), 0, check, VT.I64)
        emit_barrier(fb)

    def setup(fb: FunctionBuilder) -> None:
        emit_publish_array(fb, "g_table", TABLE_SLOTS * 8)
        emit_publish_array(fb, "g_big", params.footprint_bytes)

    def verify(fb: FunctionBuilder) -> str:
        check = fb.load(fb.addr_of("g_checksum"), 0, VT.I64)
        fb.syscall("print", [check])
        return fb.binop("gt", check, 0, VT.I64)

    build_parallel_scaffold(module, threads, worker_body, setup, verify)
    return module
