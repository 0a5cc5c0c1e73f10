"""Verus — quantitative model checking (branch-intensive).

Real part: explicit-state exploration of a synthetic transition system
(states are LCG successors; a heap bitset marks visited states), which
is exactly the pointer-chasing/branching profile of a model checker.
Work bursts carry the symbolic-analysis instruction budget; the paper
runs Verus with variable input sizes, mapped to classes here.
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

STATE_SPACE = 4096  # bitset slots for the real exploration



def _emit_explore(module: Module, steps: int, instr: int, footprint: int) -> None:
    """Walk the synthetic transition relation, counting fresh states."""
    fn = module.function("explore", [("idx", VT.I64)], VT.I64)
    fb = FunctionBuilder(fn)
    visited = emit_read_array(fb, "g_visited")
    big = emit_read_array(fb, "g_big")
    fb.work(instr, "branch", pages=big, span=footprint)
    state = fb.local("state", VT.I64)
    fb.assign(state, fb.binop("add", fb.binop("mul", "idx", 524287, VT.I64), 1, VT.I64))
    fresh = fb.local("fresh", VT.I64, init=0)
    with fb.for_range("i", 0, steps):
        emit_lcg_next(fb, state)
        node = fb.binop("mod", state, STATE_SPACE, VT.I64)
        slot = fb.binop("add", visited, fb.binop("mul", node, 8, VT.I64), VT.I64)
        seen = fb.load(slot, 0, VT.I64)
        was_new = fb.binop("eq", seen, 0, VT.I64)
        with fb.if_then(was_new):
            fb.store(slot, 0, 1, VT.I64)
            fb.binop_into(fresh, "add", fresh, 1, VT.I64)
    fb.ret(fresh)


def build(cls: str = "A", threads: int = 1, scale: float = 1.0) -> Module:
    params = PROFILES["verus"].params(cls)
    module = Module(f"verus.{cls}.{threads}")
    declare_shared_arrays(module, ["g_visited", "g_big", "g_fresh"])
    module.add_global(GlobalVar("g_checksum", VT.I64))

    total_instr = params.total_instructions * scale
    per_thread = int(total_instr / max(threads, 1))
    steps = max(params.elements // max(threads, 1), 1)

    _emit_explore(module, steps, per_thread, params.footprint_bytes)

    def worker_body(fb: FunctionBuilder, idx: str) -> None:
        fresh = fb.call("explore", [idx], VT.I64)
        out = emit_read_array(fb, "g_fresh")
        slot = fb.binop("add", out, fb.binop("mul", idx, 8, VT.I64), VT.I64)
        fb.store(slot, 0, fresh, VT.I64)
        emit_barrier(fb)

    def setup(fb: FunctionBuilder) -> None:
        emit_publish_array(fb, "g_visited", STATE_SPACE * 8)
        emit_publish_array(fb, "g_big", params.footprint_bytes)
        emit_publish_array(fb, "g_fresh", max(threads, 1) * 8)

    def verify(fb: FunctionBuilder) -> str:
        visited = emit_read_array(fb, "g_visited")
        reached = fb.local("reached", VT.I64, init=0)
        with fb.for_range("s", 0, STATE_SPACE) as s:
            v = fb.load(fb.binop("add", visited, fb.binop("mul", s, 8, VT.I64), VT.I64), 0, VT.I64)
            fb.binop_into(reached, "add", reached, v, VT.I64)
        fb.store(fb.addr_of("g_checksum"), 0, reached, VT.I64)
        fb.syscall("print", [reached])
        cover_lo = fb.binop("gt", reached, STATE_SPACE // 4, VT.I64)
        cover_hi = fb.binop("le", reached, STATE_SPACE, VT.I64)
        return fb.binop("and", cover_lo, cover_hi, VT.I64)

    build_parallel_scaffold(module, threads, worker_body, setup, verify)
    return module
