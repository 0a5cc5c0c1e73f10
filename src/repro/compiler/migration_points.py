"""Migration point insertion (Section 5.2.1).

Two passes, mirroring the paper's workflow:

* :func:`insert_boundary_points` puts a migration point at every
  function entry and immediately before every return — the naturally
  occurring equivalence points.
* :func:`insert_profiled_points` uses a gap profile (or a static
  threshold) to break up long runs of computation: every ``work`` burst
  that would exceed the target gap (~50M instructions, one scheduling
  quantum) is strip-mined into a chunked loop with a migration point per
  chunk.  This is the compiler "inserting migration points into other
  locations in the source in order to adjust the migration response
  time".
"""

import re
from typing import List, Optional

from repro.ir.analysis import strongly_connected
from repro.ir.function import Function, Module
from repro.ir.instructions import BinOp, Br, CBr, Const, MigPoint, Ret, UnOp, Work
from repro.isa.types import ValueType

DEFAULT_TARGET_GAP = 50_000_000  # one scheduling quantum, per the paper

# Chunk-loop body blocks minted by _strip_mine (``<label>.wb<n>``).
_CHUNK_BODY = re.compile(r"\.wb\d+$")


def _next_point_id(fn: Function) -> int:
    highest = -1
    for _, _, instr in fn.instructions():
        if isinstance(instr, MigPoint):
            highest = max(highest, instr.point_id)
    return highest + 1


def insert_boundary_points(module: Module) -> int:
    """Insert entry/exit migration points in every function.

    Returns the number of points inserted.  Idempotent: functions that
    already start with a migration point are left alone.
    """
    inserted = 0
    for fn in module.functions.values():
        if not _migratable(fn):
            continue
        point_id = _next_point_id(fn)
        entry_block = fn.blocks[fn.entry]
        if not (entry_block.instrs and isinstance(entry_block.instrs[0], MigPoint)):
            entry_block.instrs.insert(0, MigPoint(point_id=point_id, origin="entry"))
            point_id += 1
            inserted += 1
        for label in fn.block_order:
            block = fn.blocks[label]
            new_instrs = []
            for instr in block.instrs:
                if isinstance(instr, Ret) and not (
                    new_instrs and isinstance(new_instrs[-1], MigPoint)
                ):
                    new_instrs.append(MigPoint(point_id=point_id, origin="exit"))
                    point_id += 1
                    inserted += 1
                new_instrs.append(instr)
            block.instrs = new_instrs
    return inserted


def insert_profiled_points(
    module: Module,
    target_gap: int = DEFAULT_TARGET_GAP,
    hot_functions: Optional[List[str]] = None,
) -> int:
    """Strip-mine long work bursts so no gap exceeds ``target_gap``.

    ``hot_functions`` restricts the pass (e.g. to functions a gap
    profile flagged); by default every function is considered.  Returns
    the number of migration points inserted.
    """
    inserted = 0
    for name, fn in module.functions.items():
        if hot_functions is not None and name not in hot_functions:
            continue
        if not _migratable(fn):
            continue
        inserted += _chunk_work_in_function(fn, target_gap)
        inserted += _point_work_cycles(fn)
    return inserted


def _migratable(fn: Function) -> bool:
    """Library code and inline-assembly functions get no migration
    points (Section 5.4's limitations)."""
    if fn.library:
        return False
    from repro.ir.instructions import InlineAsm

    for _, _, instr in fn.instructions():
        if isinstance(instr, InlineAsm):
            return False
    return True


def _needs_chunking(instr: Work, target_gap: int) -> bool:
    if isinstance(instr.amount, (int, float)):
        return instr.amount > target_gap
    return True  # dynamic trip counts are chunked defensively


def _chunk_work_in_function(fn: Function, target_gap: int) -> int:
    inserted = 0
    # Iterate by index over the *growing* block list: strip-mining moves
    # everything after the split into a fresh continuation block, and a
    # second work burst in the same source block must be found there.
    scan = 0
    while scan < len(fn.block_order):
        label = fn.block_order[scan]
        scan += 1
        if _CHUNK_BODY.search(label):
            # A chunk body generated below: its Work(chunk_var) is
            # dynamic and already paired with a migration point —
            # re-chunking it would strip-mine forever.
            continue
        block = fn.blocks[label]
        split_at = None
        for i, instr in enumerate(block.instrs):
            if isinstance(instr, Work) and _needs_chunking(instr, target_gap):
                split_at = i
                break
        if split_at is None:
            continue
        _strip_mine(fn, label, split_at, target_gap)
        inserted += 1
    return inserted


def _point_work_cycles(fn: Function) -> int:
    """Give every cycle that performs work a migration point.

    Strip-mining bounds each individual burst, but a burst at or below
    the target repeated by a source-level loop still accumulates an
    unbounded point-free gap across iterations.  Any strongly connected
    component of the CFG that contains a ``work`` instruction and no
    migration point gets one, right after its first burst.
    """
    inserted = 0
    succs = {label: fn.blocks[label].successors() for label in fn.block_order}
    for component in strongly_connected(fn.block_order, succs):
        if len(component) == 1 and component[0] not in succs[component[0]]:
            continue  # trivial SCC, no self-loop: not a cycle
        has_work = has_point = False
        for label in component:
            for instr in fn.blocks[label].instrs:
                if isinstance(instr, Work):
                    has_work = True
                elif isinstance(instr, MigPoint):
                    has_point = True
        if not has_work or has_point:
            continue
        for label in sorted(component):
            block = fn.blocks[label]
            for i, instr in enumerate(block.instrs):
                if isinstance(instr, Work):
                    block.instrs.insert(
                        i + 1,
                        MigPoint(point_id=_next_point_id(fn), origin="profiled"),
                    )
                    inserted += 1
                    break
            else:
                continue
            break
    return inserted


def _strip_mine(fn: Function, label: str, index: int, chunk: int) -> None:
    """Rewrite ``work(N)`` at (label, index) into a chunked loop.

    Produces::

        rem = N
        header: if rem <= 0 goto cont
        body:   c = min(rem, chunk); work(c); migpoint; rem -= c; goto header
        cont:   <rest of the original block>
    """
    block = fn.blocks[label]
    work = block.instrs[index]
    assert isinstance(work, Work)
    suffix = block.instrs[index + 1 :]
    block.instrs = block.instrs[:index]

    n = len(fn.blocks)
    rem = fn.declare(f".wrem{n}", ValueType.I64)
    chunk_var = fn.declare(f".wchunk{n}", ValueType.I64)
    cond = fn.declare(f".wcond{n}", ValueType.I64)

    header = fn.block(f"{label}.wh{n}")
    body = fn.block(f"{label}.wb{n}")
    cont = fn.block(f"{label}.wc{n}")

    if isinstance(work.amount, str):
        block.instrs.append(UnOp(rem, "mov", work.amount, ValueType.I64))
    else:
        block.instrs.append(Const(rem, int(work.amount), ValueType.I64))
    block.instrs.append(Br(header.label))

    header.append(BinOp(cond, "gt", rem, 0, ValueType.I64))
    header.append(CBr(cond, body.label, cont.label))

    body.append(BinOp(chunk_var, "min", rem, chunk, ValueType.I64))
    body.append(
        Work(chunk_var, kind=work.kind, pages=work.pages, span=work.span)
    )
    body.append(MigPoint(point_id=_next_point_id(fn), origin="profiled"))
    body.append(BinOp(rem, "sub", rem, chunk_var, ValueType.I64))
    body.append(Br(header.label))

    cont.instrs = suffix
