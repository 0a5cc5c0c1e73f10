"""Dataflow analyses over IR functions.

``liveness`` is the analysis the paper's stackmap emitter depends on:
the set of locals whose values must survive each call site is exactly
what the stack transformation runtime copies between ABIs.
"""

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Set, Tuple

from repro.ir.function import Function, Module
from repro.ir.instructions import Call, MigPoint, Syscall


@dataclass
class LivenessResult:
    """Per-block and per-instruction liveness for one function."""

    live_in: Dict[str, FrozenSet[str]]
    live_out: Dict[str, FrozenSet[str]]
    # (block, index) -> locals live immediately AFTER that instruction.
    live_after: Dict[Tuple[str, int], FrozenSet[str]]

    def live_across_calls(self, fn: Function) -> Set[str]:
        """Locals live across at least one call / migration point.

        These may not be allocated to caller-saved registers, and (for
        migration points) are exactly the values the stackmap records.
        """
        across: Set[str] = set()
        for label, i, instr in fn.instructions():
            if isinstance(instr, (Call, Syscall, MigPoint)):
                after = set(self.live_after[(label, i)])
                after.discard(getattr(instr, "dst", ""))
                across |= after
        return across


def liveness(fn: Function) -> LivenessResult:
    """Backward may-liveness over the CFG."""
    predecessors: Dict[str, List[str]] = {label: [] for label in fn.block_order}
    for label in fn.block_order:
        for succ in fn.blocks[label].successors():
            predecessors[succ].append(label)

    use: Dict[str, Set[str]] = {}
    defs: Dict[str, Set[str]] = {}
    for label in fn.block_order:
        u: Set[str] = set()
        d: Set[str] = set()
        for instr in fn.blocks[label].instrs:
            for v in instr.uses():
                if v not in d:
                    u.add(v)
            d.update(instr.defs())
        use[label] = u
        defs[label] = d

    live_in: Dict[str, Set[str]] = {label: set() for label in fn.block_order}
    live_out: Dict[str, Set[str]] = {label: set() for label in fn.block_order}

    changed = True
    while changed:
        changed = False
        for label in reversed(fn.block_order):
            out: Set[str] = set()
            for succ in fn.blocks[label].successors():
                out |= live_in[succ]
            new_in = use[label] | (out - defs[label])
            if out != live_out[label] or new_in != live_in[label]:
                live_out[label] = out
                live_in[label] = new_in
                changed = True

    # Address-taken locals are pinned to memory and conservatively kept
    # live everywhere they might be reachable through a pointer.
    pinned = set(fn.address_taken)

    live_after: Dict[Tuple[str, int], FrozenSet[str]] = {}
    for label in fn.block_order:
        instrs = fn.blocks[label].instrs
        live: Set[str] = set(live_out[label]) | pinned
        for i in range(len(instrs) - 1, -1, -1):
            live_after[(label, i)] = frozenset(live)
            instr = instrs[i]
            live -= set(instr.defs())
            live |= set(instr.uses())
            live |= pinned

    return LivenessResult(
        live_in={k: frozenset(v | pinned) for k, v in live_in.items()},
        live_out={k: frozenset(v | pinned) for k, v in live_out.items()},
        live_after=live_after,
    )


def call_graph(module: Module) -> Dict[str, Set[str]]:
    """Map each function name to the set of functions it calls."""
    graph: Dict[str, Set[str]] = {name: set() for name in module.functions}
    for name, fn in module.functions.items():
        for _, _, instr in fn.instructions():
            if isinstance(instr, Call):
                graph[name].add(instr.callee)
    return graph


def max_call_depth(module: Module, root: str = "") -> int:
    """Longest acyclic call chain from ``root`` (defaults to the entry)."""
    root = root or module.entry
    graph = call_graph(module)
    seen: Set[str] = set()

    def depth(fn: str) -> int:
        if fn in seen or fn not in graph:
            return 0
        seen.add(fn)
        best = 0
        for callee in graph[fn]:
            best = max(best, depth(callee))
        seen.discard(fn)
        return 1 + best

    return depth(root)
