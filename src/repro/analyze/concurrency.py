"""Shared interprocedural concurrency model for the RACE/SHR passes.

The three concurrency passes (:mod:`repro.analyze.races`,
:mod:`repro.analyze.locks`, :mod:`repro.analyze.sharing`) all need the
same facts about a module: which functions run in which *thread role*,
which loads/stores/bursts they perform against which memory *regions*,
which of those accesses are ordered by the static happens-before
skeleton (spawn/join program points, barrier phases), which are
partitioned by thread identity, and which locks are held where.  This
module computes those facts once per :class:`~repro.ir.function.Module`
and caches the result, so ``repro lint`` pays for the interprocedural
fixpoints once even though three passes consume them.

The model is deliberately conservative in the *error* direction: every
suppression (ordering edge, partitioning claim, uniqueness claim) is
justified by a specific static proof obligation documented on the rule
that applies it.  Anything the model cannot prove stays "concurrent and
conflicting" and surfaces as a finding — soundness on the corpus is
checked dynamically by :mod:`repro.validate.race_checker` against the
MSI shadow model.

Vocabulary
----------
role
    One static thread kind: the process entry (``main``) plus one role
    per distinct ``spawn`` target function.  A role may have *many*
    runtime instances (spawned in a loop, or from several sites).
region
    An abstract memory object: a global, a heap allocation (named by
    the global that publishes its base pointer when there is one), a
    stack buffer, or a thread-local.  DSM pages are attributed to
    regions by the linker layout / allocator at validation time.
access
    One ``Load``/``Store``/``Work`` instruction as executed by one
    role, annotated with the facts the passes need: regions, uniqueness,
    thread-identity dependence, barrier phase interval, held lockset,
    and (for spawner roles) position relative to spawn/join.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.ir.function import Function, Module
from repro.ir.instructions import (
    AddrOf,
    BinOp,
    Call,
    Const,
    Load,
    Ret,
    StackAlloc,
    Store,
    Syscall,
    UnOp,
    Work,
)
from repro.linker.layout import PAGE_SIZE

INF = math.inf

# Taint tokens: the string "tid" marks a value derived from the
# thread-identity argument (the spawn argument, distinct per instance);
# ("ub", c) marks a boolean that is true in at most the one instance
# whose identity equals the constant c.
TID = "tid"

# Arithmetic ops through which thread-identity flows to addresses.
_ARITH = {
    "add", "sub", "mul", "div", "mod", "and", "or", "xor",
    "shl", "shr", "min", "max",
}
# Comparisons that preserve a unique-boolean when tested against 0/1.
_UB_KEEP = {"gt", "ne", "eq"}

_BLOCKING = {"barrier_wait", "join", "cond_wait"}


# ------------------------------------------------------------- regions


@dataclass(frozen=True, order=True)
class Region:
    """An abstract memory object; ``str(region)`` is the stable symbol
    used in diagnostics and matched by the soundness harness."""

    kind: str  # "global" | "heap" | "stack" | "tls" | "unknown"
    name: str

    def __str__(self) -> str:
        return f"{self.kind}:{self.name}"


UNKNOWN_REGION = Region("unknown", "?")


# ------------------------------------------------------------ accesses


@dataclass(frozen=True)
class Access:
    """One memory operation as executed by one role."""

    role: str
    fn: str
    block: str
    index: int  # instruction index within the block
    ordinal: int  # instruction ordinal within the function (lint site)
    kind: str  # "load" | "store" | "work"
    write: bool
    regions: FrozenSet[Region]
    unique: Optional[int]  # instance constant if provably one instance
    single: bool  # role has exactly one runtime instance
    tid_dep: bool  # address derived from the thread-identity argument
    position: str  # "pre" | "conc" | "post" relative to spawn/join
    phase: Tuple[float, float]  # [min, max] matched barrier_waits before
    lockset: FrozenSet[int]
    in_cycle: bool  # block sits on a CFG cycle of its function
    stride: Optional[int]  # per-instance byte stride when addr = tid*c
    span: int  # bytes touched (element size, or Work span)

    @property
    def site(self) -> str:
        return f"{self.fn}:{self.block}:{self.index}"


@dataclass
class Role:
    """One static thread kind."""

    name: str
    entry: str
    spawner: Optional[str] = None  # role that spawns this one
    many: bool = False  # may have >1 concurrent instance
    count: Optional[int] = None  # instance count when statically known
    distinct_arg: bool = False  # each instance gets a distinct identity
    funcs: Set[str] = field(default_factory=set)

    @property
    def instances(self) -> int:
        """Instance count for cost weighting (2 when many-but-unknown)."""
        if not self.many:
            return 1
        return self.count if self.count else 2


@dataclass(frozen=True)
class LockEdge:
    """Lock ``first`` was held while acquiring ``second``."""

    first: int
    second: int
    role: str
    fn: str
    block: str
    index: int
    ordinal: int


@dataclass(frozen=True)
class BlockingSite:
    """A blocking syscall reached with mutexes still held."""

    role: str
    fn: str
    block: str
    index: int
    ordinal: int
    syscall: str
    held: FrozenSet[int]


# ------------------------------------------------------------ conflicts


@dataclass(frozen=True)
class Conflict:
    """A pair of accesses to one region, at least one a write.

    ``status`` records what the model could prove about the pair:

    - ``ordered``      — a happens-before edge or single-instance
      program order separates the two accesses; not a race, and the
      region is at most read-shared at any instant (SHR002).
    - ``locked``       — a common mutex protects both; race-free but
      the pages still ping-pong (SHR001).
    - ``partitioned``  — both addresses derive from the thread
      identity in the same many-instance role; treated as
      partitioned-by-intent (SHR001, plus SHR003 when the stride is
      sub-page), never as a race.
    - ``burst``        — at least one side is a page-granular ``Work``
      burst; sharing signal only (SHR001).
    - ``racy``         — none of the above: a RACE finding.
    """

    region: Region
    a: Access
    b: Access
    status: str
    reason: str


class ConcurrencyModel:
    """All concurrency facts for one module; built by :func:`get_model`."""

    def __init__(self, module: Module):
        self.module = module
        self.roles: Dict[str, Role] = {}
        self.accesses: List[Access] = []
        self.lock_edges: List[LockEdge] = []
        self.blocking_sites: List[BlockingSite] = []
        self.barrier_parties: Dict[int, Optional[int]] = {}
        self.region_sizes: Dict[Region, Optional[int]] = {}
        self.notes: List[str] = []  # non-diagnostic analysis caveats
        self._intra_reach: Dict[str, Dict[str, Set[str]]] = {}
        self._conflicts: Optional[List[Conflict]] = None
        _build(self)

    def site_reaches(self, fn_name: str, a: Tuple[str, int], b: Tuple[str, int]) -> bool:
        """Can execution flow from position a to position b in fn?"""
        fn = self.module.functions.get(fn_name)
        reach = self._intra_reach.get(fn_name)
        if fn is None or reach is None:
            return False
        return _site_reaches(fn, reach, a, b)

    # ------------------------------------------------------ conflicts

    def conflicts(self) -> List[Conflict]:
        """Enumerate conflicting access pairs, classified (cached)."""
        if self._conflicts is None:
            self._conflicts = _classify_conflicts(self)
        return self._conflicts

    def region_pages(self, region: Region) -> Optional[int]:
        size = self.region_sizes.get(region)
        if size is None:
            return None
        return max(1, (size + PAGE_SIZE - 1) // PAGE_SIZE)


_MODEL_CACHE: "weakref.WeakKeyDictionary[Module, ConcurrencyModel]" = (
    weakref.WeakKeyDictionary()
)


def get_model(module: Module) -> ConcurrencyModel:
    """The (cached) concurrency model for ``module``."""
    model = _MODEL_CACHE.get(module)
    if model is None:
        model = ConcurrencyModel(module)
        _MODEL_CACHE[module] = model
    return model


# ===================================================================
# CFG utilities
# ===================================================================


def _preds(fn: Function) -> Dict[str, List[str]]:
    preds: Dict[str, List[str]] = {label: [] for label in fn.block_order}
    for label in fn.block_order:
        for succ in fn.blocks[label].successors():
            preds[succ].append(label)
    return preds


def _rpo(fn: Function) -> List[str]:
    seen: Set[str] = set()
    order: List[str] = []

    def visit(label: str) -> None:
        stack = [(label, iter(fn.blocks[label].successors()))]
        seen.add(label)
        while stack:
            cur, succs = stack[-1]
            advanced = False
            for nxt in succs:
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append((nxt, iter(fn.blocks[nxt].successors())))
                    advanced = True
                    break
            if not advanced:
                order.append(cur)
                stack.pop()

    visit(fn.entry)
    order.reverse()
    return order


def _dominators(fn: Function) -> Dict[str, Set[str]]:
    """Iterative dominator sets over reachable blocks."""
    rpo = _rpo(fn)
    reachable = set(rpo)
    preds = _preds(fn)
    universe = set(rpo)
    dom: Dict[str, Set[str]] = {fn.entry: {fn.entry}}
    for label in rpo:
        if label != fn.entry:
            dom[label] = set(universe)
    changed = True
    while changed:
        changed = False
        for label in rpo:
            if label == fn.entry:
                continue
            ins = [dom[p] for p in preds[label] if p in reachable]
            new = set.intersection(*ins) if ins else set()
            new.add(label)
            if new != dom[label]:
                dom[label] = new
                changed = True
    return dom


def _block_reach(fn: Function) -> Dict[str, Set[str]]:
    """``reach[b]`` = blocks reachable from b through ≥1 edge."""
    succs = {label: fn.blocks[label].successors() for label in fn.block_order}
    reach: Dict[str, Set[str]] = {}
    for label in fn.block_order:
        seen: Set[str] = set()
        frontier = list(succs[label])
        while frontier:
            cur = frontier.pop()
            if cur in seen:
                continue
            seen.add(cur)
            frontier.extend(succs.get(cur, []))
        reach[label] = seen
    return reach


def _cycle_blocks(fn: Function) -> Set[str]:
    """Blocks on some CFG cycle (reachable from themselves)."""
    reach = _block_reach(fn)
    return {label for label in fn.block_order if label in reach[label]}


def _site_reaches(
    fn: Function,
    reach: Dict[str, Set[str]],
    a: Tuple[str, int],
    b: Tuple[str, int],
) -> bool:
    """Can execution flow from instruction position a to position b?"""
    (ab, ai), (bb, bi) = a, b
    if ab == bb and ai < bi:
        return True
    if bb in reach[ab]:
        return True
    # Same block, later-to-earlier: only through a cycle back to itself.
    return ab == bb and ab in reach[ab]


# ===================================================================
# model construction
# ===================================================================


def _const_int(instr_defs: Dict[str, List], var) -> Optional[int]:
    """Resolve an operand to an integer constant when obvious."""
    if isinstance(var, int):
        return var
    if isinstance(var, str):
        defs = instr_defs.get(var, [])
        if len(defs) == 1 and isinstance(defs[0], Const):
            value = defs[0].value
            if isinstance(value, int):
                return value
    return None


def _def_map(fn: Function) -> Dict[str, List]:
    defs: Dict[str, List] = {}
    for _, _, instr in fn.instructions():
        for d in instr.defs():
            defs.setdefault(d, []).append(instr)
    return defs


def _build(model: ConcurrencyModel) -> None:
    module = model.module
    builder = _Builder(model)
    builder.run()


class _Builder:
    def __init__(self, model: ConcurrencyModel):
        self.model = model
        self.module = model.module
        self.fns = model.module.functions
        # Per-function structural caches.
        self.defs = {name: _def_map(fn) for name, fn in self.fns.items()}
        self.dom = {name: _dominators(fn) for name, fn in self.fns.items()}
        self.reach = {name: _block_reach(fn) for name, fn in self.fns.items()}
        self.cycles = {name: _cycle_blocks(fn) for name, fn in self.fns.items()}
        # Points-to state.
        self.tags: Dict[str, Dict[str, Set[tuple]]] = {
            name: {} for name in self.fns
        }
        self.ret_tags: Dict[str, Set[tuple]] = {name: set() for name in self.fns}
        self.publishers: Dict[tuple, Set[str]] = {}  # heap site -> globals
        self.alloc_sizes: Dict[tuple, Optional[int]] = {}
        self.call_sites: Dict[str, List[Tuple[str, str, int, Call]]] = {}

    # ------------------------------------------------------------ run

    def run(self) -> None:
        self.model._intra_reach = self.reach
        self._index_calls()
        self._points_to()
        self._discover_roles()
        self._barriers()
        self._taint()
        self._uniqueness()
        self._positions()
        self._phases()
        self._locksets()
        self._collect_accesses()
        self._region_sizes()

    # --------------------------------------------------- call indexing

    def _index_calls(self) -> None:
        for name, fn in self.fns.items():
            for label, i, instr in fn.instructions():
                if isinstance(instr, Call) and instr.callee in self.fns:
                    self.call_sites.setdefault(instr.callee, []).append(
                        (name, label, i, instr)
                    )

    # ------------------------------------------------------ points-to

    def _var_tags(self, fn_name: str, operand) -> Set[tuple]:
        if isinstance(operand, str):
            return self.tags[fn_name].get(operand, set())
        return set()

    def _add_tags(self, fn_name: str, var: str, new: Set[tuple]) -> bool:
        if not var or not new:
            return False
        cur = self.tags[fn_name].setdefault(var, set())
        before = len(cur)
        cur |= new
        return len(cur) != before

    def _points_to(self) -> None:
        """Flow-insensitive module-wide pointer-tag fixpoint.

        Tags: ``("g", name)`` address of a global, ``("fn", name)``
        function reference, ``("hp", site)`` pointer into the heap
        allocation made at ``site``, ``("st", fn, buf)`` pointer into a
        stack buffer.  Arithmetic preserves tags (pointer arithmetic
        stays within its base object for well-formed modules); this
        over-approximates the regions an address can reach, which is
        the sound direction for conflict detection.
        """
        changed = True
        while changed:
            changed = False
            for name, fn in self.fns.items():
                for label, i, instr in fn.instructions():
                    if isinstance(instr, AddrOf):
                        sym = instr.symbol
                        if sym in self.fns:
                            tag = ("fn", sym)
                        elif sym in self.module.globals:
                            tag = ("g", sym)
                        else:
                            tag = ("st", name, sym)
                        changed |= self._add_tags(name, instr.dst, {tag})
                    elif isinstance(instr, StackAlloc):
                        changed |= self._add_tags(
                            name, instr.dst, {("st", name, instr.name)}
                        )
                    elif isinstance(instr, Syscall) and instr.name == "sbrk":
                        site = (name, label, i)
                        if site not in self.alloc_sizes:
                            self.alloc_sizes[site] = _const_int(
                                self.defs[name], instr.args[0]
                            ) if instr.args else None
                        changed |= self._add_tags(
                            name, instr.dst, {("hp", site)}
                        )
                    elif isinstance(instr, BinOp):
                        new = self._var_tags(name, instr.a) | self._var_tags(
                            name, instr.b
                        )
                        changed |= self._add_tags(name, instr.dst, new)
                    elif isinstance(instr, UnOp):
                        changed |= self._add_tags(
                            name, instr.dst, self._var_tags(name, instr.a)
                        )
                    elif isinstance(instr, Load):
                        # Loading through a global pointer slot yields
                        # whatever heap pointers were published there.
                        for tag in self._var_tags(name, instr.addr):
                            if tag[0] == "g":
                                pointed = {
                                    ("hp", site)
                                    for site, pubs in self.publishers.items()
                                    if tag[1] in pubs
                                }
                                changed |= self._add_tags(
                                    name, instr.dst, pointed
                                )
                    elif isinstance(instr, Store):
                        src_tags = self._var_tags(name, instr.src)
                        for tag in self._var_tags(name, instr.addr):
                            if tag[0] == "g":
                                for st in src_tags:
                                    if st[0] == "hp":
                                        pubs = self.publishers.setdefault(
                                            st[1], set()
                                        )
                                        if tag[1] not in pubs:
                                            pubs.add(tag[1])
                                            changed = True
                    elif isinstance(instr, Call) and instr.callee in self.fns:
                        callee = self.fns[instr.callee]
                        for p, arg in zip(callee.params, instr.args):
                            changed |= self._add_tags(
                                instr.callee, p[0], self._var_tags(name, arg)
                            )
                        if instr.dst:
                            changed |= self._add_tags(
                                name, instr.dst, self.ret_tags[instr.callee]
                            )
                    elif isinstance(instr, Ret):
                        changed_ret = self._var_tags(name, instr.value)
                        before = len(self.ret_tags[name])
                        self.ret_tags[name] |= changed_ret
                        changed |= len(self.ret_tags[name]) != before

    def _regions_of(self, fn_name: str, operand) -> FrozenSet[Region]:
        tags = self._var_tags(fn_name, operand)
        regions: Set[Region] = set()
        for tag in tags:
            if tag[0] == "g":
                gv = self.module.globals[tag[1]]
                kind = "tls" if gv.thread_local else "global"
                regions.add(Region(kind, tag[1]))
            elif tag[0] == "hp":
                pubs = self.publishers.get(tag[1])
                if pubs:
                    for g in sorted(pubs):
                        regions.add(Region("heap", g))
                else:
                    site = tag[1]
                    regions.add(
                        Region("heap", f"{site[0]}:{site[1]}:{site[2]}")
                    )
            elif tag[0] == "st":
                regions.add(Region("stack", f"{tag[1]}:{tag[2]}"))
        if not regions:
            regions.add(UNKNOWN_REGION)
        return frozenset(regions)

    # ----------------------------------------------------------- roles

    def _reachable_fns(self, entry: str) -> Set[str]:
        seen: Set[str] = set()
        frontier = [entry]
        while frontier:
            cur = frontier.pop()
            if cur in seen or cur not in self.fns:
                continue
            seen.add(cur)
            for _, _, instr in self.fns[cur].instructions():
                if isinstance(instr, Call) and instr.callee in self.fns:
                    frontier.append(instr.callee)
        return seen

    def _spawn_sites_in(self, fn_name: str) -> List[Tuple[str, int, Syscall]]:
        return [
            (label, i, instr)
            for label, i, instr in self.fns[fn_name].instructions()
            if isinstance(instr, Syscall) and instr.name == "spawn"
        ]

    def _spawn_targets(self, fn_name: str, instr: Syscall) -> Set[str]:
        return {
            tag[1]
            for tag in self._var_tags(fn_name, instr.args[0] if instr.args else None)
            if tag[0] == "fn"
        }

    def _discover_roles(self) -> None:
        model = self.model
        entry = self.module.entry
        if entry not in self.fns:
            return
        model.roles["main"] = Role(name="main", entry=entry)
        model.roles["main"].funcs = self._reachable_fns(entry)
        # Iterate: roles whose reachable functions spawn further roles.
        worklist = ["main"]
        while worklist:
            role = model.roles[worklist.pop()]
            for fn_name in sorted(role.funcs):
                for label, i, instr in self._spawn_sites_in(fn_name):
                    for target in sorted(self._spawn_targets(fn_name, instr)):
                        if target not in model.roles:
                            model.roles[target] = Role(
                                name=target,
                                entry=target,
                                spawner=role.name,
                                funcs=self._reachable_fns(target),
                            )
                            worklist.append(target)
                        self._note_spawn(
                            model.roles[target], role, fn_name, label, i, instr
                        )

    def _note_spawn(
        self,
        target: Role,
        spawner: Role,
        fn_name: str,
        label: str,
        i: int,
        instr: Syscall,
    ) -> None:
        """Fold one spawn site into the target role's multiplicity."""
        in_cycle = label in self.cycles[fn_name]
        sites = getattr(target, "_sites", [])
        sites.append((fn_name, label, i, instr, in_cycle))
        target._sites = sites  # type: ignore[attr-defined]
        if spawner.many:
            target.many = True
            target.count = None
            target.distinct_arg = False
            return
        if in_cycle:
            target.many = True
            target.count = self._trip_count(fn_name, label)
            # The identity argument is distinct per instance when it is
            # the loop induction variable (redefined inside the cycle).
            arg = instr.args[1] if len(instr.args) > 1 else None
            target.distinct_arg = self._defined_in_cycle(fn_name, label, arg)
            if target.count is not None and target.count <= 1:
                # A constant trip count of 0/1 spawns at most one
                # instance; treat as single (program order applies).
                target.many = False
        elif len(sites) > 1:
            target.many = True
            target.count = len(sites)
            consts = [
                _const_int(self.defs[s[0]], s[3].args[1])
                if len(s[3].args) > 1 else None
                for s in sites
            ]
            target.distinct_arg = (
                all(c is not None for c in consts)
                and len(set(consts)) == len(consts)
            )
        else:
            target.many = False
            target.count = 1
            target.distinct_arg = True

    def _trip_count(self, fn_name: str, label: str) -> Optional[int]:
        """Constant trip count of the cycle containing ``label``: look
        for the ``for_range`` shape — a CBr on ``lt(var, C)`` in a block
        of the same cycle."""
        fn = self.fns[fn_name]
        reach = self.reach[fn_name]
        cycle = {
            b for b in fn.block_order
            if label in reach.get(b, set()) and b in reach.get(label, set())
        } | {label}
        for b in cycle:
            instrs = fn.blocks[b].instrs
            if not instrs:
                continue
            term = instrs[-1]
            cond = getattr(term, "cond", None)
            if cond is None:
                continue
            for d in self.defs[fn_name].get(cond, []):
                if isinstance(d, BinOp) and d.op == "lt":
                    bound = _const_int(self.defs[fn_name], d.b)
                    if bound is not None:
                        return bound
        return None

    def _defined_in_cycle(self, fn_name: str, label: str, arg) -> bool:
        if not isinstance(arg, str):
            return False
        fn = self.fns[fn_name]
        reach = self.reach[fn_name]
        cycle = {
            b for b in fn.block_order
            if label in reach.get(b, set()) and b in reach.get(label, set())
        } | {label}
        for b in cycle:
            for instr in fn.blocks[b].instrs:
                if arg in instr.defs():
                    return True
        return False

    # -------------------------------------------------------- barriers

    def _barriers(self) -> None:
        for name, fn in self.fns.items():
            for _, _, instr in fn.instructions():
                if isinstance(instr, Syscall) and instr.name == "barrier_init":
                    bid = _const_int(self.defs[name], instr.args[0]) \
                        if instr.args else None
                    parties = _const_int(self.defs[name], instr.args[1]) \
                        if len(instr.args) > 1 else None
                    if bid is not None:
                        self.model.barrier_parties[bid] = parties

    def _barrier_matches_role(self, role: Role) -> Set[int]:
        """Barrier ids whose party count equals the role's instance
        count — only those align phases across the role's instances."""
        if not role.many or role.count is None:
            return set()
        return {
            bid
            for bid, parties in self.model.barrier_parties.items()
            if parties == role.count
        }

    # ----------------------------------------------------------- taint

    def _taint(self) -> None:
        """Per-role thread-identity taint.

        ``taint[role][fn][var]`` ⊆ {TID, ("ub", c)}.  The identity
        argument (spawn arg) seeds the role entry's first parameter;
        arithmetic propagates TID, ``eq(tid, c)`` produces the
        unique-boolean ("ub", c), and parameters meet (intersect) over
        all call sites within the role so a claim holds for every
        instance.  Only roles whose instances provably receive distinct
        identities are seeded at all.
        """
        self.taint: Dict[str, Dict[str, Dict[str, Set]]] = {}
        for role in self.model.roles.values():
            self.taint[role.name] = {f: {} for f in role.funcs}
            if role.name == "main" or not role.distinct_arg:
                continue
            entry = self.fns.get(role.entry)
            if entry is None or not entry.params:
                continue
            if any(
                s[0] in role.funcs
                for s in self.call_sites.get(role.entry, [])
            ):
                # The role entry is also called as a plain function
                # within the role — its parameter is not a reliable
                # instance identity.  Skip seeding (no suppression).
                continue
            self._taint_fixpoint(role)

    def _taint_value(self, env: Dict[str, Set], operand) -> Set:
        if isinstance(operand, str):
            return env.get(operand, set())
        return set()

    @staticmethod
    def _ub_preserving(op: str, const: Optional[int]) -> bool:
        # Tests under which a 0/1-valued unique-boolean stays a
        # unique-boolean: gt(ub, 0), ne(ub, 0), eq(ub, 1), ge(ub, 1).
        # (eq(ub, 0) / ne(ub, 1) are negations — NOT preserved.)
        return (op in ("gt", "ne") and const == 0) or (
            op in ("eq", "ge") and const == 1
        )

    def _taint_fixpoint(self, role: Role) -> None:
        """Least fixpoint over rounds: each round re-propagates from an
        empty environment under the current parameter assumptions, then
        recomputes every parameter as the meet (intersection) of its
        call sites' argument taints.  Restarting from bottom each round
        guarantees no derived value retains taint its inputs lost when
        a meet shrank — the unsoundness a monotone in-place union would
        allow.  Assumptions grow monotonically across rounds, so this
        terminates; on the (never observed) pathological case we clear
        the role's taint, which disables suppression — the safe side.
        """
        entry_fn = self.fns[role.entry]
        tid_param = entry_fn.params[0][0]
        assumptions: Dict[str, Dict[str, Set]] = {f: {} for f in role.funcs}
        for _ in range(12):
            env: Dict[str, Dict[str, Set]] = {
                f: {k: set(v) for k, v in assumptions[f].items()}
                for f in role.funcs
            }
            env[role.entry][tid_param] = {TID}
            self._taint_round(role, env)
            new_assumptions = self._param_meets(role, env)
            new_assumptions[role.entry] = {}
            if new_assumptions == assumptions:
                self.taint[role.name] = env
                return
            assumptions = new_assumptions
        self.taint[role.name] = {f: {} for f in role.funcs}

    def _taint_round(self, role: Role, env: Dict[str, Dict[str, Set]]) -> None:
        changed = True
        while changed:
            changed = False
            for fn_name in role.funcs:
                fn = self.fns.get(fn_name)
                if fn is None:
                    continue
                fenv = env[fn_name]
                for _, _, instr in fn.instructions():
                    new: Set = set()
                    dst = None
                    if isinstance(instr, BinOp):
                        dst = instr.dst
                        ta = self._taint_value(fenv, instr.a)
                        tb = self._taint_value(fenv, instr.b)
                        for tx, other in ((ta, instr.b), (tb, instr.a)):
                            if instr.op == "eq" and TID in tx:
                                c = _const_int(self.defs[fn_name], other)
                                if c is not None:
                                    new.add(("ub", c))
                        if instr.op in _ARITH and (TID in ta or TID in tb):
                            new.add(TID)
                        if instr.op in _UB_KEEP:
                            cb = _const_int(self.defs[fn_name], instr.b)
                            if self._ub_preserving(instr.op, cb):
                                new |= {t for t in ta if t != TID}
                            if instr.op == "eq":
                                ca = _const_int(self.defs[fn_name], instr.a)
                                if self._ub_preserving("eq", ca):
                                    new |= {t for t in tb if t != TID}
                    elif isinstance(instr, UnOp):
                        dst = instr.dst
                        new = set(self._taint_value(fenv, instr.a))
                    if dst:
                        cur = fenv.get(dst, set())
                        if not new <= cur:
                            fenv[dst] = cur | new
                            changed = True

    def _param_meets(
        self, role: Role, env: Dict[str, Dict[str, Set]]
    ) -> Dict[str, Dict[str, Set]]:
        meets: Dict[str, Dict[str, Set]] = {f: {} for f in role.funcs}
        for fn_name in role.funcs:
            fn = self.fns.get(fn_name)
            if fn is None or not fn.params:
                continue
            sites = [
                s for s in self.call_sites.get(fn_name, [])
                if s[0] in role.funcs
            ]
            if not sites:
                continue
            for k, (pname, _) in enumerate(fn.params):
                meet: Optional[Set] = None
                for caller, _, _, call in sites:
                    t = (
                        self._taint_value(env[caller], call.args[k])
                        if k < len(call.args) else set()
                    )
                    meet = set(t) if meet is None else (meet & t)
                if meet:
                    meets[fn_name][pname] = meet
        return meets

    # ------------------------------------------------------ uniqueness

    def _uniqueness(self) -> None:
        """Blocks / functions that execute in at most one instance.

        A CBr on a unique-boolean ("ub", c) makes its true-successor —
        when that successor has the branch as its only predecessor —
        and everything that successor dominates execute only in the
        instance with identity c.  Function-level uniqueness is the
        greatest fixpoint over role-internal call edges: a function is
        unique-to-c if *every* call site lies in a unique-to-c context.
        """
        self.unique_blocks: Dict[Tuple[str, str], Dict[str, int]] = {}
        self.unique_fn: Dict[Tuple[str, str], Optional[int]] = {}
        for role in self.model.roles.values():
            if not role.many:
                continue
            env = self.taint[role.name]
            for fn_name in role.funcs:
                fn = self.fns.get(fn_name)
                if fn is None:
                    continue
                blocks: Dict[str, int] = {}
                preds = _preds(fn)
                dom = self.dom[fn_name]
                for label in fn.block_order:
                    instrs = fn.blocks[label].instrs
                    if not instrs:
                        continue
                    term = instrs[-1]
                    cond = getattr(term, "cond", None)
                    if_true = getattr(term, "if_true", None)
                    if cond is None or if_true is None:
                        continue
                    ubs = {
                        t for t in self._taint_value(env[fn_name], cond)
                        if t != TID
                    }
                    if len(ubs) != 1 or len(preds[if_true]) != 1:
                        continue
                    (_, c) = next(iter(ubs))
                    for b in fn.block_order:
                        if if_true in dom.get(b, set()):
                            blocks[b] = c
                self.unique_blocks[(role.name, fn_name)] = blocks
            self._unique_fn_fixpoint(role)

    def _unique_fn_fixpoint(self, role: Role) -> None:
        # Start optimistic (unique with undetermined constant = "any"),
        # deflate until stable.  Entry is never unique.
        state: Dict[str, Optional[int]] = {}
        ANY = object()
        for fn_name in role.funcs:
            state[fn_name] = ANY if fn_name != role.entry else None
        changed = True
        while changed:
            changed = False
            for fn_name in role.funcs:
                if fn_name == role.entry:
                    continue
                sites = [
                    s for s in self.call_sites.get(fn_name, [])
                    if s[0] in role.funcs
                ]
                if not sites:
                    new: Optional[int] = None  # unreachable in role
                else:
                    consts: Set = set()
                    ok = True
                    for caller, label, _, _ in sites:
                        caller_u = state.get(caller)
                        block_u = self.unique_blocks.get(
                            (role.name, caller), {}
                        ).get(label)
                        site_u = block_u if block_u is not None else (
                            caller_u if caller_u is not None else None
                        )
                        if site_u is None:
                            ok = False
                            break
                        consts.add(site_u)
                    if ok and (len(consts - {ANY}) <= 1):
                        real = consts - {ANY}
                        new = next(iter(real)) if real else ANY
                    else:
                        new = None
                if state[fn_name] is not new and state[fn_name] != new:
                    state[fn_name] = new
                    changed = True
        for fn_name, value in state.items():
            self.unique_fn[(role.name, fn_name)] = (
                None if value is None else (-1 if value is ANY else value)
            )

    def _access_unique(self, role: Role, fn_name: str, label: str) -> Optional[int]:
        """Instance constant if this block runs in ≤1 instance."""
        if not role.many:
            return -1  # single-instance role: trivially unique
        block_u = self.unique_blocks.get((role.name, fn_name), {}).get(label)
        if block_u is not None:
            return block_u
        return self.unique_fn.get((role.name, fn_name))

    # ------------------------------------------------------- positions

    def _positions(self) -> None:
        """pre/conc/post relative to spawn/join, for spawner roles.

        Within a function containing spawn sites: a position is *pre*
        if no spawn site can reach it, and *post* if it cannot reach
        any spawn site AND the joins are provably complete — either
        every spawn site is followed by at least as many dominating
        join sites (straight-line idiom), or the position is dominated
        by the unique exit of a CFG cycle containing a join (the
        join-loop idiom, which is assumed to join every previously
        spawned thread).  Callees inherit the meet of their call
        sites' positions.
        """
        self.position: Dict[Tuple[str, str], Dict[Tuple[str, int], str]] = {}
        self.fn_position: Dict[Tuple[str, str], str] = {}
        for role in self.model.roles.values():
            spawn_fns = {
                fn_name for fn_name in role.funcs
                if self._spawn_sites_in(fn_name)
            }
            if not spawn_fns:
                for fn_name in role.funcs:
                    self.fn_position[(role.name, fn_name)] = "conc"
                continue
            for fn_name in spawn_fns:
                self.position[(role.name, fn_name)] = self._classify_positions(
                    fn_name
                )
            self._propagate_positions(role, spawn_fns)

    def _classify_positions(
        self, fn_name: str
    ) -> Dict[Tuple[str, int], str]:
        fn = self.fns[fn_name]
        reach = self.reach[fn_name]
        dom = self.dom[fn_name]
        spawns = [(label, i) for label, i, _ in self._spawn_sites_in(fn_name)]
        joins = [
            (label, i)
            for label, i, instr in fn.instructions()
            if isinstance(instr, Syscall) and instr.name == "join"
        ]
        cycles = self.cycles[fn_name]

        def site_before(a: Tuple[str, int], b: Tuple[str, int]) -> bool:
            if a[0] == b[0]:
                return a[1] < b[1] and a[0] not in cycles
            return a[0] in dom.get(b[0], set())

        # Join-loop exits: unique out-edge of a cycle containing a join.
        join_exits: List[str] = []
        for jlabel, _ in joins:
            if jlabel not in cycles:
                continue
            cycle = {
                b for b in fn.block_order
                if jlabel in reach.get(b, set()) and b in reach.get(jlabel, set())
            } | {jlabel}
            exits = {
                s
                for b in cycle
                for s in fn.blocks[b].successors()
                if s not in cycle
            }
            if len(exits) == 1:
                join_exits.append(next(iter(exits)))

        out: Dict[Tuple[str, int], str] = {}
        for label, i, _ in fn.instructions():
            pos = (label, i)
            if not any(_site_reaches(fn, reach, s, pos) for s in spawns):
                out[pos] = "pre"
                continue
            if any(_site_reaches(fn, reach, pos, s) for s in spawns):
                out[pos] = "conc"
                continue
            joined = False
            if all(site_before(s, pos) for s in spawns):
                before = sum(1 for j in joins if site_before(j, pos))
                if before >= len(spawns):
                    joined = True
            if not joined:
                for exit_label in join_exits:
                    if exit_label in dom.get(label, set()):
                        joined = True
                        break
            out[pos] = "post" if joined else "conc"
        return out

    def _propagate_positions(self, role: Role, spawn_fns: Set[str]) -> None:
        # Meet over call sites: pre∧pre=pre, post∧post=post, else conc.
        state: Dict[str, Optional[str]] = {}
        for fn_name in role.funcs:
            state[fn_name] = None if fn_name not in spawn_fns else "mixed"
        state[role.entry] = state[role.entry] or (
            "mixed" if role.entry in spawn_fns else "conc"
        )
        changed = True
        while changed:
            changed = False
            for fn_name in role.funcs:
                if fn_name in spawn_fns or fn_name == role.entry:
                    continue
                sites = [
                    s for s in self.call_sites.get(fn_name, [])
                    if s[0] in role.funcs
                ]
                positions: Set[str] = set()
                for caller, label, i, _ in sites:
                    if caller in spawn_fns:
                        positions.add(
                            self.position[(role.name, caller)].get(
                                (label, i), "conc"
                            )
                        )
                    else:
                        positions.add(state.get(caller) or "conc")
                new = (
                    positions.pop() if len(positions) == 1 else "conc"
                ) if positions else None
                if new != state[fn_name]:
                    state[fn_name] = new
                    changed = True
        for fn_name in role.funcs:
            if fn_name in spawn_fns:
                continue
            self.fn_position[(role.name, fn_name)] = state[fn_name] or "conc"

    def _position_at(
        self, role: Role, fn_name: str, label: str, i: int
    ) -> str:
        per_site = self.position.get((role.name, fn_name))
        if per_site is not None:
            return per_site.get((label, i), "conc")
        return self.fn_position.get((role.name, fn_name), "conc")

    # ---------------------------------------------------------- phases

    def _phases(self) -> None:
        """Barrier-phase intervals [min, max] per instruction, per role.

        Only barriers whose party count equals the role's instance
        count advance the phase (they align all instances); any other
        ``barrier_wait`` poisons the max.  Function deltas compose over
        the call graph.
        """
        self.phase_at: Dict[Tuple[str, str], Dict[Tuple[str, int], Tuple[float, float]]] = {}
        for role in self.model.roles.values():
            matched = self._barrier_matches_role(role)
            deltas = self._phase_deltas(role, matched)
            entry_state: Dict[str, Tuple[float, float]] = {
                role.entry: (0.0, 0.0)
            }
            bumps: Dict[str, int] = {}
            bump_limit = len(role.funcs) + 2
            changed = True
            while changed:
                changed = False
                for fn_name in role.funcs:
                    if fn_name not in entry_state:
                        continue
                    per_site, _ = self._phase_flow(
                        role, fn_name, entry_state[fn_name], matched, deltas
                    )
                    self.phase_at[(role.name, fn_name)] = per_site
                    fn = self.fns.get(fn_name)
                    if fn is None:
                        continue
                    for label, i, instr in fn.instructions():
                        if isinstance(instr, Call) and instr.callee in role.funcs:
                            st = per_site.get((label, i), (0.0, INF))
                            cur = entry_state.get(instr.callee)
                            new = (
                                min(cur[0], st[0]) if cur else st[0],
                                max(cur[1], st[1]) if cur else st[1],
                            )
                            if cur != new:
                                bumps[instr.callee] = bumps.get(
                                    instr.callee, 0
                                ) + 1
                                if bumps[instr.callee] > bump_limit \
                                        and cur is not None \
                                        and new[1] > cur[1]:
                                    new = (new[0], INF)
                                entry_state[instr.callee] = new
                                changed = True
            # Functions never reached keep a safely-unknown phase.
            for fn_name in role.funcs:
                self.phase_at.setdefault((role.name, fn_name), {})

    def _phase_deltas(
        self, role: Role, matched: Set[int]
    ) -> Dict[str, Tuple[float, float]]:
        deltas: Dict[str, Tuple[float, float]] = {
            fn: (0.0, 0.0) for fn in role.funcs
        }
        bumps: Dict[str, int] = {}
        bump_limit = len(role.funcs) + 2
        changed = True
        while changed:
            changed = False
            for fn_name in role.funcs:
                if self.fns.get(fn_name) is None:
                    continue
                _, exit_delta = self._phase_flow(
                    role, fn_name, (0.0, 0.0), matched, deltas
                )
                if exit_delta != deltas[fn_name]:
                    bumps[fn_name] = bumps.get(fn_name, 0) + 1
                    if bumps[fn_name] > bump_limit \
                            and exit_delta[1] > deltas[fn_name][1]:
                        exit_delta = (exit_delta[0], INF)
                    deltas[fn_name] = exit_delta
                    changed = True
        return deltas

    def _phase_flow(
        self,
        role: Role,
        fn_name: str,
        entry: Tuple[float, float],
        matched: Set[int],
        deltas: Dict[str, Tuple[float, float]],
    ) -> Tuple[Dict[Tuple[str, int], Tuple[float, float]], Tuple[float, float]]:
        fn = self.fns[fn_name]
        state_in: Dict[str, Tuple[float, float]] = {fn.entry: entry}
        per_site: Dict[Tuple[str, int], Tuple[float, float]] = {}
        exit_state: Optional[Tuple[float, float]] = None
        # Widening: a barrier on a CFG cycle bumps the max every sweep;
        # after more bumps than the CFG has blocks it can only be a
        # cycle, so jump the max straight to "unbounded".
        bumps: Dict[str, int] = {}
        bump_limit = len(fn.block_order) + 2
        changed = True
        while changed:
            changed = False
            for label in fn.block_order:
                if label not in state_in:
                    continue
                st = state_in[label]
                for i, instr in enumerate(fn.blocks[label].instrs):
                    per_site[(label, i)] = st
                    if isinstance(instr, Syscall) and instr.name == "barrier_wait":
                        bid = _const_int(self.defs[fn_name], instr.args[0]) \
                            if instr.args else None
                        if bid is not None and bid in matched:
                            st = (st[0] + 1, st[1] + 1)
                        else:
                            st = (st[0], INF)
                    elif isinstance(instr, Call):
                        d = deltas.get(instr.callee, (0.0, INF)) \
                            if instr.callee in self.fns else (0.0, 0.0)
                        st = (st[0] + d[0], st[1] + d[1])
                    elif isinstance(instr, Ret):
                        exit_state = st if exit_state is None else (
                            min(exit_state[0], st[0]), max(exit_state[1], st[1])
                        )
                # Successor in-state: meet of predecessor out-states
                # (entry keeps its seed via its initial value).
                for succ in fn.blocks[label].successors():
                    cur = state_in.get(succ)
                    new = st if cur is None else (
                        min(cur[0], st[0]), max(cur[1], st[1])
                    )
                    if new != cur:
                        bumps[succ] = bumps.get(succ, 0) + 1
                        if bumps[succ] > bump_limit and cur is not None \
                                and new[1] > cur[1]:
                            new = (new[0], INF)
                        state_in[succ] = new
                        changed = True
        return per_site, exit_state or (0.0, 0.0)

    # -------------------------------------------------------- locksets

    def _locksets(self) -> None:
        """Flow-sensitive held-mutex sets per instruction, per role.

        Locks are identified by constant ids (``mutex_lock(c)``); a
        non-constant id is untrackable and treated as holding nothing,
        which is the sound direction for race *suppression*.  Calls are
        assumed lock-balanced (the callee's own body is analyzed with
        the meet of its callers' held sets).  Lock-order edges and
        blocking-while-holding sites are recorded for the locks pass.
        """
        self.lockset_at: Dict[Tuple[str, str], Dict[Tuple[str, int], FrozenSet[int]]] = {}
        seen_edges: Set[tuple] = set()
        for role in self.model.roles.values():
            entry_held: Dict[str, FrozenSet[int]] = {role.entry: frozenset()}
            changed = True
            while changed:
                changed = False
                for fn_name in sorted(role.funcs):
                    if fn_name not in entry_held or self.fns.get(fn_name) is None:
                        continue
                    per_site = self._lock_flow(
                        role, fn_name, entry_held[fn_name], None
                    )
                    self.lockset_at[(role.name, fn_name)] = per_site
                    for label, i, instr in self.fns[fn_name].instructions():
                        if isinstance(instr, Call) and instr.callee in role.funcs:
                            held = per_site.get((label, i), frozenset())
                            cur = entry_held.get(instr.callee)
                            new = held if cur is None else (cur & held)
                            if cur != new:
                                entry_held[instr.callee] = new
                                changed = True
            # Record lock-order edges and blocking sites only from the
            # converged states, so no stale pre-fixpoint held set leaks
            # into a finding.
            for fn_name in sorted(role.funcs):
                if fn_name in entry_held and self.fns.get(fn_name) is not None:
                    self._lock_flow(
                        role, fn_name, entry_held[fn_name], seen_edges
                    )
            for fn_name in role.funcs:
                self.lockset_at.setdefault((role.name, fn_name), {})

    def _lock_flow(
        self,
        role: Role,
        fn_name: str,
        entry: FrozenSet[int],
        seen_edges: Optional[Set[tuple]],
    ) -> Dict[Tuple[str, int], FrozenSet[int]]:
        fn = self.fns[fn_name]
        state_in: Dict[str, FrozenSet[int]] = {fn.entry: entry}
        per_site: Dict[Tuple[str, int], FrozenSet[int]] = {}
        ordinal_of = {
            (label, i): n
            for n, (label, i, _) in enumerate(fn.instructions())
        }
        changed = True
        while changed:
            changed = False
            for label in fn.block_order:
                if label not in state_in:
                    continue
                st = state_in[label]
                for i, instr in enumerate(fn.blocks[label].instrs):
                    per_site[(label, i)] = st
                    if not isinstance(instr, Syscall):
                        continue
                    arg0 = _const_int(self.defs[fn_name], instr.args[0]) \
                        if instr.args else None
                    if instr.name == "mutex_lock":
                        if arg0 is not None:
                            if seen_edges is not None:
                                for held in sorted(st):
                                    edge = (held, arg0, fn_name, label, i)
                                    if edge not in seen_edges:
                                        seen_edges.add(edge)
                                        self.model.lock_edges.append(
                                            LockEdge(
                                                held, arg0, role.name, fn_name,
                                                label, i, ordinal_of[(label, i)],
                                            )
                                        )
                            st = st | {arg0}
                    elif instr.name == "mutex_unlock":
                        if arg0 is not None:
                            st = st - {arg0}
                    elif instr.name in _BLOCKING and seen_edges is not None:
                        held = st
                        if instr.name == "cond_wait" and len(instr.args) > 1:
                            own = _const_int(self.defs[fn_name], instr.args[1])
                            if own is not None:
                                held = held - {own}
                        if held:
                            site = ("blocking", fn_name, label, i)
                            if site not in seen_edges:
                                seen_edges.add(site)
                                self.model.blocking_sites.append(
                                    BlockingSite(
                                        role.name, fn_name, label, i,
                                        ordinal_of[(label, i)],
                                        instr.name, frozenset(held),
                                    )
                                )
                for succ in fn.blocks[label].successors():
                    cur = state_in.get(succ)
                    new = st if cur is None else (cur & st)
                    if new != cur:
                        state_in[succ] = new
                        changed = True
        return per_site

    # -------------------------------------------------------- accesses

    def _stride_of(self, role: Role, fn_name: str, addr) -> Optional[int]:
        """Per-instance byte stride when the address offset is directly
        ``tid * c`` (the thread-identity parameter itself scaled by a
        constant) — a deliberate, shallow pattern so SHR003 names only
        layouts whose partition stride is certain."""
        entry = self.fns.get(role.entry)
        if entry is None or not entry.params or not role.distinct_arg:
            return None
        tid_names = {entry.params[0][0]} if fn_name == role.entry else set()
        # A parameter fed the raw identity at every site also counts.
        env = self.taint.get(role.name, {}).get(fn_name, {})
        fn = self.fns.get(fn_name)
        if fn is not None:
            for pname, _ in fn.params:
                if TID in env.get(pname, set()):
                    sites = [
                        s for s in self.call_sites.get(fn_name, [])
                        if s[0] in role.funcs
                    ]
                    idx = [p[0] for p in fn.params].index(pname)
                    if sites and all(
                        idx < len(s[3].args)
                        and isinstance(s[3].args[idx], str)
                        and self._is_raw_tid(role, s[0], s[3].args[idx])
                        for s in sites
                    ):
                        tid_names.add(pname)

        def resolve(var, depth: int) -> Optional[int]:
            if not isinstance(var, str) or depth > 6:
                return None
            defs = self.defs[fn_name].get(var, [])
            if len(defs) != 1:
                return None
            d = defs[0]
            if isinstance(d, BinOp) and d.op == "mul":
                for v, c in ((d.a, d.b), (d.b, d.a)):
                    cv = _const_int(self.defs[fn_name], c)
                    if cv is not None and isinstance(v, str) and (
                        v in tid_names or self._is_mov_of(fn_name, v, tid_names)
                    ):
                        return cv
            if isinstance(d, BinOp) and d.op == "add":
                return resolve(d.a, depth + 1) or resolve(d.b, depth + 1)
            if isinstance(d, UnOp) and d.op == "mov":
                return resolve(d.a, depth + 1)
            return None

        return resolve(addr, 0)

    def _is_raw_tid(self, role: Role, fn_name: str, var: str) -> bool:
        entry = self.fns.get(role.entry)
        if entry is None or not entry.params:
            return False
        if fn_name == role.entry and var == entry.params[0][0]:
            return True
        return self._is_mov_of(
            fn_name, var,
            {entry.params[0][0]} if fn_name == role.entry else set(),
        )

    def _is_mov_of(self, fn_name: str, var: str, names: Set[str]) -> bool:
        defs = self.defs[fn_name].get(var, [])
        return (
            len(defs) == 1
            and isinstance(defs[0], UnOp)
            and defs[0].op == "mov"
            and defs[0].a in names
        )

    def _collect_accesses(self) -> None:
        from repro.isa.types import type_size

        model = self.model
        for role in model.roles.values():
            env = self.taint[role.name]
            for fn_name in sorted(role.funcs):
                fn = self.fns.get(fn_name)
                if fn is None:
                    continue
                cycles = self.cycles[fn_name]
                phases = self.phase_at.get((role.name, fn_name), {})
                locks = self.lockset_at.get((role.name, fn_name), {})
                for ordinal, (label, i, instr) in enumerate(fn.instructions()):
                    if isinstance(instr, Load):
                        kind, write, addr = "load", False, instr.addr
                        span = type_size(instr.vt)
                    elif isinstance(instr, Store):
                        kind, write, addr = "store", True, instr.addr
                        span = type_size(instr.vt)
                    elif isinstance(instr, Work):
                        if instr.pages is None:
                            continue
                        kind, write, addr = "work", True, instr.pages
                        span = instr.span or PAGE_SIZE
                    else:
                        continue
                    taints = self._taint_value(env.get(fn_name, {}), addr)
                    model.accesses.append(
                        Access(
                            role=role.name,
                            fn=fn_name,
                            block=label,
                            index=i,
                            ordinal=ordinal,
                            kind=kind,
                            write=write,
                            regions=self._regions_of(fn_name, addr),
                            unique=self._access_unique(role, fn_name, label),
                            single=not role.many,
                            tid_dep=TID in taints,
                            position=self._position_at(role, fn_name, label, i),
                            phase=phases.get((label, i), (0.0, INF)),
                            lockset=locks.get((label, i), frozenset()),
                            in_cycle=label in cycles,
                            stride=self._stride_of(role, fn_name, addr)
                            if kind != "work" else None,
                            span=span,
                        )
                    )

    def _region_sizes(self) -> None:
        model = self.model
        for access in model.accesses:
            for region in access.regions:
                if region in model.region_sizes:
                    continue
                if region.kind in ("global", "tls"):
                    gv = self.module.globals.get(region.name)
                    model.region_sizes[region] = gv.size if gv else None
                elif region.kind == "heap":
                    total = 0
                    known = False
                    for site, pubs in self.publishers.items():
                        if region.name in pubs:
                            size = self.alloc_sizes.get(site)
                            if size is not None:
                                total += size
                                known = True
                    if not known:
                        for site, size in self.alloc_sizes.items():
                            if f"{site[0]}:{site[1]}:{site[2]}" == region.name:
                                total = size or 0
                                known = size is not None
                    model.region_sizes[region] = total if known else None
                elif region.kind == "stack":
                    fn_name, _, buf = region.name.partition(":")
                    fn = self.fns.get(fn_name)
                    model.region_sizes[region] = (
                        fn.stack_buffers.get(buf) if fn else None
                    )
                else:
                    model.region_sizes[region] = None


# ===================================================================
# conflict classification
# ===================================================================


def _pair_ordered(model: ConcurrencyModel, a: Access, b: Access) -> Optional[str]:
    """A happens-before reason separating a and b, or None."""
    ra = model.roles.get(a.role)
    rb = model.roles.get(b.role)
    if ra is None or rb is None:
        return None
    if a.role == b.role:
        if not ra.many:
            return "single-instance role: program order"
        if (
            a.unique is not None
            and b.unique is not None
            and a.unique == b.unique
            and a.unique != -1
        ):
            return f"both run only in instance {a.unique}: program order"
        # Barrier phases: a's interval entirely before b's (or vice
        # versa) under a barrier that aligns all role instances.
        if model.barrier_parties and ra.count is not None:
            if a.phase[1] < b.phase[0] or b.phase[1] < a.phase[0]:
                return "separated by barrier phases"
        return None
    # Spawn/join edges between a spawner and its spawned role.
    for x, y in ((a, b), (b, a)):
        if model.roles.get(y.role) and model.roles[y.role].spawner == x.role:
            if x.position == "pre":
                return f"{x.role} access precedes every spawn of {y.role}"
            if x.position == "post":
                return f"{x.role} access follows the join of {y.role}"
    return None


def _classify_conflicts(model: ConcurrencyModel) -> List[Conflict]:
    by_region: Dict[Region, List[Access]] = {}
    for access in model.accesses:
        for region in access.regions:
            if region.kind == "tls":
                continue  # thread-local: instance-private by definition
            by_region.setdefault(region, []).append(access)

    conflicts: List[Conflict] = []
    for region in sorted(by_region):
        accesses = by_region[region]
        for i, a in enumerate(accesses):
            for b in accesses[i:]:
                if not (a.write or b.write):
                    continue
                if a is b:
                    # A single site conflicts with itself only when the
                    # role has several instances and the access is not
                    # provably confined to one of them.
                    ra = model.roles.get(a.role)
                    if ra is None or not ra.many or a.unique is not None:
                        continue
                    if not a.write:
                        continue
                if region.kind == "stack" and a.role == b.role:
                    # Each instance owns its private stack frame; a
                    # stack region is shared only if its pointer
                    # escapes to a different role.
                    continue
                status, reason = _classify_pair(model, region, a, b)
                conflicts.append(Conflict(region, a, b, status, reason))
    return conflicts


def _classify_pair(
    model: ConcurrencyModel, region: Region, a: Access, b: Access
) -> Tuple[str, str]:
    ordered = _pair_ordered(model, a, b)
    if ordered:
        return "ordered", ordered
    common = a.lockset & b.lockset
    if common:
        return "locked", f"both hold mutex {sorted(common)[0]}"
    if a.role == b.role and a.tid_dep and b.tid_dep:
        return (
            "partitioned",
            "both addresses derive from the thread identity "
            "(partitioned-by-intent)",
        )
    if a.kind == "work" or b.kind == "work":
        return "burst", "page-granular work burst (sharing signal only)"
    return "racy", "no common lock and no happens-before edge"
