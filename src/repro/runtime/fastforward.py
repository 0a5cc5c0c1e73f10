"""Analytical fast-forward execution engine.

Between migration points, syscalls and calls there is nothing for the
engine shell to do: a straight-line run of lowered instructions charges
a precomputable cycle cost and transforms thread state in a way that is
fully determined by the block's IR.  The exact interpreter
(:class:`repro.runtime.execution.ExecutionEngine`) still pays
per-instruction dispatch for every one of them; at warehouse scale that
dispatch *is* the wall.

:class:`FastExecutionEngine` removes it.  Code is generated per
*chunk*: the instructions from a block start, or from a return site
(the instruction after a ``Call`` or a ``Syscall``), up to the chunk's
exit — its branch, call, return or syscall.
For every machine function a thread executes the engine compiles —
once per CPU model, from the :mod:`repro.ir.summary` block summaries —
a *region*: all the function's chunks in closed form, rendered as one
Python function with an internal dispatch loop and an entry label at
every chunk start.  Loops therefore iterate inside compiled code, one
function call per scheduler slice instead of one dispatch per
instruction.  The region:

* folds every static cycle cost into left-to-right constant chains
  (``cycles = cycles + c3 + c4``) that perform the **same float
  additions in the same order** as the interpreter — never
  reassociated, never pre-summed, which is what keeps results
  bit-identical;
* evaluates ``Work`` bursts in closed form (``amount * expansion``,
  then the burst's cycle/instret contributions) exactly as the
  interpreter does, iteration by iteration so float accumulation
  order is preserved;
* inlines operand access (registers, frame slots), DSM residency
  pre-checks, and operator semantics from the shared
  :mod:`repro.ir.semantics` tables, with literal operands folded in;
* runs a type pass per chunk.  A value an integer operator, a
  comparison or an int literal produced inside the chunk is a Python
  ``int`` and needs no ``int()``; any other value (a load, a register
  at chunk entry, a float) is converted once, at its first integer use
  — where the interpreter converts it, so the same values raise the
  same errors — and the converted temp serves until its local is
  reassigned.  Locals keep their unconverted values, which is what
  region exit writes back to ``thread.regs``.  Truncating div/mod use
  one ``//`` or ``%``;
* folds a chain of int literals onto ``instret`` (``instret + 16``
  instead of sixteen ``+ 1``) while a guard, tested at region entry and
  after every ``Work`` burst and re-armed by a split, proves the
  accumulator an integral float of magnitude below 2**52.  A
  fractional accumulator keeps the term-by-term chain, whose rounding
  differs;
* checks the remaining slice budget before every chunk and hands
  control back to the engine shell at calls, returns, migrations,
  syscalls, and when the budget cannot cover the next chunk and the
  chunk does not split (below);
* leaves through one epilogue: an exit sets the index of its entry in
  the object's exit table and breaks out of the loop, and the epilogue
  writes the registers back and returns that entry with the exit's
  value;
* drops a page check that repeats the chunk's last check on the same
  address, and reuses the value a stack slot was just given, which
  keeps the source ``compile()`` has to read small.

Two cases run a chunk's *stepping variant* instead: the same
instructions one at a time, each guarded by the entry index and the
index where the budget runs out, and entered at any instruction index.
One is a chunk the remaining slice budget cannot cover; the other is a
slice that resumes inside a chunk, after a slice boundary or a
migration.  A stepping variant is compiled the first time a slice
boundary lands in its chunk, so a machine function never has more
compiled objects per CPU model than its region plus one per chunk,
however many resume positions a run visits.  Its type facts last one
instruction, since it can be entered at any of them; it never folds
``instret`` and never drops a page check.

A slice boundary that lands in a *split-capable* chunk — ``BinOp``,
``UnOp`` and ``Const`` on registers and literals up to a ``Br``, or a
``CBr`` on a register — is split in the region instead.  Such a chunk
has no page check, ``Work``, migration point or hook, so only the
slice's accounting can tell where in it the boundary falls.  Its
budget gate is ``budget >= need`` or
:meth:`FastExecutionEngine._split`, which folds the chunk's
per-instruction terms from the interpreter's tables (``_cycles`` and
``INSTRET_TERMS``), left to right: the ``budget`` instructions the
slice still covers onto the live accumulators, which it commits, and
the rest onto zero for the next slice, which it starts in place.  The
chunk then runs its state updates and takes those accumulators instead
of its chains.  The split declines, and the stepping variant runs,
when the rest of the chunk would not fit a fresh budget or ``run()``
would not pick the thread again after the commit.  Because the commit
precedes the chunk's state updates, a program error raised in the
first slice's part of a split chunk escapes ``run()`` with one slice
more committed than in the exact engine; once a program error escapes,
only the exception is defined.

The scheduler's decisions, commit points, slice structure
(256-instruction budget), syscall layer, migration path, and DSM are
all inherited unchanged, which is why every ``RunResult`` fact and
golden checksum is reproduced bit for bit.  At a syscall the compiled
code charges its cycles and evaluates its arguments, if the budget
covers it; the shell runs the syscall step the exact engine runs
(``_syscall``), uses one unit of budget and resumes in compiled code at
the return site, so a slice never falls back to the interpreter.

What the shell does not inherit is the round trip to the scheduler at
every slice boundary.  A slice that ends on its budget commits, and
while ``run()`` would pick the same thread again
(``ExecutionEngine._picks_again``: runnable, no pause, slices left, no
failed thread, and a ``(vtime, tid)`` below the rival key ``run()``
hands in, re-read after each syscall step) the shell starts the next
slice in place (``_next_slice``: the step between slices,
``_advance_clock``, the slice count and the page cache's epoch check),
keeping the frame, the page cache and the compiled code.  The split
starts its slices with the same helper, and the shell publishes the
slice's machine and rival key for it.  A single-threaded program
enters ``_run_slice`` once, and a loop of split-capable chunks its
region once.

Cross-validation (``REPRO_VALIDATE=1``): the region returns to the
engine after every chunk, and after each closed-form chunk or stepping
segment the engine replays its instruction range against the *exact*
interpreter's independently derived cycle tables, failing the
``fastforward`` check (:func:`repro.validate.errors.fail`,
``segment-accounting``) on the first cycles/instret mismatch —
this is what catches a stale or corrupted block summary, and an
``instret`` fold the guard should have refused (the replay adds the
terms one by one).  Validating builds fold and split exactly as plain
ones do; a call that split is replayed from the split index with zero
accumulators.
"""

import re
from bisect import bisect_right
from typing import Dict, List, Tuple

from repro.ir.instructions import (
    AddrOf,
    BinOp,
    Br,
    CBr,
    Call,
    Const,
    InlineAsm,
    Load,
    MigPoint,
    Ret,
    StackAlloc,
    Store,
    Syscall,
    UnOp,
    Work,
)
from repro.ir.summary import block_summaries
from repro.isa.isa import InstrClass
from repro.runtime.execution import INSTRET_TERMS, ExecutionEngine, ExecutionError
from repro.sim.numeric import ordered_sum
from repro.telemetry.validation import default_log
from repro.validate import enabled as _validate_enabled
from repro.validate.errors import fail


def _f2i(a):
    """``f2i`` with the interpreter's exact error behaviour."""
    try:
        return int(a)
    except ValueError as exc:
        raise ExecutionError(str(exc)) from None


# Region exit kinds, the first field of an exit-table entry
# ``(kind, pc, payload, used)``.  A compiled object leaves through one
# epilogue that writes its registers back and returns the entry with
# the exit's value ``_v``; ``used`` is budget the shell still charges.
_DONE = 0  # slice budget ran out inside a chunk; value = pc index
_SHELL = 1  # at the syscall at pc; value = its arguments
_MIGRATE = 2  # value = target machine, payload = site id; pc after it
_CALL = 3  # at the Call payload at pc; value = its arguments
_RET = 4  # value = the return value
_RESUME = 5  # continue fast-forwarding at pc
_STEP = 6  # pc is a chunk start the budget cannot cover; step it

# Operator expression templates, mirroring repro.ir.semantics exactly.
# ``{ai}``/``{bi}`` are the operands as ints: an int literal, a local
# the chunk's type pass proved an int, or the temp holding the one
# ``int()`` conversion of any other value (``_RegionBuilder.as_int``).
# ``{same}`` tests that their signs agree, folded against a literal (see
# ``_RegionBuilder.int_fields``).  div/mod expand C-style truncation
# inline with a single ``//`` or ``%`` (``{r}`` keeps the remainder):
# the same quotients/remainders and the same ZeroDivisionError as
# ``semantics.truncdiv``, without a Python call per operation.
_INT_EXPR = {
    "add": "({a} + {b})",
    "sub": "({a} - {b})",
    "mul": "({a} * {b})",
    "div": "(({ai} // {bi}) if {same} else -(-{ai} // {bi}))",
    "mod": "({r} if ({r} := {ai} % {bi}) == 0 or {same} else {r} - {bi})",
    "and": "({ai} & {bi})",
    "or": "({ai} | {bi})",
    "xor": "({ai} ^ {bi})",
    "shl": "(({ai} << {bi}) & 0xFFFFFFFFFFFFFFFF)",
    "shr": "({ai} >> {bi})",
    "eq": "(1 if {a} == {b} else 0)",
    "ne": "(1 if {a} != {b} else 0)",
    "lt": "(1 if {a} < {b} else 0)",
    "le": "(1 if {a} <= {b} else 0)",
    "gt": "(1 if {a} > {b} else 0)",
    "ge": "(1 if {a} >= {b} else 0)",
    "min": "min({a}, {b})",
    "max": "max({a}, {b})",
}
_FLOAT_EXPR = dict(_INT_EXPR)
_FLOAT_EXPR.update(
    {
        "div": "({a} / {b})",
        "mod": "(({a} - {b} * int({a} / {b})) if {b} else 0.0)",
    }
)
_UNOP_EXPR = {
    "mov": "{a}",
    "neg": "(-{a})",
    "not": "(~{ai})",
    "i2f": "float({a})",
    "f2i": "{ai}",
    "sqrt": "(abs({a}) ** 0.5)",
    "abs": "abs({a})",
}

# The type pass, from ``repro.ir.semantics`` rather than the IR type
# (an I64 local can hold a float).  These results are a Python ``int``
# whatever the operands: ``semantics`` passes them through ``int()`` or
# maps them to 1/0, as it does the int table's div/mod and the unary
# ``not`` and ``f2i``.  add, sub, mul, min and max (either table), and
# neg, abs and mov, give an int when every operand is one.  Anything
# else — loads, stack slots, registers at chunk entry, ``AddrOf``, the
# float table's div/mod — is not known to be an int.
_INT_RESULT = frozenset(
    ("and", "or", "xor", "shl", "shr", "eq", "ne", "lt", "le", "gt", "ge")
)
_INT_IF_INTS = frozenset(("add", "sub", "mul", "min", "max"))
_UNOP_INT_IF_INT = frozenset(("mov", "neg", "abs"))

# Guard for folding a chain of int literals onto ``instret`` as one
# addition.  On an integral float the two are bit-identical while every
# partial sum is an integer of magnitude below 2**53; a bound of 2**52
# leaves far more headroom than one region call adds between two
# checks (its slice budget times the largest per-instruction term).  A
# fractional accumulator rounds differently: after
# ``(1.0 + 0.00037643534458182385) + 5``, 37 additions of 1 give
# 43.00037643534458 and one addition of 37 gives 43.000376435344585.
# Tested at region entry and after every addition of a non-int (a
# ``Work`` burst).  ``instret`` is always a float: the shell seeds 0.0.
_FOLD_GUARD = (
    "-4503599627370496.0 < instret < 4503599627370496.0"
    " and instret.is_integer()"
)


# A rendered operand that evaluates without side effects or errors: a
# local, a temp or a number literal.
_OPERAND = re.compile(r"-?[\w.]+")

# Chunk exits: a chunk runs up to its first branch, call, return or
# syscall.
_EXITS = (Br, CBr, Call, Ret, Syscall)


def _chunk_end(instrs, start: int) -> int:
    """Index of the instruction the chunk starting at ``start`` exits at."""
    k = start
    while instrs[k].__class__ not in _EXITS:
        k += 1
    return k


def _chunk_starts(mf) -> Dict[str, List[int]]:
    """Chunk start indices per block: 0 and every return site."""
    starts = {}
    for label, block in mf.fn.blocks.items():
        instrs = block.instrs
        starts[label] = [0] + [
            k + 1
            for k, instr in enumerate(instrs[:-1])
            if instr.__class__ is Call or instr.__class__ is Syscall
        ]
    return starts


# Region-local aliases and the fold guard, bound in a prologue only
# when the body mentions them (a name inside a quoted block or function
# name only costs an unused binding).
_PROLOGUE = (
    ("cfa", "frame.cfa"),
    ("_dc", "self._dsm_charge"),
    ("_mg", "mem.get"),
    ("_rt", "self.process.vdso.read_target"),
    ("_hk", "self.hooks.on_migration_point"),
    ("_slot", "thread.slot"),
    ("_mn", "thread.machine_name"),
    ("_c1", "cache[1]"),
    ("_c2", "cache[2]"),
    ("_sp", "self._split"),
    ("_fold", _FOLD_GUARD),
)

# source text -> compiled code object, shared process-wide.
_CODE_CACHE: Dict[str, object] = {}


class _FunctionCode:
    """Compiled code of one machine function on one CPU model.

    ``region`` runs chunks in closed form and is entered at
    ``labels[(block, start)]`` for every chunk start.  ``steps`` maps a
    chunk start to the chunk's stepping variant, compiled the first
    time a slice boundary lands in the chunk and the region does not
    split it.
    """

    __slots__ = ("mf", "cpu", "validating", "starts", "labels", "region", "steps")

    def __init__(self, engine, mf, cpu, validating: bool):
        self.mf = mf
        self.cpu = cpu
        self.validating = validating
        self.starts = _chunk_starts(mf)
        self.labels: Dict[Tuple[str, int], int] = {}
        for block, starts in self.starts.items():
            for start in starts:
                self.labels[(block, start)] = len(self.labels)
        builder = _RegionBuilder(engine, mf, cpu, validating)
        self.region = builder.region(self.labels)
        self.steps: Dict[Tuple[str, int], object] = {}

    def stepper(self, engine, block: str, idx: int):
        """Stepping variant of the chunk holding ``(block, idx)``."""
        starts = self.starts[block]
        key = (block, starts[bisect_right(starts, idx) - 1])
        fn = self.steps.get(key)
        if fn is None:
            builder = _RegionBuilder(engine, self.mf, self.cpu, self.validating)
            fn = self.steps[key] = builder.stepping(*key)
        return fn


class _RegionBuilder:
    """Generates the Python source of one compiled object of a machine
    function: its closed-form region or one chunk's stepping variant.

    The region renders every chunk as one dispatch loop entered via a
    label parameter; branches continue in the loop, so loops iterate
    entirely inside compiled code.  Validating builds return to the
    trampoline at every branch instead: the lock-step replay needs each
    call to describe one linear instruction range, which an in-region
    loop (even a self-loop) would break.  A stepping variant renders
    one chunk instruction by instruction and returns at its exit.

    Every exit is an index into the object's exit table (``_X`` in its
    namespace), so the source of an exit is ``_e = <index>`` and
    ``break``: block names, pcs and call sites live in the table, and
    one epilogue writes the registers back and returns.
    """

    def __init__(self, engine, mf, cpu, validating: bool):
        self.mf = mf
        self.cpu = cpu
        self.validating = validating
        self.loc = engine._locations(mf)
        self.summaries = block_summaries(mf)
        self.cycles = engine._cycles(mf, cpu)
        # Physical register -> region-local variable.  Register traffic
        # is the hottest state access; inside a region registers live
        # in Python locals, loaded at entry if the code can read their
        # entry value and written back to ``thread.regs`` at exit if
        # it writes them (the engine shell and ``_push_frame`` /
        # ``_pop_frame`` read the dict between regions).  Keyed by
        # *physical* register so IR variables sharing one register
        # share one local, exactly like the dict they replace.
        self.regmap: Dict[str, str] = {}
        self.loads = set()
        self.writes = set()
        # Registers the current closed-form chunk has written: a chunk
        # is entered only at its start, so its later reads of them
        # never see the entry value.  A stepping variant is entered at
        # any index, so there every read loads.
        self.defined = set()
        # Type facts, for one closed-form chunk or one instruction of a
        # stepping variant: rendered operands known to hold a Python
        # ``int``, and the temp holding ``int()`` of any other operand
        # converted since its last assignment.
        self.ints = set()
        self.conv: Dict[str, str] = {}
        # The last page check of the current closed-form chunk:
        # (address key, write, address, value); see ``address``.
        self.checked = None
        self.exits: List[tuple] = []
        self.ns: Dict[str, object] = {"_f2i": _f2i, "_mf": mf}
        self.labels: Dict[Tuple[str, int], int] = {}
        self.stepping_mode = False
        self.lines: List[str] = []
        self.depth = 0  # indentation of emitted statements
        self.pend_c: List[str] = []  # pending cycle-constant chain terms
        self.pend_i: list = []  # pending instret chain terms (numbers)
        # A split-capable chunk's chains and budget charge, which
        # ``region`` places in front of its state updates; else ``None``.
        self.accounting = None
        self._tmp = 0

    # --------------------------------------------------- emit helpers

    def emit(self, line: str, depth: int = 0) -> None:
        """Append one statement at the current indentation plus ``depth``."""
        self.lines.append("    " * (self.depth + depth) + line)

    def fresh(self) -> str:
        """A new temp name; a temp is assigned once."""
        self._tmp += 1
        return f"t{self._tmp}"

    def intern(self, obj) -> str:
        """Bind a constant object into the region's namespace."""
        name = f"_k{len(self.ns)}"
        self.ns[name] = obj
        return name

    def flush(self) -> None:
        """Emit the pending ``cycles`` and ``instret`` chains.

        One chained statement == the same sequence of left-to-right
        binary additions the interpreter performs; folding the
        constants into one sum would reassociate and break
        bit-identity.  The one exception is a chain of int literals
        onto an ``instret`` the ``_fold`` guard proved integral.
        """
        if self.pend_c:
            self.emit("cycles = cycles + " + " + ".join(self.pend_c))
            del self.pend_c[:]
        terms = self.pend_i
        if terms:
            chain = "instret + " + " + ".join(map(repr, terms))
            if any(type(n) is not int for n in terms):
                self.emit(f"instret = {chain}")
                self.guard()
            elif len(terms) > 1:
                total = ordered_sum(terms)
                self.emit(f"instret = instret + {total} if _fold else {chain}")
            else:
                self.emit(f"instret = {chain}")
            del terms[:]

    def guard(self) -> None:
        """Re-test the fold guard after ``instret`` took a non-int term.
        A stepping variant never folds (it flushes every instruction)."""
        if not self.stepping_mode:
            self.emit(f"_fold = {_FOLD_GUARD}")

    def local(self, reg: str) -> str:
        """The region-local variable holding physical register ``reg``."""
        name = self.regmap.get(reg)
        if name is None:
            name = self.regmap[reg] = f"_g{len(self.regmap)}"
        return name

    def read(self, op) -> str:
        """Render operand ``op`` as an expression: a literal, a register
        local, or a temp loaded from its stack slot."""
        if not isinstance(op, str):
            return repr(op)
        where = self.loc[op]
        if where[0] == "r":
            if where[1] not in self.defined:
                self.loads.add(where[1])
            return self.local(where[1])
        key = ("cfa", where[1])
        last = self.checked
        if last is not None and last[0] == key and last[3] is not None:
            return last[3]  # the slot still holds what was last moved
        addr = self.address(key, f"cfa - {where[1]}", False)
        t = self.fresh()
        self.emit(f"{t} = _mg({addr}, 0)")
        self.moved(t)
        return t

    def address(self, key, expr, write: bool) -> str:
        """An address after its residency check: a page-cache test that
        calls ``_dc`` on a miss.

        ``expr`` computes the address into a temp, or is ``None`` when
        ``key[0]``, an int, already is it.  ``key`` names the value:
        ``("cfa", depth)`` for a stack slot, ``(base, offset)`` for a
        load or store.  A check that repeats the last one of the chunk
        on the same key is dropped when that one was a write check or
        this is a read: that check left the page in the read set (and
        in the write set too, if it was a write), and only ``_dc``
        removes pages from the sets.  Every ``_dc`` call site is a
        newer check, and the key's base is forgotten when its local is
        reassigned (``write``).  A stepping variant never drops one: it
        can be entered after the earlier check.
        """
        last = self.checked
        if last is not None and last[0] == key:
            addr = last[2]
            if last[1] or not write:
                return addr
        elif expr is None:
            addr = key[0]
        else:
            addr = self.fresh()
            self.emit(f"{addr} = {expr}")
        cache = "_c2" if write else "_c1"
        self.emit(
            f"if {addr} >> 12 not in {cache}: "
            f"extra += _dc(thread, {addr}, {write})"
        )
        if not self.stepping_mode:
            self.checked = (key, write, addr, None)
        return addr

    def moved(self, value: str) -> None:
        """Note that the stack slot just checked now holds ``value``.

        Until the next check or the reassignment of ``value``'s local,
        a read of that slot is ``value`` itself: every store emits a
        check, so none can have written the slot in between.
        """
        last = self.checked
        if last is not None:
            self.checked = last[:3] + (value,)

    def as_int(self, op, text: str, convert: str = "int") -> str:
        """``op`` (rendered as ``text``) as an int expression.

        An int literal folds; a local the type pass proved an int is
        used as is.  Any other value is converted once, by
        ``convert(text)`` into a temp emitted here at its first integer
        use — exactly where ``semantics`` converts it, so ``int(nan)``
        and ``int(inf)`` raise where the interpreter raises — and the
        temp serves every later use until the local is reassigned.
        """
        if isinstance(op, int):
            value = int(op)
            return repr(value) if value >= 0 else f"({value!r})"
        if text in self.ints:
            return text
        t = self.conv.get(text)
        if t is None:
            t = self.conv[text] = self.fresh()
            self.emit(f"{t} = {convert}({text})")
        return t

    def is_int(self, op, text: str) -> bool:
        """Whether the operand is known to hold a Python ``int``."""
        return type(op) is int or text in self.ints

    def int_fields(self, a, b, ta: str, tb: str) -> Dict[str, str]:
        """Integer template fields for operands ``a``/``b`` rendered as
        ``ta``/``tb``, converting ``a`` before ``b`` as ``semantics``
        does.

        ``same`` is ``(int(a) < 0) == (int(b) < 0)``; against an int
        literal it reduces to one sign test of the other operand, or to
        a constant.
        """
        ai, bi = self.as_int(a, ta), self.as_int(b, tb)
        lit_a, lit_b = isinstance(a, int), isinstance(b, int)
        if lit_a and lit_b:
            same = repr((int(a) < 0) == (int(b) < 0))
        elif lit_a or lit_b:
            var, negative = (bi, int(a) < 0) if lit_a else (ai, int(b) < 0)
            same = f"({var} < 0)" if negative else f"({var} >= 0)"
        else:
            same = f"(({ai} < 0) == ({bi} < 0))"
        return {"a": ta, "b": tb, "ai": ai, "bi": bi, "same": same}

    def write(self, name: str, expr: str, int_valued: bool = False) -> None:
        """Store ``expr`` in variable ``name``; ``int_valued`` when the
        type pass proved the value a Python ``int``."""
        where = self.loc[name]
        if where[0] == "r":
            local = self.local(where[1])
            self.writes.add(where[1])
            if not self.stepping_mode:
                self.defined.add(where[1])
            self.emit(f"{local} = {expr}")
            # Never rebind a register local to its ``int()``: region
            # exit writes the local back, and the interpreter leaves
            # the unconverted value in ``thread.regs``.
            self.conv.pop(local, None)
            if int_valued:
                self.ints.add(local)
            else:
                self.ints.discard(local)
            last = self.checked
            if last is not None:
                if last[0][0] == local:
                    self.checked = None
                elif last[3] == local:
                    self.checked = last[:3] + (None,)
            return
        # The value is computed before the check, as the interpreter
        # computes it before its DSM charge, unless it is a plain name
        # or literal, which cannot raise.
        if _OPERAND.fullmatch(expr):
            t = expr
        else:
            t = self.fresh()
            self.emit(f"{t} = {expr}")
        addr = self.address(("cfa", where[1]), f"cfa - {where[1]}", True)
        self.emit(f"mem[{addr}] = {t}")
        self.moved(t)

    def leave(
        self, kind: int, pc=None, payload=None, used: int = 0,
        value: str = None, depth: int = 0,
    ) -> None:
        """Leave for the epilogue through a new exit-table entry, with
        ``value`` as the exit's value."""
        if value is not None:
            self.emit(f"_v = {value}", depth)
        self.emit(f"_e = {len(self.exits)}", depth)
        self.emit("break", depth)
        self.exits.append((kind, pc, payload, used))

    def spend(self, k: int, used: int, depth: int = 0) -> int:
        """Charge the budget through instruction ``k``: a stepping
        variant sets ``budget`` from ``_end`` and returns 0; a
        closed-form chunk returns the ``used`` units its exit-table
        entry (or its branch) still has to charge."""
        if self.stepping_mode:
            self.emit(f"budget = _end - {k + 1}", depth)
            return 0
        return used

    def settle(self, k: int, used: int) -> None:
        """Emit a branch's pending chains and budget charge; in a
        split-capable chunk, into ``accounting`` instead of the body."""
        mark = len(self.lines)
        self.flush()
        if self.spend(k, used):
            self.emit(f"budget = budget - {used}")
        if self.accounting is not None:
            self.accounting += self.lines[mark:]
            del self.lines[mark:]

    def jump(self, block: str, depth: int) -> None:
        """Transfer to ``(block, 0)``: in the region's loop, or back to
        the trampoline from a stepping variant or a validating build.
        The caller has charged the budget."""
        if self.stepping_mode or self.validating:
            self.leave(_RESUME, (block, 0), depth=depth)
            return
        self.emit(f"_L = {self.labels[(block, 0)]}", depth)
        self.emit("continue", depth)

    # ------------------------------------------------ chunk generation

    def gen(self, block: str, start: int) -> None:
        """Generate one chunk: instructions from ``start`` to the
        chunk's exit (branch, call, return or syscall).

        The closed form charges the chunk's static costs in chains
        between state updates, and its type pass drops ``int()`` on
        values it proved ints and converts any other value once (see
        ``as_int``).  The region's budget gate has already checked that
        the budget covers the whole chunk, or split the chunk and
        started a slice whose budget covers the rest.  The stepping
        variant guards each instruction but the exit with ``_at <= k`` and
        ``_end > k`` (``_end`` is the entry index plus the budget, one
        past the last instruction it covers) and charges it in
        its own statements, exactly like ``_interp_slice``, so one
        compiled chunk serves every resume position.  Either way the
        generated statements perform the same state updates and the
        same per-accumulator float additions, in the same order, as the
        interpreter stepping the same instructions.
        """
        mf = self.mf
        cpu = self.cpu
        stepping = self.stepping_mode
        cyc = self.summaries[block].cycles_per_instr(cpu)
        instrs = mf.fn.blocks[block].instrs
        end = _chunk_end(instrs, start)
        emit, read, write = self.emit, self.read, self.write
        as_int, is_int = self.as_int, self.is_int
        pend_c, pend_i = self.pend_c, self.pend_i
        self.defined.clear()
        self.ints.clear()
        self.conv.clear()
        self.checked = None

        for k in range(start, end + 1):
            instr = instrs[k]
            cls = instr.__class__
            # Budget the closed-form chunk has used once ``k`` runs.
            used = k - start + 1
            if stepping:
                # Entered at any ``_at``: no fact outlives its guard.
                self.ints.clear()
                self.conv.clear()
                self.depth = 0
                if k < end:
                    emit(f"if _at <= {k} and _end > {k}:")
                    self.depth = 1
                else:
                    emit(f"if _end <= {k}:")
                    emit("    budget = 0")
                    self.leave(_DONE, value="_end", depth=1)

            pend_c.append(repr(cyc[k]))
            term = INSTRET_TERMS.get(cls)
            if term is not None:
                pend_i.append(term)

            if cls is BinOp:
                op, a, b = instr.op, instr.a, instr.b
                table = _FLOAT_EXPR if instr.vt.is_float else _INT_EXPR
                template = table[op]
                ta, tb = read(a), read(b)
                if op in _INT_RESULT:
                    result_int = True
                elif op in _INT_IF_INTS:
                    result_int = is_int(a, ta) and is_int(b, tb)
                else:  # div, mod
                    result_int = table is _INT_EXPR
                if "{ai}" in template:
                    fields = self.int_fields(a, b, ta, tb)
                    if "{r}" in template:
                        fields["r"] = self.fresh()
                else:
                    fields = {"a": ta, "b": tb}
                write(instr.dst, template.format(**fields), result_int)
            elif cls is Load:
                a = as_int(instr.addr, read(instr.addr))
                off = instr.offset
                addr = self.address((a, off), f"{a} + {off}" if off else None, False)
                write(instr.dst, f"_mg({addr}, 0)")
            elif cls is Store:
                a = as_int(instr.addr, read(instr.addr))
                off = instr.offset
                addr = self.address((a, off), f"{a} + {off}" if off else None, True)
                s = read(instr.src)
                emit(f"mem[{addr}] = {s}")
                self.moved(None)  # the store may alias a checked slot
            elif cls is Const:
                write(instr.dst, repr(instr.value), type(instr.value) is int)
            elif cls is UnOp:
                op = instr.op
                a = read(instr.a)
                template = _UNOP_EXPR[op]
                result_int = op == "not" or op == "f2i" or (
                    op in _UNOP_INT_IF_INT and is_int(instr.a, a)
                )
                # ``_f2i`` raises the interpreter's ExecutionError where
                # ``apply_unop`` cannot convert.
                ai = as_int(instr.a, a, "_f2i") if "{ai}" in template else ""
                write(instr.dst, template.format(a=a, ai=ai), result_int)
            elif cls is Work:
                am = read(instr.amount)
                wcls = InstrClass(instr.kind)
                expansion = mf.isa.expansion(wcls)
                cpi = cpu.cpi.get(wcls, 1.0)
                t = self.fresh()
                emit(f"{t} = {am} * {expansion!r}")
                # Static costs precede the burst's, as exactly stepped.
                self.flush()
                emit(f"cycles = cycles + {t} * {cpi!r}")
                emit(f"instret = instret + {t}")
                self.guard()
                if self.validating:
                    emit(f"dyn.append({am})")
                if instr.pages is not None:
                    p = as_int(instr.pages, read(instr.pages))
                    iname = self.intern(instr)
                    emit(
                        f"extra = extra + self._touch_range"
                        f"(thread, {iname}, {p})"
                    )
            elif cls is CBr:
                c = read(instr.cond)
                self.settle(k, used)
                emit(f"if {c}:")
                self.jump(instr.if_true, 1)
                self.jump(instr.if_false, 0)
            elif cls is Br:
                self.settle(k, used)
                self.jump(instr.target, 0)
            elif cls is MigPoint:
                self.flush()
                emit("_v = _rt(_slot)")
                emit("if _hk is not None:")
                emit(
                    f"    _hk(thread, {mf.name!r}, {instr.point_id}, "
                    "thread.instructions + instret)"
                )
                emit("if _v is not None and _v != _mn:")
                self.leave(
                    _MIGRATE, (block, k + 1), instr.site_id,
                    self.spend(k, used, 1), depth=1,
                )
                self.checked = None  # the hook runs outside the region
            elif cls is Call or cls is Syscall:
                # The shell pushes the callee frame, or runs the syscall
                # step and resumes at the return site's label.
                self.flush()
                args = ", ".join([read(a) for a in instr.args])
                self.leave(
                    _CALL if cls is Call else _SHELL, (block, k), instr,
                    self.spend(k, used), f"[{args}]",
                )
            elif cls is Ret:
                v = read(instr.value) if instr.value is not None else "0"
                epilogue = len(mf.frame.saved_reg_depths) + 2
                pend_c.append(
                    repr(epilogue * cpu.cpi.get(InstrClass.LOAD, 1.0))
                )
                pend_i.append(3 + epilogue)
                self.flush()
                self.leave(_RET, None, None, self.spend(k, used), v)
            elif cls is AddrOf:
                write(
                    instr.dst,
                    f"self._resolve_symbol(thread, _mf, frame, {instr.symbol!r})",
                )
            elif cls is StackAlloc:
                depth = mf.frame.buffer_depths[instr.name][0]
                write(instr.dst, f"cfa - {depth}")
            elif cls is InlineAsm:
                pend_i.append(instr.instr_estimate)
            else:  # pragma: no cover
                raise ExecutionError(
                    f"fast-forward: unknown instruction {cls.__name__}"
                )
            if stepping:
                self.flush()
        self.depth = 0

    # ----------------------------------------------------------- build

    def split_terms(self, block: str, start: int):
        """What ``_split`` folds for the chunk at ``(block, start)``, if
        the chunk is split-capable: ``BinOp``, ``UnOp`` and ``Const`` on
        registers and literals up to a ``Br``, or a ``CBr`` on a
        register.  Such a chunk has no page check, ``Work``, migration
        point or hook, so only its accounting can tell where in it a
        slice boundary falls.  ``None`` for any other chunk.

        The pair holds each instruction's ``(cycles, instret)`` term,
        from the interpreter's tables, and per offset the terms from
        there on folded left to right onto zero: a new slice's
        accumulators once it has run the rest of the chunk."""
        instrs = self.mf.fn.blocks[block].instrs
        ops = []
        end = start
        while True:
            instr = instrs[end]
            cls = instr.__class__
            if cls is BinOp:
                ops += (instr.dst, instr.a, instr.b)
            elif cls is UnOp:
                ops += (instr.dst, instr.a)
            elif cls is Const:
                ops.append(instr.dst)
            elif cls is Br:
                break
            elif cls is CBr:
                ops.append(instr.cond)
                break
            else:
                return None
            end += 1
        loc = self.loc
        if any(isinstance(op, str) and loc[op][0] != "r" for op in ops):
            return None
        terms = tuple(
            zip(
                self.cycles[block][start:end + 1],
                [INSTRET_TERMS[i.__class__] for i in instrs[start:end + 1]],
            )
        )
        tails = []
        for offset in range(len(terms)):
            cycles = instret = 0.0
            for c, i in terms[offset:]:
                cycles += c
                instret += i
            tails.append((cycles, instret))
        return terms, tuple(tails)

    def region(self, labels: Dict[Tuple[str, int], int]):
        """Compile every chunk in closed form behind its entry label.

        A chunk's dispatch test is also its budget gate: a label whose
        chunk the budget cannot cover matches no branch and falls to
        the last, which leaves through exit ``_L``.  The first exits are
        the chunk starts, for the stepping variants.  A split-capable
        chunk's gate is ``budget >= need or`` the engine's ``_split``:
        its chains come first, and a split that starts the next slice
        in place gives the chunk the new slice's accumulators and
        budget instead; one that declines leaves through exit ``_L``.
        """
        self.labels = labels
        blocks = self.mf.fn.blocks
        self.exits = [(_STEP, key, None, 0) for key in labels]
        body = []
        for (block, start), label in labels.items():
            self.lines = []
            terms = self.split_terms(block, start)
            self.accounting = None if terms is None else []
            self.gen(block, start)
            assert not self.pend_c and not self.pend_i
            need = _chunk_end(blocks[block].instrs, start) - start + 1
            head = f"{'if' if label == 0 else 'elif'} _L == {label}"
            if terms is None:
                body.append(f"{head} and budget >= {need}:")
            else:
                body += [f"{head}:", f"    if budget >= {need}:"]
                body.extend("        " + line for line in self.accounting)
                body += [
                    f"    elif _p := _sp(thread, {self.intern(terms)}, "
                    "budget, cycles, instret, extra):",
                    "        cycles, instret, extra, budget, _fold = _p",
                    "    else:",
                    f"        _e = {label}",
                    "        break",
                ]
            body.extend("    " + line for line in self.lines)
        body += ["else:", "    _e = _L", "    break"]
        return self.assemble(
            body, "_L", f"<fastforward {self.mf.name}:{self.cpu.name}>"
        )

    def stepping(self, block: str, start: int):
        """Compile the stepping variant of the chunk at ``(block, start)``."""
        self.stepping_mode = True
        self.lines = []
        self.gen(block, start)
        return self.assemble(
            self.lines,
            "_at",
            f"<fastforward {self.mf.name}:{block}:{start}:{self.cpu.name}>",
        )

    def assemble(self, body: List[str], entry: str, filename: str):
        """Wrap ``body`` in the region function and compile it."""
        params = (
            "self, thread, frame, regs, mem, cache, "
            f"budget, cycles, instret, extra, {entry}"
        )
        if self.validating:
            params += ", dyn"
        out = [f"def _region({params}):"]
        text = "\n".join(body)
        out.extend(f"    {name} = {expr}" for name, expr in _PROLOGUE if name in text)
        # ``None`` marks "absent from the dict or not loaded, and never
        # written here": the epilogue skips those so the dict's key set
        # — visible to checkpoint images and migration — is exactly
        # what per-instruction interpretation leaves behind.
        unset = ["_v"]
        for reg, local in self.regmap.items():
            if reg not in self.loads:
                unset.append(local)
        out.append(f"    {' = '.join(unset)} = None")
        if self.loads:
            out.append("    _rg = regs.get")
        for reg, local in self.regmap.items():
            if reg in self.loads:
                out.append(f"    {local} = _rg({reg!r})")
        if self.stepping_mode:
            out.append("    _end = _at + budget")
        out.append("    while True:")
        out.extend("        " + line for line in body)
        for reg, local in self.regmap.items():
            if reg in self.writes:
                out.append(
                    f"    if {local} is not None: regs[{reg!r}] = {local}"
                )
        out.append("    return _X[_e], _v, budget, cycles, instret, extra")
        source = "\n".join(out) + "\n"
        # Code objects are pure functions of the source text; identical
        # rebuilds (same workload run again, tests, benchmarks) reuse
        # the compiled object instead of paying ``compile`` again.
        code = _CODE_CACHE.get(source)
        if code is None:
            code = compile(source, filename, "exec")
            _CODE_CACHE[source] = code
        self.ns["_X"] = tuple(self.exits)
        exec(code, self.ns)
        return self.ns["_region"]


class FastExecutionEngine(ExecutionEngine):
    """Drop-in engine running compiled regions between shell events."""

    _validating = False

    def run(self, max_slices: int = 50_000_000):
        """Run like the exact engine; reads ``REPRO_VALIDATE`` once."""
        # Read once per run: the flag is an environment lookup.
        self._validating = _validate_enabled()
        return super().run(max_slices)

    # ------------------------------------------------------------ slice

    def _run_slice(self, thread, rival) -> None:
        """Run ``thread`` from its pc, one slice after another.

        A slice that ends on its budget commits, and while ``run()``
        would do nothing but pick the thread again (``_picks_again``)
        the next slice starts here, after the step between slices, with
        a fresh budget; the frame, page cache and compiled code carry
        over.  The preamble is not repeated: the thread, its machine
        and its migration flow are those it set up, and a running
        thread has no wake value pending.  ``rival`` is re-read after
        each syscall step, the shell event that can wake or spawn a
        thread.  The machine and ``rival`` are published for
        ``_split``, which ends slices inside a region.
        """
        machine, extra = self._slice_preamble(thread)
        self._slice_machine = machine
        self._slice_rival = rival
        process = self.process
        mem = process.space._mem
        cpu = machine.cpu
        regs = thread.regs
        frame = thread.frames[-1]
        mf = frame.mf
        block, idx = thread.pc
        validating = self._validating
        code = self._function_code(mf, cpu)
        cache = self._cache_for(thread.tid, process.dsm.epoch)

        while True:
            budget = self.batch
            cycles = 0.0
            instret = 0.0
            step = False
            while budget > 0:
                label = None if step else code.labels.get((block, idx))
                if label is None:
                    # Inside a chunk, or a chunk the budget cannot cover.
                    fn, at = code.stepper(self, block, idx), idx
                else:
                    fn, at = code.region, label
                step = False
                if validating:
                    dyn: List[float] = []
                    steps = self.steps
                    out, value, nbudget, ncycles, ninstret, extra = fn(
                        self, thread, frame, regs, mem, cache,
                        budget, cycles, instret, extra, at, dyn,
                    )
                    kind, pc, payload, used = out
                    nbudget -= used
                    if self.steps == steps:
                        self._validate_segment(
                            mf, cpu, block, idx, budget - nbudget, dyn,
                            cycles, instret, ncycles, ninstret,
                        )
                    else:
                        # Only ``_split`` commits inside a call: a new
                        # slice ran the chunk from ``idx + budget``.
                        self._validate_segment(
                            mf, cpu, block, idx + budget,
                            self.batch - nbudget, dyn, 0.0, 0.0,
                            ncycles, ninstret,
                        )
                    budget, cycles, instret = nbudget, ncycles, ninstret
                else:
                    out, value, budget, cycles, instret, extra = fn(
                        self, thread, frame, regs, mem, cache,
                        budget, cycles, instret, extra, at,
                    )
                    kind, pc, payload, used = out
                    budget -= used
                if kind == _RESUME:
                    block, idx = pc
                elif kind == _STEP:
                    block, idx = pc
                    step = True
                elif kind == _DONE:
                    idx = value  # budget is 0: the slice ends here
                elif kind == _SHELL:
                    accs = self._syscall(
                        thread, machine, frame, cache, payload, value, pc,
                        cycles, instret, extra,
                    )
                    if accs is None:
                        return
                    cycles, instret, extra = accs
                    block, idx = pc[0], pc[1] + 1
                    rival = self._slice_rival = self._rival(thread)
                elif kind == _CALL:
                    frame.resume = thread.pc = pc
                    frame.call_site_id = payload.site_id
                    callee = self._push_frame(thread, mf, frame, payload, value, mem)
                    frame = thread.frames[-1]
                    mf = callee
                    code = self._function_code(mf, cpu)
                    block, idx = thread.pc
                    cycles += self._prologue_cycles(mf, cpu)
                    instret += mf.prologue_instret
                elif kind == _RET:
                    done = self._pop_frame(thread, value, mem, cpu)
                    if done:
                        self._commit(thread, machine, cycles, instret, extra)
                        self._thread_finished(thread, value)
                        return
                    frame = thread.frames[-1]
                    mf = frame.mf
                    code = self._function_code(mf, cpu)
                    block, idx = thread.pc
                else:  # _MIGRATE at the point; resume after it
                    thread.pc = pc
                    self._commit(thread, machine, cycles, instret, extra)
                    self._do_migration(thread, value, payload)
                    return

            thread.pc = (block, idx)
            self._commit(thread, machine, cycles, instret, extra)
            if not self._picks_again(thread, rival, thread.vtime):
                return
            cache = self._next_slice(thread)
            extra = 0.0

    def _next_slice(self, thread) -> list:
        """Start the next slice of ``thread`` in place, as ``run()``
        would start it: the step between slices (``_advance_clock``),
        the slice count, then the page cache's epoch check.  Returns the
        page cache, the list the running region already holds."""
        self._advance_clock(thread)
        self._slices_left -= 1
        return self._cache_for(thread.tid, self.process.dsm.epoch)

    def _split(self, thread, chunk, budget, cycles, instret, extra):
        """End the slice ``budget`` instructions into a split-capable
        chunk and start the next one in place, or decline (``None``).

        ``chunk`` is ``_RegionBuilder.split_terms``.  The split declines
        when the rest of the chunk would not fit a fresh budget, or when
        ``run()`` would not pick ``thread`` again after the slice:
        ``_picks_again`` on the vtime the commit would produce, and a
        rival already due declines before any folding.  Otherwise it
        folds the first ``budget`` terms onto the live accumulators,
        left to right as the interpreter adds them, commits, and starts
        the next slice (``_next_slice``).  It returns that slice's
        accumulators once the chunk has run (the rest of its terms
        folded onto zero, and no ``extra``), its budget then, and
        ``True`` for the region's ``_fold``: the new ``instret`` is an
        integral float."""
        terms, tails = chunk
        rest = len(terms) - budget
        rival = self._slice_rival
        if rest > self.batch or (
            rival is not None and (thread.vtime, thread.tid) >= rival
        ):
            return None
        for c, i in terms[:budget]:
            cycles += c
            instret += i
        machine = self._slice_machine
        vtime = thread.vtime + self._slice_seconds(machine, cycles, extra)
        if not self._picks_again(thread, rival, vtime):
            return None
        self._commit(thread, machine, cycles, instret, extra)
        self._next_slice(thread)
        cycles, instret = tails[budget]
        return cycles, instret, 0.0, self.batch - rest, True

    # ---------------------------------------------------------- tables

    def _function_code(self, mf, cpu) -> _FunctionCode:
        tables = getattr(mf, "_fast_segments", None)
        if tables is None:
            tables = mf._fast_segments = {}
        key = (cpu.name, self._validating)
        code = tables.get(key)
        if code is None:
            code = tables[key] = _FunctionCode(self, mf, cpu, self._validating)
        return code

    # ----------------------------------------------- cross-validation

    def _validate_segment(
        self,
        mf,
        cpu,
        block: str,
        start: int,
        consumed: int,
        dyn: List[float],
        cycles0: float,
        instret0: float,
        cycles1: float,
        instret1: float,
    ) -> None:
        """Replay a segment against the exact engine's cycle tables.

        The replay starts from the same accumulator values and performs
        the interpreter's additions in the interpreter's order, using
        the independently derived ``_cycles`` tables (not the block
        summaries the compiled code was generated from).  Any
        difference — a corrupted summary constant, a wrong expansion
        factor, a miscounted instruction — surfaces as a bitwise
        mismatch.

        Under validation every call into compiled code runs one linear
        range — one closed-form chunk, or one stepping segment — so
        ``(start, consumed)`` fully determines the executed range.
        """
        instrs = mf.fn.blocks[block].instrs
        tab = self._cycles(mf, cpu)[block]
        terms = INSTRET_TERMS
        cyc = cycles0
        ins = instret0
        di = 0
        for k in range(start, start + consumed):
            instr = instrs[k]
            cls = instr.__class__
            cyc += tab[k]
            if cls in terms:
                ins += terms[cls]
            elif cls is Work:
                wcls = InstrClass(instr.kind)
                expanded = dyn[di] * mf.isa.expansion(wcls)
                di += 1
                cyc += expanded * cpu.cpi.get(wcls, 1.0)
                ins += expanded
            elif cls is InlineAsm:
                ins += instr.instr_estimate
            elif cls is Ret:
                epilogue = len(mf.frame.saved_reg_depths) + 2
                cyc += epilogue * cpu.cpi.get(InstrClass.LOAD, 1.0)
                ins += 3 + epilogue
            # A Call or Syscall adds nothing here: the shell charges the
            # callee's prologue or the syscall step.
        default_log().note_check("fastforward")
        if cyc != cycles1 or ins != instret1:
            fail(
                "fastforward", "segment-accounting",
                f"segment {mf.name}:{block}@{start} (+{consumed} instrs) "
                f"on {cpu.name}: fast path reported cycles={cycles1!r} "
                f"instret={instret1!r}, exact replay gives cycles={cyc!r} "
                f"instret={ins!r}",
                state={
                    "function": mf.name,
                    "block": block,
                    "start": start,
                    "consumed": consumed,
                    "fast_cycles": cycles1,
                    "exact_cycles": cyc,
                    "fast_instret": instret1,
                    "exact_instret": ins,
                },
            )
