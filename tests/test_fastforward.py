"""Fast-forward engine tests: fast/exact equivalence over the workload
registry (fault-free and under seeded message faults) and at slice
budgets that end a slice at every instruction offset, including slices
that resume in compiled code right after a syscall, the oracles for
typed chunk code (floats in integer registers, values ``int()`` cannot
convert, the ``instret`` fold on a fractional accumulator), the bound
on compiled code per function, the ceiling on generated source, the
check that the fast engine never interprets, the ``REPRO_VALIDATE=1``
cross-validator, the prologue's left-to-right ``instret`` total, the
slices the fast engine runs in place (the runaway guard, a pause, the
power sampler, a crash that wakes a joiner), slice boundaries split
inside register-only chunks (accepted and declined splits, a program
error in a split chunk), the hDSM check on a woken thread's result
write, one page-residency rule in both engines, and the three hot-path
accounting fixes that landed with the fast path (barrier wake vtime,
per-thread cache eviction, IO scoping to the DSM transfer path).
"""

import pytest

from repro.compiler import Toolchain
from repro.compiler.migration_points import scaled_target_gap
from repro.faults.chaos import CrashInjector
from repro.faults.inject import FaultyMessagingLayer
from repro.faults.models import RetryPolicy
from repro.ir import FunctionBuilder, Module
from repro.ir.function import GlobalVar
from repro.ir.instructions import Call, Syscall
from repro.ir.summary import block_summaries, invalidate_summaries
from repro.isa.types import ValueType as VT
from repro.kernel import PopcornSystem, boot_testbed
from repro.kernel.checkpoint import checkpoint_process, restore_process
from repro.kernel.dsm import DsmService
from repro.machine.interconnect import make_dolphin_pxh810
from repro.machine.machine import make_xeon_e5_1650v2, make_xgene1
from repro.runtime import fastforward
from repro.runtime.execution import (
    EngineHooks,
    ExecutionEngine,
    ExecutionError,
    make_engine,
)
from repro.sim.clock import Clock
from repro.sim.rng import DeterministicRng
from repro.telemetry import PowerRecorder
from repro.validate.errors import InvariantViolation
from repro.workloads import build_workload, workload_names
from repro.workloads.golden import (
    GOLDEN_CHECKSUMS,
    GOLDEN_CLASS,
    GOLDEN_SCALE,
    golden_key,
)
from repro.workloads.interp_stress import interp_stress_module

from tests.helpers import (
    ARM,
    X86,
    call_chain_module,
    simple_sum_module,
    stack_pointer_module,
)
from tests.test_condvars import _queue_module
from tests.test_mutex import _locked_counter_module


def _facts(system, process, engine):
    """Every observable a run produces, in one comparable tuple.

    Output, exit code, per-thread virtual time / instruction counts,
    per-machine lifetime counters and clocks, DSM statistics and the
    engine's slice count: if the fast engine is bit-identical to the
    interpreter, all of these match exactly — no tolerances.  Output
    values compare by ``repr``: ``3 == 3.0``, and a value that turned
    from an int into an equal float is a divergence.
    """
    return (
        tuple(repr(v) for v in process.output),
        process.exit_code,
        tuple(
            sorted(
                (t.tid, t.vtime, t.instructions)
                for t in process.threads.values()
            )
        ),
        tuple(
            (m.name, m.instructions_retired, m.busy_core_seconds, m.clock.now)
            for m in system.machines.values()
        ),
        repr(process.dsm.stats),
        engine.steps,
    )


def _run(
    module,
    kind,
    start=X86,
    migrate_at=None,
    fault_seed=None,
    batch=256,
    migrate_every=None,
):
    """Build + run ``module`` on a fresh testbed with the given engine.

    ``migrate_at`` moves the process at that migration-point hit;
    ``migrate_every`` moves the hitting thread to the other machine at
    every such hit.  ``batch`` is the slice budget.
    """
    binary = Toolchain().build(module)
    system = boot_testbed()
    if fault_seed is not None:
        system.messaging = FaultyMessagingLayer(
            system.messaging,
            DeterministicRng(fault_seed),
            loss_probability=0.25,
            retry=RetryPolicy(max_retries=8),
        )
    process = system.exec_process(binary, start)
    hooks = EngineHooks()
    hits = [0]

    def on_point(thread, fn, point_id, instrs):
        hits[0] += 1
        if migrate_at is not None and hits[0] == migrate_at:
            others = [
                m for m in system.machine_order if m != thread.machine_name
            ]
            system.request_migration(process, others[0])
        if migrate_every is not None and hits[0] % migrate_every == 0:
            others = [
                m for m in system.machine_order if m != thread.machine_name
            ]
            system.request_thread_migration(thread, others[0])

    hooks.on_migration_point = on_point
    engine = make_engine(system, process, hooks, engine=kind, batch=batch)
    engine.run()
    return _facts(system, process, engine), system, process, engine


# --------------------------------------------- fast == exact, fault-free


class TestFastMatchesExact:
    @pytest.mark.parametrize("threads", [1, 4])
    @pytest.mark.parametrize("bench", sorted(workload_names()))
    def test_registry_facts_and_goldens(self, bench, threads):
        module = build_workload(bench, GOLDEN_CLASS, threads, GOLDEN_SCALE)
        exact, _, process, _ = _run(module, "exact")
        fast, _, _, _ = _run(module, "fast")
        assert fast == exact
        assert process.exit_code == 0
        key = golden_key(bench, threads)
        if key in GOLDEN_CHECKSUMS:
            assert int(process.output[0]) == GOLDEN_CHECKSUMS[key]

    @pytest.mark.parametrize("start", [X86, ARM])
    @pytest.mark.parametrize(
        "module_factory", [call_chain_module, stack_pointer_module]
    )
    def test_migration_equivalence(self, module_factory, start):
        exact, _, _, _ = _run(module_factory(), "exact", start, migrate_at=1)
        fast, _, _, _ = _run(module_factory(), "fast", start, migrate_at=1)
        assert fast == exact

    def test_validating_mode_matches(self, monkeypatch):
        module = build_workload("ep", GOLDEN_CLASS, 2, GOLDEN_SCALE)
        exact, _, _, _ = _run(module, "exact")
        monkeypatch.setenv("REPRO_VALIDATE", "1")
        fast, _, _, _ = _run(module, "fast")
        assert fast == exact

    @pytest.mark.parametrize("batch", [44, 256])
    def test_validating_mode_matches_fractional_instret(
        self, monkeypatch, batch
    ):
        """Folding the 37 int terms after each ``Work`` burst onto the
        burst's fractional ``instret`` would round differently.  The
        facts absorb that error, so only the validator's term-by-term
        replay sees it; at a budget of 44 slices start at the chunk."""
        module = _fractional_instret_module()
        monkeypatch.setenv("REPRO_VALIDATE", "0")
        exact, _, _, _ = _run(module, "exact", batch=batch)
        monkeypatch.setenv("REPRO_VALIDATE", "1")
        fast, _, _, _ = _run(module, "fast", batch=batch)
        assert fast == exact


def _fractional_instret_module(iterations: int = 40) -> Module:
    """A loop whose chunk adds a fractional ``Work`` burst to ``instret``
    and then 36 dependent integer adds and a branch, 37 int terms."""
    m = Module("fractional-instret")
    kernel = m.function("kernel", [], VT.I64)
    fb = FunctionBuilder(kernel)
    acc = fb.local("acc", VT.I64, init=0)
    with fb.for_range("i", 0, iterations) as i:
        fb.work(0.01807263799239375, "fp_alu")
        for _ in range(36):
            fb.binop_into(acc, "add", acc, i, VT.I64)
    fb.ret(acc)

    main = m.function("main", [], VT.I64)
    fb = FunctionBuilder(main)
    fb.syscall("print", [fb.call("kernel", [], VT.I64)])
    fb.ret(0)
    m.entry = "main"
    return m


# ------------------------------------- fast == exact, at every offset


def _float_i64_module(iterations: int = 24) -> Module:
    """Floats in I64 registers reach every operator that converts with
    ``int()``: div, mod (both operand signs), and/or/xor/shl/shr,
    ``not``, and a ``Store``/``Load`` address.  They arrive as a float
    argument, a float constant, and a float stored and loaded back.
    ``v`` is reassigned between two integer uses in one chunk, so a
    conversion reused past its local's assignment changes the output.
    The type pass tracks register locals only, and the allocator gives
    registers in order of first appearance: hence ``v``, ``y`` and
    ``back`` come first.
    """
    m = Module("float-i64")
    mix = m.function("mix", [("x", VT.I64)], VT.I64)
    fb = FunctionBuilder(mix)
    v = fb.local("v", VT.I64, init=0.25)
    acc = fb.local("acc", VT.I64, init=2.5)
    h = fb.local("h", VT.I64, init=0)
    buf = fb.stack_alloc(64)

    def mix_in(term):
        fb.binop_into(h, "xor", h, term, VT.I64)

    with fb.for_range("i", 0, iterations) as i:
        # 20.25 down to -20.0 in steps of 1.75: both signs.
        y = fb.binop("sub", "x", fb.binop("mul", i, 1.75, VT.I64), VT.I64)
        fb.store(fb.binop("add", buf, 8.75, VT.I64), 0, y, VT.I64)
        back = fb.load(fb.binop("add", buf, 8.5, VT.I64), 0, VT.I64)
        mix_in(fb.binop("and", back, 0x7F, VT.I64))
        fb.binop_into(acc, "add", acc, back, VT.I64)
        fb.binop_into(v, "add", v, y, VT.I64)
        a1 = fb.binop("and", v, 0xFFFF, VT.I64)
        fb.binop_into(v, "mul", v, -0.5, VT.I64)
        mix_in(fb.binop("xor", v, a1, VT.I64))
        w = fb.binop("add", y, 64.5, VT.I64)
        mix_in(fb.binop("div", y, 3, VT.I64))
        mix_in(fb.binop("mod", y, 4, VT.I64))
        mix_in(fb.binop("mod", y, -5, VT.I64))
        mix_in(fb.binop("div", -1000, w, VT.I64))
        mix_in(fb.binop("mod", acc, w, VT.I64))
        b = fb.binop("and", y, 0xFF, VT.I64)
        b = fb.binop("or", b, y, VT.I64)
        b = fb.binop("xor", b, acc, VT.I64)
        b = fb.binop("shl", b, 3, VT.I64)
        mix_in(fb.binop("shr", b, 1, VT.I64))
        mix_in(fb.unop("not", y, VT.I64))
    fb.syscall("print", [acc])
    fb.syscall("print", [v])
    fb.ret(h)

    main = m.function("main", [], VT.I64)
    fb = FunctionBuilder(main)
    fb.syscall("print", [fb.call("mix", [20.25], VT.I64)])
    fb.ret(0)
    m.entry = "main"
    return m


_BARRIER = 3


def _barrier_loop_module(threads: int, rounds: int = 5) -> Module:
    """``threads`` workers each run ``rounds`` of compute, a
    ``barrier_wait`` and more compute, as the registry's kernels do.
    The wait's result (1 for the releasing thread, 0 for a woken one)
    feeds the sum, so a result written to the wrong place shows."""
    m = Module(f"barrier-loop{threads}")
    w = m.function("worker", [("idx", VT.I64)], VT.I64)
    fb = FunctionBuilder(w)
    acc = fb.local("acc", VT.I64, init=0)
    with fb.for_range("r", 0, rounds) as r:
        fb.binop_into(acc, "add", acc, fb.binop("mul", r, "idx", VT.I64), VT.I64)
        fb.work(fb.binop("add", fb.binop("mul", "idx", 700, VT.I64), 900, VT.I64))
        got = fb.syscall("barrier_wait", [_BARRIER], VT.I64)
        fb.binop_into(acc, "add", acc, fb.binop("mul", got, 5, VT.I64), VT.I64)
        fb.binop_into(acc, "xor", acc, r, VT.I64)
    fb.ret(acc)

    main = m.function("main", [], VT.I64)
    fb = FunctionBuilder(main)
    fb.syscall("barrier_init", [_BARRIER, threads])
    waddr = fb.addr_of("worker")
    tids = fb.stack_alloc(8 * threads, "tids")
    with fb.for_range("s", 0, threads) as i:
        t = fb.syscall("spawn", [waddr, i], VT.I64)
        fb.store(fb.binop("add", tids, fb.binop("mul", i, 8, VT.I64), VT.I64), 0, t, VT.I64)
    total = fb.local("total", VT.I64, init=0)
    with fb.for_range("j", 0, threads) as j:
        t = fb.load(fb.binop("add", tids, fb.binop("mul", j, 8, VT.I64), VT.I64), 0, VT.I64)
        fb.binop_into(total, "add", total, fb.syscall("join", [t], VT.I64), VT.I64)
    fb.syscall("print", [total])
    fb.ret(0)
    m.entry = "main"
    return m


def _syscall_spill_module(iterations: int = 9) -> Module:
    """A loop whose non-blocking ``sbrk`` reads its size from a frame
    slot and writes the address to one, with compute on both sides.

    F64 locals live across a syscall are spilled on x86, which has no
    callee-saved FP registers (``TestSyscallResume`` checks that they
    are).  After a migration at the explicit point, a slice of budget 5
    ends exactly before the syscall; its argument read is the first
    touch of the stack page on the new machine, and ``time_ns`` reads
    the committed time in the next slice, so a DSM charge made in the
    wrong slice changes the output.
    """
    m = Module("syscall-spill")
    main = m.function("main", [], VT.I64)
    fb = FunctionBuilder(main)
    size = fb.local("size", VT.F64, init=16.0)
    total = fb.local("total", VT.F64, init=0.0)
    with fb.for_range("i", 0, iterations) as i:
        fb.binop_into(size, "add", size, fb.unop("i2f", i, VT.F64), VT.F64)
        fb.binop_into(size, "mul", size, 1.5, VT.F64)
        fb.migration_point()
        k = fb.binop("mul", i, 3, VT.I64)
        for op, b in (("add", 1), ("xor", 5), ("and", 7), ("add", i)):
            k = fb.binop(op, k, b, VT.I64)
        got = fb.syscall("sbrk", [size], VT.F64)
        now = fb.syscall("time_ns", [], VT.F64)
        fb.syscall("print", [k])
        fb.binop_into(total, "add", total, got, VT.F64)
        fb.binop_into(total, "add", total, now, VT.F64)
    fb.syscall("print", [total])
    fb.ret(0)
    m.entry = "main"
    return m


_SLICE_PROGRAMS = {
    "float_i64": _float_i64_module,
    "simple_sum": simple_sum_module,
    "call_chain": call_chain_module,
    "stack_pointer": stack_pointer_module,
    "locked_counter": lambda: _locked_counter_module(2, 15),
    "queue": lambda: _queue_module(20, 2),
    "interp_stress": lambda: interp_stress_module(300),
    "barrier_loop_t1": lambda: _barrier_loop_module(1),
    "barrier_loop_t4": lambda: _barrier_loop_module(4),
    "syscall_spill": _syscall_spill_module,
}


def _chunk_count(mf) -> int:
    """Chunks of a machine function: block starts plus return sites
    (the instruction after a ``Call`` or a ``Syscall``)."""
    return sum(
        1 + sum(isinstance(i, (Call, Syscall)) for i in block.instrs[:-1])
        for block in mf.fn.blocks.values()
    )


class TestSliceBoundaries:
    """Small slice budgets end slices at every instruction offset of
    every chunk, so every entry of every stepping variant runs: after a
    slice boundary, after a migration, and where the budget cannot
    cover a chunk's closed form.  The barrier and syscall programs put
    slice boundaries right before and right after syscalls."""

    @pytest.mark.parametrize("migrate_every", [None, 3])
    @pytest.mark.parametrize("batch", [1, 2, 3, 5, 7, 13, 64])
    @pytest.mark.parametrize("program", sorted(_SLICE_PROGRAMS))
    def test_fast_matches_exact(self, program, batch, migrate_every):
        module = _SLICE_PROGRAMS[program]()
        exact, _, _, _ = _run(
            module, "exact", batch=batch, migrate_every=migrate_every
        )
        fast, _, _, _ = _run(
            module, "fast", batch=batch, migrate_every=migrate_every
        )
        assert fast == exact

    @pytest.mark.parametrize("program", sorted(_SLICE_PROGRAMS))
    def test_code_objects_bounded_by_chunks(self, program):
        """Per (function, CPU model): one region plus at most one
        stepping variant per chunk, however many distinct resume
        positions the run visits (a budget of 1 visits them all)."""
        _, _, process, _ = _run(
            _SLICE_PROGRAMS[program](), "fast", batch=1, migrate_every=3
        )
        stepped = 0
        for binary in process.binary.binaries.values():
            for mf in binary.machine_functions.values():
                for code in getattr(mf, "_fast_segments", {}).values():
                    compiled = {code.region.__code__}
                    compiled.update(fn.__code__ for fn in code.steps.values())
                    assert len(compiled) <= 1 + _chunk_count(mf), mf.name
                    stepped += len(code.steps)
        assert stepped > 0


class TestSyscallResume:
    """After a syscall the fast engine runs the interpreter's syscall
    step and resumes in compiled code at the return site's label; it
    never hands the rest of a slice to ``_interp_slice``."""

    def test_spilled_operands(self):
        """The syscall program really reads its argument from, and
        writes its result to, a frame slot on x86."""
        binary = Toolchain().build(_syscall_spill_module())
        mf = binary.machine_function("x86_64", "main")
        sbrk = next(
            instr
            for block in mf.fn.blocks.values()
            for instr in block.instrs
            if isinstance(instr, Syscall) and instr.name == "sbrk"
        )
        spilled = set(mf.frame.slot_depths)
        assert sbrk.args[0] in spilled and sbrk.dst in spilled

    @pytest.mark.parametrize("validate", ["0", "1"])
    def test_fast_engine_never_interprets(self, monkeypatch, validate):
        def refuse(self, thread, machine, extra):
            raise AssertionError("a slice went to the interpreter")

        monkeypatch.setattr(ExecutionEngine, "_interp_slice", refuse)
        monkeypatch.setenv("REPRO_VALIDATE", validate)
        for program in sorted(_SLICE_PROGRAMS):
            for batch in (5, 256):
                _, _, process, _ = _run(
                    _SLICE_PROGRAMS[program](), "fast", batch=batch,
                    migrate_every=3,
                )
                assert process.exit_code is not None, program


# Generated characters of sp/t4 and cg/t1 (distinct sources, validation
# off) when this ceiling was set, plus 2%.  Character counts are
# deterministic: a code-generation change that grows the source again
# fails here, where a compile-time check would only be noisy.
_SOURCE_CHARS = 145_493
_SOURCE_CEILING = int(_SOURCE_CHARS * 1.02)


class TestGeneratedSource:
    def test_source_ceiling(self, monkeypatch):
        monkeypatch.setattr(fastforward, "_CODE_CACHE", {})
        monkeypatch.setenv("REPRO_VALIDATE", "0")
        for bench, threads in (("sp", 4), ("cg", 1)):
            module = build_workload(bench, GOLDEN_CLASS, threads, GOLDEN_SCALE)
            _run(module, "fast")
        chars = sum(len(source) for source in fastforward._CODE_CACHE)
        assert chars <= _SOURCE_CEILING, chars


# ------------------------------------------------- slices run in place


class TestSlicesInPlace:
    """A fast slice that ends on its budget starts the next one in place
    while ``run()`` would pick the same thread again; everything
    ``run()`` does between two slices must still happen at the same
    slice as in the exact engine."""

    def test_one_thread_enters_the_slice_runner_once(self, monkeypatch):
        """The stress kernel enters ``_run_slice`` once, and ``kernel``'s
        region once: every slice boundary lands in one of its two
        register-only loop chunks, which split in the region, so no
        stepping variant of ``kernel`` is compiled.  Validation is off,
        since validating builds return after every chunk."""
        entries = []
        regions = []
        inner = fastforward.FastExecutionEngine._run_slice
        build = fastforward._FunctionCode.__init__

        def counted(self, thread, rival):
            entries.append(thread.tid)
            return inner(self, thread, rival)

        def counted_build(self, engine, mf, cpu, validating):
            build(self, engine, mf, cpu, validating)
            region = self.region

            def entered(*args):
                regions.append(mf.name)
                return region(*args)

            self.region = entered

        monkeypatch.setattr(
            fastforward.FastExecutionEngine, "_run_slice", counted
        )
        monkeypatch.setattr(fastforward._FunctionCode, "__init__", counted_build)
        monkeypatch.setenv("REPRO_VALIDATE", "0")
        module = interp_stress_module(2_000)
        exact, _, _, _ = _run(module, "exact")
        fast, _, process, _ = _run(module, "fast")
        assert fast == exact
        assert len(entries) == 1
        assert exact[-1] > 50  # slices
        assert regions.count("kernel") == 1
        kernel = process.binary.machine_function("x86_64", "kernel")
        assert [code.steps for code in kernel._fast_segments.values()] == [{}]

    def test_runaway_guard_fires_at_the_same_slice(self):
        """``max_slices`` counts slices, not picks.  The kernel needs
        141 slices, so a loop that ran past the limit would finish it
        instead of raising, rather than run on for hours."""
        seen = []
        binary = Toolchain().build(interp_stress_module(2_000))
        for kind in ("exact", "fast"):
            system = boot_testbed()
            process = system.exec_process(binary, X86)
            engine = make_engine(system, process, engine=kind)
            with pytest.raises(ExecutionError, match="slice budget exhausted"):
                engine.run(max_slices=25)
            assert engine.steps == 25, kind
            seen.append(
                (
                    repr(system.clock.now),
                    [repr(t.vtime) for t in process.threads.values()],
                )
            )
        assert seen[0] == seen[1]

    @pytest.mark.parametrize("kind", ["exact", "fast"])
    def test_a_run_of_exactly_max_slices_completes(self, kind):
        """The guard fires only when one more slice would have to run: a
        run that needs exactly ``max_slices`` slices ends normally."""
        binary = Toolchain().build(interp_stress_module(2_000))
        runs = []
        for max_slices in (50_000_000, None):
            system = boot_testbed()
            process = system.exec_process(binary, X86)
            engine = make_engine(system, process, engine=kind)
            engine.run(max_slices or runs[0][-1])
            runs.append(_facts(system, process, engine))
        assert runs[0] == runs[1]

    @pytest.mark.parametrize(
        "program, pause_at",
        [("call_chain", 3), ("barrier_loop_t2", 6)],
    )
    def test_pause_lands_on_the_same_slice(self, program, pause_at):
        """``request_pause()`` from a migration-point hook stops both
        engines at the same slice boundary; the paused process then
        checkpoints and restores on the other Xeon and finishes with an
        unpaused run's output.  At a budget of 4 the barrier program
        pauses with a woken thread's result still to be written."""
        factory = {
            "call_chain": call_chain_module,
            "barrier_loop_t2": lambda: _barrier_loop_module(2),
        }[program]
        reference, _, _, _ = _run(factory(), "exact", batch=4)
        paused = []
        for kind in ("exact", "fast"):
            system = PopcornSystem(
                [make_xeon_e5_1650v2("x86-a"), make_xeon_e5_1650v2("x86-b")]
            )
            binary = Toolchain().build(factory())
            process = system.exec_process(binary, "x86-a")
            engine = make_engine(system, process, engine=kind, batch=4)
            hits = [0]

            def pause_later(thread, fn, point_id, instrs):
                hits[0] += 1
                if hits[0] == pause_at:
                    engine.request_pause()

            engine.hooks.on_migration_point = pause_later
            engine.run()
            assert engine.paused, kind
            paused.append(
                (
                    engine.steps,
                    repr(system.clock.now),
                    sorted(
                        (t.tid, t.pc, t.state.value, repr(t.vtime))
                        for t in process.threads.values()
                    ),
                )
            )
            ckpt = checkpoint_process(process, system)
            system.reap_process(process)
            restored = restore_process(system, binary, ckpt, "x86-b")
            make_engine(system, restored, engine=kind, batch=4).run()
            assert [repr(v) for v in restored.output] == list(reference[0])
        assert paused[0] == paused[1]

    @pytest.mark.parametrize("program", ["stress", "cg_t2_migrated"])
    def test_power_sampler_series_match(self, program):
        """A power sampler attached as ``repro run`` attaches it records
        the same series, bit for bit: the fast engine advances the clock
        and samples between slices it runs in place."""
        series = []
        for kind in ("exact", "fast"):
            if program == "stress":
                rate = 1e6
                binary = Toolchain().build(interp_stress_module(20_000))
            else:
                scale = 0.01
                rate = min(100 / scale, 1e6)
                binary = Toolchain(target_gap=scaled_target_gap(scale)).build(
                    build_workload("cg", "A", 2, scale)
                )
            system = boot_testbed()
            recorder = PowerRecorder(system, rate_hz=rate)
            process = system.exec_process(binary, X86)
            hooks = EngineHooks()
            hits = [0]

            def migrate_second(thread, fn, point_id, instrs):
                hits[0] += 1
                if hits[0] == 2:
                    system.request_migration(process, ARM)

            hooks.on_migration_point = migrate_second
            engine = make_engine(
                system, process, hooks, sampler=recorder.sampler, engine=kind
            )
            engine.run()
            recorder.finish()
            series.append(
                [
                    (s.name, repr(s.times), repr(s.values))
                    for s in recorder.sampler.series
                ]
            )
            assert len(recorder.sampler.series[0]) > 50
        assert series[0] == series[1]


# ------------------------------------ slice boundaries split in a region


def _zero_divisor_module(zero_at: int = 71) -> Module:
    """A register-only loop dividing by ``zero_at - i``, so iteration
    ``zero_at`` raises ``ZeroDivisionError``.  Its body is one
    split-capable chunk of five instructions, the division second; the
    three adds ahead of the loop put a slice boundary inside the raising
    chunk, after its division, at budgets 3, 5, 7 and 256."""
    m = Module("zero-divisor")
    kernel = m.function("kernel", [], VT.I64)
    fb = FunctionBuilder(kernel)
    acc = fb.local("acc", VT.I64, init=1)
    for k in range(3):
        fb.binop_into(acc, "add", acc, k, VT.I64)
    with fb.for_range("i", 0, 100) as i:
        d = fb.binop("sub", zero_at, i, VT.I64)
        fb.binop_into(acc, "add", acc, fb.binop("div", 1000, d, VT.I64), VT.I64)
    fb.ret(acc)

    main = m.function("main", [], VT.I64)
    fb = FunctionBuilder(main)
    fb.syscall("print", [fb.call("kernel", [], VT.I64)])
    fb.ret(0)
    m.entry = "main"
    return m


class TestSplit:
    """A slice boundary inside a split-capable chunk (``BinOp``, ``UnOp``
    and ``Const`` on registers up to a ``Br`` or a ``CBr`` on a register)
    is split in the region by ``FastExecutionEngine._split``: it commits
    the slice and starts the next one in place, or declines, and the
    chunk's stepping variant runs as before."""

    @pytest.mark.parametrize("program", ["locked_counter", "barrier_loop_t4"])
    def test_split_accepts_and_declines(self, monkeypatch, program):
        """With several threads, a budget of 7 and migrations at every
        third point, some splits start the next slice in place and some
        decline, because a rival is due or the rest of the chunk would
        not fit a fresh budget; fast == exact either way."""
        outcomes = []
        inner = fastforward.FastExecutionEngine._split

        def counted(self, *args):
            accs = inner(self, *args)
            outcomes.append(accs is not None)
            return accs

        monkeypatch.setattr(fastforward.FastExecutionEngine, "_split", counted)
        module = _SLICE_PROGRAMS[program]()
        exact, _, _, _ = _run(module, "exact", batch=7, migrate_every=3)
        fast, _, _, _ = _run(module, "fast", batch=7, migrate_every=3)
        assert fast == exact
        assert outcomes.count(True) > 0, "no split accepted"
        assert outcomes.count(False) > 0, "no split declined"

    @pytest.mark.parametrize("batch", [3, 5, 7, 256])
    def test_error_in_a_split_chunk(self, batch):
        """Both engines raise the division's ``ZeroDivisionError``.  The
        split commits the first slice before the chunk's state runs, so
        the fast engine raises with one slice more committed than the
        exact engine, which stops at the division: that is how the test
        knows the raising chunk split.  Once a program error escapes
        ``run()``, only the exception is defined."""
        binary = Toolchain().build(_zero_divisor_module())
        steps = []
        for kind in ("exact", "fast"):
            system = boot_testbed()
            process = system.exec_process(binary, X86)
            engine = make_engine(system, process, engine=kind, batch=batch)
            with pytest.raises(ZeroDivisionError):
                engine.run()
            steps.append(engine.steps)
        assert steps[1] == steps[0] + 1


def _crash_wakes_joiner_module() -> Module:
    """``parked`` moves to ARM, reads the global ``g_cell`` and waits at
    a barrier; ``main`` joins it.  ``runner`` gets far ahead on x86 with
    one huge burst, loops, writes ``g_cell``, loops again and meets
    ``parked`` at the barrier.  A kernel crash armed at that
    write's page fault kills ``parked`` in the middle of ``runner``'s
    slices and wakes ``main``, far behind ``runner``; ``main`` then
    reads the clock."""
    m = Module("crash-wakes-joiner")
    m.add_global(GlobalVar("g_cell", VT.I64))
    parked = m.function("parked", [("idx", VT.I64)], VT.I64)
    fb = FunctionBuilder(parked)
    fb.migration_point()
    fb.migration_point()
    fb.load(fb.addr_of("g_cell"), 0, VT.I64)
    fb.syscall("barrier_wait", [_BARRIER], VT.I64)
    fb.ret(0)

    runner = m.function("runner", [("idx", VT.I64)], VT.I64)
    fb = FunctionBuilder(runner)
    acc = fb.local("acc", VT.I64, init=0)
    fb.work(20_000_000, "int_alu")
    with fb.for_range("i", 0, 400) as i:
        fb.binop_into(acc, "add", acc, fb.binop("mul", i, 3, VT.I64), VT.I64)
    fb.store(fb.addr_of("g_cell"), 0, 7, VT.I64)
    with fb.for_range("k", 0, 400) as k:
        fb.binop_into(acc, "xor", acc, k, VT.I64)
    fb.syscall("barrier_wait", [_BARRIER], VT.I64)
    fb.ret(acc)

    main = m.function("main", [], VT.I64)
    fb = FunctionBuilder(main)
    fb.syscall("barrier_init", [_BARRIER, 2])
    first = fb.syscall("spawn", [fb.addr_of("parked"), 0], VT.I64)
    second = fb.syscall("spawn", [fb.addr_of("runner"), 1], VT.I64)
    fb.syscall("join", [first], VT.I64)
    fb.syscall("print", [fb.syscall("time_ns", [], VT.F64)])
    fb.syscall("print", [fb.syscall("join", [second], VT.I64)])
    fb.ret(0)
    m.entry = "main"
    return m


def _run_crash(kind, armed=None):
    """``_crash_wakes_joiner_module`` with ``parked`` moved to ARM and
    a crash injector armed at ``armed``, ``(seq, victim)``."""
    binary = Toolchain().build(_crash_wakes_joiner_module())
    system = boot_testbed()
    injector = CrashInjector(system.crash_kernel, armed)
    system.messaging.chaos = injector
    process = system.exec_process(binary, X86)
    hooks = EngineHooks()

    def to_arm(thread, fn, point_id, instrs):
        if fn == "parked":
            system.request_thread_migration(thread, ARM)

    hooks.on_migration_point = to_arm
    engine = make_engine(system, process, hooks, engine=kind)
    engine.run()
    return _facts(system, process, engine), injector.sites, process


class TestCrashDuringSlicesInPlace:
    def test_woken_joiner_ends_the_slices_in_place(self):
        """The crash wakes ``main``, a thread the rival key handed in at
        the pick does not know, with a key below ``runner``'s.  The exact
        engine's scheduler picks ``main`` at the next boundary, so the
        fast engine must return to it there too."""
        _, sites, _ = _run_crash("exact")
        seq = next(
            site.seq
            for site in sites
            if site.step == "dsm.page" and ("faulter", X86) in site.roles
        )
        exact, _, process = _run_crash("exact", (seq, ARM))
        fast, _, _ = _run_crash("fast", (seq, ARM))
        assert fast == exact
        assert list(process.failed_threads) == [2]  # parked


# ---------------------------------------- a woken thread's result write


def _woken_slot_module() -> Module:
    """Two workers meet at a barrier.  A hook's request at the first
    migration point moves a worker at the second, before the barrier.
    The wait's F64 result stays live across the ``print`` syscall, so on
    x86, which has no callee-saved FP registers, it lives in a frame
    slot.  The worker that arrives first is woken by the other, and its
    result is written when it next runs."""
    m = Module("woken-slot")
    w = m.function("worker", [("idx", VT.I64)], VT.I64)
    fb = FunctionBuilder(w)
    fb.migration_point()
    fb.migration_point()
    got = fb.syscall("barrier_wait", [_BARRIER], VT.F64)
    fb.syscall("print", ["idx"])
    fb.ret(fb.unop("f2i", got, VT.I64))

    main = m.function("main", [], VT.I64)
    fb = FunctionBuilder(main)
    fb.syscall("barrier_init", [_BARRIER, 2])
    waddr = fb.addr_of("worker")
    first = fb.syscall("spawn", [waddr, 0], VT.I64)
    second = fb.syscall("spawn", [waddr, 1], VT.I64)
    a = fb.syscall("join", [first], VT.I64)
    b = fb.syscall("join", [second], VT.I64)
    fb.syscall("print", [fb.binop("add", a, b, VT.I64)])
    fb.ret(0)
    m.entry = "main"
    return m


class TestWokenResultWrite:
    """A thread woken from a blocking syscall has the result written to
    its frame when it next runs, through the hDSM write check
    ``_syscall`` makes for a result, in both engines."""

    def test_result_lives_in_an_x86_frame_slot(self):
        binary = Toolchain().build(_woken_slot_module())
        mf = binary.machine_function("x86_64", "worker")
        wait = next(
            instr
            for block in mf.fn.blocks.values()
            for instr in block.instrs
            if isinstance(instr, Syscall) and instr.name == "barrier_wait"
        )
        assert wait.dst in mf.frame.slot_depths

    def test_woken_write_is_checked(self, monkeypatch):
        """Both workers move from ARM to x86 before the barrier, which
        empties their page caches, so the woken worker's write misses
        the cache: it must make a write check, in both engines."""
        checks = []
        completing = []
        charge = ExecutionEngine._dsm_charge
        complete = ExecutionEngine._complete_blocking_syscall

        def counted_charge(self, thread, addr, write):
            if completing and write:
                checks.append(completing[-1])
            return charge(self, thread, addr, write)

        def counted_complete(self, thread, value):
            block, idx = thread.pc
            instr = thread.frames[-1].mf.fn.blocks[block].instrs[idx]
            completing.append((instr.name, thread.machine_name))
            try:
                return complete(self, thread, value)
            finally:
                completing.pop()

        monkeypatch.setattr(ExecutionEngine, "_dsm_charge", counted_charge)
        monkeypatch.setattr(
            ExecutionEngine, "_complete_blocking_syscall", counted_complete
        )
        facts = []
        for kind in ("exact", "fast"):
            del checks[:]
            run, _, _, _ = _run(
                _woken_slot_module(), kind, start=ARM, migrate_every=1
            )
            facts.append(run)
            assert checks == [("barrier_wait", X86)], kind
        assert facts[0] == facts[1]


# ------------------------------------ one residency rule in both engines


def _residency_probe_module(iterations: int = 10) -> Module:
    """Touch a stack page, hit a migration point (the hook moves the
    process), load from the page on the new machine, then run a ``Work``
    burst over two pages the old machine owns, whose ``ensure_range``
    bumps the hDSM epoch, a register-only loop, and a second load from
    the stack page."""
    m = Module("residency-probe")
    main = m.function("main", [], VT.I64)
    fb = FunctionBuilder(main)
    cell = fb.stack_alloc(64, "cell")
    big = fb.stack_alloc(3 * 4096, "big")
    fb.store(cell, 0, 5, VT.I64)
    for offset in (0, 4096, 8192):
        fb.store(big, offset, offset, VT.I64)
    fb.migration_point()
    got = fb.load(cell, 0, VT.I64)
    fb.work(200, "int_alu", fb.binop("add", big, 4096, VT.I64), 8192)
    acc = fb.local("acc", VT.I64, init=0)
    with fb.for_range("i", 0, iterations) as i:
        fb.binop_into(acc, "add", acc, fb.binop("mul", i, 3, VT.I64), VT.I64)
        fb.binop_into(acc, "xor", acc, i, VT.I64)
    back = fb.load(cell, 0, VT.I64)
    fb.syscall("print", [fb.binop("add", fb.binop("add", got, back, VT.I64), acc, VT.I64)])
    fb.ret(0)
    m.entry = "main"
    return m


class TestResidencyRule:
    """Both engines re-validate a thread's page cache against the hDSM
    epoch only on a miss and at a slice start, a split's included; a
    ``Load`` or ``Store`` tests the cache first, as a stack slot does."""

    @pytest.mark.parametrize("batch", [29, 64, 100, 256])
    def test_same_access_calls(self, monkeypatch, batch):
        """At 100 and 256 the epoch bump and the second load share a
        slice; an interpreter that re-validated at every load made one
        more ``access`` call there.  At 29 and 64 slices split inside
        the loop, and a split that skipped the epoch check would make
        one fewer.  The facts agree either way: a resident page costs
        nothing."""
        pages = []
        access = DsmService.access

        def counted(self, kernel, addr, write):
            pages.append(addr >> 12)
            return access(self, kernel, addr, write)

        monkeypatch.setattr(DsmService, "access", counted)
        runs = []
        for kind in ("exact", "fast"):
            del pages[:]
            facts, _, _, _ = _run(
                _residency_probe_module(), kind, batch=batch, migrate_at=1
            )
            runs.append((facts, list(pages)))
        assert runs[0] == runs[1]


# ------------------------------------------- values int() cannot convert


def _nonfinite_module(op: str) -> Module:
    """``op`` applied to an infinity or a NaN built at run time.

    ``semantics`` converts only where an operator needs an int, so the
    error (or its absence) must surface at the same instruction in both
    engines: never earlier, at a load or at chunk entry.
    """
    m = Module(f"nonfinite-{op}")
    kernel = m.function("kernel", [("x", VT.I64)], VT.I64)
    fb = FunctionBuilder(kernel)
    buf = fb.stack_alloc(16)
    inf = fb.binop("mul", "x", 10.0, VT.I64)
    nan = fb.binop("sub", inf, inf, VT.I64)
    fb.store(buf, 0, nan, VT.I64)
    back = fb.load(buf, 0, VT.I64)
    if op == "not_nan":
        fb.ret(fb.unop("not", back, VT.I64))
    elif op == "and_nan":
        fb.ret(fb.binop("and", back, 1, VT.I64))
    elif op == "and_inf":
        fb.ret(fb.binop("and", inf, 1, VT.I64))
    else:  # no integer use: the NaN only moves and compares
        fb.ret(fb.binop("ne", back, back, VT.I64))

    main = m.function("main", [], VT.I64)
    fb = FunctionBuilder(main)
    fb.syscall("print", [fb.call("kernel", [1e308], VT.I64)])
    fb.ret(0)
    m.entry = "main"
    return m


class TestConversionErrors:
    @pytest.mark.parametrize("kind", ["exact", "fast"])
    @pytest.mark.parametrize(
        "op, error",
        [
            ("not_nan", ExecutionError),
            ("and_nan", ValueError),
            ("and_inf", OverflowError),
        ],
    )
    def test_same_error_in_both_engines(self, op, error, kind):
        with pytest.raises(error):
            _run(_nonfinite_module(op), kind)

    def test_no_integer_use_no_error(self):
        exact, _, process, _ = _run(_nonfinite_module("none"), "exact")
        fast, _, _, _ = _run(_nonfinite_module("none"), "fast")
        assert fast == exact
        assert process.output == [1]


# ------------------------------------------ fast == exact, under faults


class TestFaultEquivalence:
    """Equivalence must survive fault injection: a seeded lossy
    messaging layer perturbs every DSM cost (retries, backoff), and the
    fast engine has to track the perturbed schedule exactly."""

    @pytest.mark.parametrize("bench", ["is", "cg", "mg"])
    def test_fast_matches_exact_under_seeded_faults(self, bench):
        # The late migration forces the DSM to pull the already-touched
        # working set over the (lossy) wire; without it every access is
        # a local first touch and nothing can be dropped.
        module = build_workload(bench, GOLDEN_CLASS, 4, GOLDEN_SCALE)
        exact, system_e, _, _ = _run(
            module, "exact", migrate_at=8, fault_seed=1234
        )
        fast, system_f, _, _ = _run(
            module, "fast", migrate_at=8, fault_seed=1234
        )
        assert fast == exact
        # The injection has to have actually bitten for this test to
        # mean anything.
        assert system_e.messaging.dropped > 0
        assert system_f.messaging.dropped == system_e.messaging.dropped

    def test_seed_changes_the_run(self):
        module = build_workload("ep", GOLDEN_CLASS, 4, GOLDEN_SCALE)
        one, _, _, _ = _run(module, "fast", migrate_at=8, fault_seed=1)
        two, _, _, _ = _run(module, "fast", migrate_at=8, fault_seed=2)
        # Checksums agree (semantics are fault-transparent) ...
        assert one[0] == two[0]
        # ... but the timing facts differ, so the equality above is
        # not vacuous.
        assert one != two


# ------------------------------------------------- cross-validation


class TestCrossValidation:
    def test_corrupted_summary_raises_divergence(self, monkeypatch):
        """REPRO_VALIDATE=1 must catch a block summary whose constants
        no longer match the IR the interpreter executes, whether
        closed-form or stepping code reads them."""
        module = simple_sum_module()
        binary = Toolchain().build(module)
        mf = binary.machine_function("x86_64", "accum")
        invalidate_summaries(mf)
        summaries = block_summaries(mf)
        corrupted = False
        for summary in summaries.values():
            for counts in summary.counts:
                for cls, n in counts.items():
                    counts[cls] = n + 3.0
                    corrupted = True
                    break
                if corrupted:
                    break
            if corrupted:
                break
        assert corrupted, "no instruction counts to corrupt"

        monkeypatch.setenv("REPRO_VALIDATE", "1")
        # At a slice budget of 3 the corrupted chunk (the 6-instruction
        # entry chunk of ``accum``) never runs in closed form: only its
        # stepping variant reads the summary.
        for batch in (256, 3):
            system = boot_testbed()
            process = system.exec_process(binary, X86)
            engine = make_engine(system, process, engine="fast", batch=batch)
            with pytest.raises(InvariantViolation) as exc:
                engine.run()
            assert exc.value.checker == "fastforward"
            assert exc.value.invariant == "segment-accounting"

    def test_corruption_unnoticed_without_validation(self, monkeypatch):
        """Sanity check on the test above: without the validator the
        corrupted constants silently skew the accounting, which is
        exactly why the lock-step mode exists.  (Validation is forced
        off so the test also holds under the CI job that exports
        REPRO_VALIDATE=1 globally.)"""
        monkeypatch.setenv("REPRO_VALIDATE", "0")
        module = simple_sum_module()
        clean, _, _, _ = _run(module, "fast")

        binary = Toolchain().build(module)
        mf = binary.machine_function("x86_64", "accum")
        invalidate_summaries(mf)
        summaries = block_summaries(mf)
        entry = mf.fn.entry
        target = next(
            c for c in summaries[entry].counts if c
        )
        cls = next(iter(target))
        target[cls] = target[cls] + 3.0

        system = boot_testbed()
        process = system.exec_process(binary, X86)
        engine = make_engine(system, process, engine="fast")
        engine.run()
        assert _facts(system, process, engine) != clean


# ------------------------------------------------ prologue instret


class TestPrologueInstret:
    def test_left_to_right_total(self):
        """Both engines add ``prologue_instret`` at every call.  It is
        the left-to-right total on every Python: builtin ``sum()`` of
        these three floats gives 9.7 from CPython 3.12 on."""
        module = build_workload("bzip2smp", GOLDEN_CLASS, 1, GOLDEN_SCALE)
        binary = Toolchain().build(module)
        mf = binary.machine_function("x86_64", "compress_block")
        assert list(mf.prologue_counts.values()) == [7.0, 1.8, 0.9]
        assert repr(mf.prologue_instret) == "9.700000000000001"


# -------------------------------------------- S1: barrier wake vtime


def _barrier_skew_module(big_work: int = 4_000_000_000) -> Module:
    """Three barrier parties: main arrives instantly, one worker after
    a tiny burst, the last after a huge burst *in the same slice as its
    barrier_wait*.  Pre-fix, the releaser's uncommitted slice time was
    missing from ``wake_at``, so the early arrivers left the barrier
    almost immediately instead of at the releaser's true arrival.
    """
    m = Module("barrier-skew")

    quick = m.function("quick", [("idx", VT.I64)], VT.I64)
    fb = FunctionBuilder(quick)
    fb.work(1_000_000, "int_alu")
    fb.syscall("barrier_wait", [7], VT.I64)
    fb.ret(0)

    slow = m.function("slow", [("idx", VT.I64)], VT.I64)
    fb = FunctionBuilder(slow)
    fb.work(big_work, "int_alu")
    fb.syscall("barrier_wait", [7], VT.I64)
    fb.ret(0)

    main = m.function("main", [], VT.I64)
    fb = FunctionBuilder(main)
    fb.syscall("barrier_init", [7, 3])
    t1 = fb.syscall("spawn", [fb.addr_of("quick"), 0], VT.I64)
    t2 = fb.syscall("spawn", [fb.addr_of("slow"), 1], VT.I64)
    fb.syscall("barrier_wait", [7], VT.I64)
    fb.syscall("join", [t1], VT.I64)
    fb.syscall("join", [t2], VT.I64)
    fb.syscall("print", [1])
    fb.ret(0)
    m.entry = "main"
    return m


class TestBarrierWakeVtime:
    @pytest.mark.parametrize("kind", ["exact", "fast"])
    def test_waiters_leave_no_earlier_than_releaser(self, kind):
        _, _, process, _ = _run(_barrier_skew_module(), kind)
        assert process.exit_code == 0
        vtimes = {t.tid: t.vtime for t in process.threads.values()}
        release_at = max(vtimes.values())
        # All three parties leave the barrier at the releaser's true
        # arrival time and finish within microseconds of each other.
        # With the stale-vtime bug the releaser's final (uncommitted)
        # slice — which holds the tail of its big burst — was missing
        # from ``wake_at``, and the early arrivers finished ~9% of the
        # run earlier than the thread that woke them.
        for tid, vtime in vtimes.items():
            assert vtime >= (1.0 - 1e-4) * release_at, (
                f"tid {tid} left the barrier at {vtime:.6f}s, before the "
                f"releasing thread's arrival at {release_at:.6f}s"
            )

    def test_engines_agree_on_barrier_wakes(self):
        exact, _, _, _ = _run(_barrier_skew_module(), "exact")
        fast, _, _, _ = _run(_barrier_skew_module(), "fast")
        assert fast == exact


# ---------------------------------------- S2: per-thread cache leak


class TestThreadCacheEviction:
    @pytest.mark.parametrize("kind", ["exact", "fast"])
    def test_caches_empty_after_run(self, kind):
        """Every thread of a multi-thread workload touches DSM pages
        and Work ranges; once all threads are done the engine must not
        retain a single per-thread cache entry (PR 6's serving loop
        runs thousands of threads through one engine)."""
        module = build_workload("ft", GOLDEN_CLASS, 4, GOLDEN_SCALE)
        _, _, process, engine = _run(module, kind)
        assert process.exit_code == 0
        assert len(process.threads) > 1  # the workload really spawned
        assert engine._page_cache == {}
        assert engine._range_cache == {}

    def test_caches_are_used_while_running(self):
        """Guard against the eviction test passing vacuously because
        the caches were never populated: a mid-run probe must see
        entries for live threads."""
        module = build_workload("ft", GOLDEN_CLASS, 2, GOLDEN_SCALE)
        binary = Toolchain().build(module)
        system = boot_testbed()
        process = system.exec_process(binary, X86)
        seen = {"pages": 0, "ranges": 0}
        hooks = EngineHooks()
        engine = make_engine(system, process, hooks, engine="exact")

        def on_point(thread, fn, point_id, instrs):
            seen["pages"] = max(seen["pages"], len(engine._page_cache))
            seen["ranges"] = max(seen["ranges"], len(engine._range_cache))

        hooks.on_migration_point = on_point
        engine.run()
        assert seen["pages"] > 0
        assert engine._page_cache == {}
        assert engine._range_cache == {}


# ------------------------------------------------ S3: IO path scoping


class TestMarkIoScoping:
    def _three_machine_system(self):
        clock = Clock()
        machines = [
            make_xeon_e5_1650v2("x86-1", clock),
            make_xeon_e5_1650v2("x86-2", clock),
            make_xgene1("arm-bystander", clock),
        ]
        return PopcornSystem(machines, make_dolphin_pxh810(), clock)

    @pytest.mark.parametrize("kind", ["exact", "fast"])
    def test_bystander_sees_no_io(self, kind):
        """Move one worker of a shared-memory workload to x86-2 so the
        DSM ping-pongs pages between x86-1 and x86-2 for the rest of
        the run; the third machine takes no part in any transfer and
        must never be marked IO-busy — the old global ``_mark_io``
        inflated the idle-power IO component of every server in the
        system on every remote page fault."""
        system = self._three_machine_system()
        module = build_workload("is", GOLDEN_CLASS, 4, GOLDEN_SCALE)
        binary = Toolchain().build(module)
        process = system.exec_process(binary, "x86-1")
        hooks = EngineHooks()
        moved = [False]

        def on_point(thread, fn, point_id, instrs):
            if not moved[0] and thread.tid != min(process.threads):
                moved[0] = True
                system.request_thread_migration(thread, "x86-2")

        hooks.on_migration_point = on_point
        engine = make_engine(system, process, hooks, engine=kind)
        engine.run()
        assert process.exit_code == 0
        assert moved[0]
        # The split placement really did ping-pong pages on the wire.
        assert process.dsm.stats.page_transfers > 0
        assert process.dsm.stats.invalidations > 0
        machines = system.machines
        # The transfer endpoints saw wire activity ...
        assert machines["x86-1"]._io_busy_until > 0.0
        assert machines["x86-2"]._io_busy_until > 0.0
        # ... the bystander saw none, so its power trace stays idle.
        assert machines["arm-bystander"]._io_busy_until == 0.0
        assert not machines["arm-bystander"].io_active()
