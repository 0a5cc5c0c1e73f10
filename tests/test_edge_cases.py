"""Edge cases and failure paths across the stack."""

import pytest

from repro.compiler import Toolchain
from repro.ir import FunctionBuilder, Module
from repro.isa.types import ValueType as VT
from repro.kernel import PopcornSystem, boot_testbed
from repro.kernel.syscall import SyscallError
from repro.machine import make_xeon_e5_1650v2
from repro.runtime.execution import (
    ENGINE_KINDS, ExecutionEngine, ExecutionError, make_engine,
)

from tests.helpers import ARM, X86, simple_sum_module


class TestEngineFailurePaths:
    def _run_main(self, emit):
        m = Module("edge")
        fb = FunctionBuilder(m.function("main", [], VT.I64))
        emit(fb)
        fb.ret(0)
        binary = Toolchain().build(m)
        system = boot_testbed()
        process = system.exec_process(binary, X86)
        engine = ExecutionEngine(system, process)
        engine.run()
        return process

    def test_stack_overflow_detected(self):
        m = Module("deep")
        f = m.function("recurse", [("n", VT.I64)], VT.I64)
        fb = FunctionBuilder(f)
        # Unbounded self-recursion must hit the stack guard, not spin.
        r = fb.call("recurse", [fb.binop("add", "n", 1, VT.I64)], VT.I64)
        fb.ret(r)
        main = m.function("main", [], VT.I64)
        fb = FunctionBuilder(main)
        fb.call("recurse", [0], VT.I64)
        fb.ret(0)
        m.entry = "main"
        binary = Toolchain().build(m)
        system = boot_testbed()
        process = system.exec_process(binary, X86)
        with pytest.raises(ExecutionError, match="stack overflow"):
            ExecutionEngine(system, process).run()

    def test_unknown_syscall_rejected_at_build(self):
        from repro.ir.instructions import Syscall

        with pytest.raises(ValueError, match="unknown syscall"):
            Syscall("", "fork", [])

    def test_join_unknown_tid(self):
        m = Module("badjoin")
        fb = FunctionBuilder(m.function("main", [], VT.I64))
        fb.syscall("join", [9999], VT.I64)
        fb.ret(0)
        m.entry = "main"
        binary = Toolchain().build(m)
        system = boot_testbed()
        process = system.exec_process(binary, X86)
        with pytest.raises(SyscallError, match="unknown tid"):
            ExecutionEngine(system, process).run()

    def test_barrier_wait_without_init(self):
        m = Module("badbar")
        fb = FunctionBuilder(m.function("main", [], VT.I64))
        fb.syscall("barrier_wait", [42], VT.I64)
        fb.ret(0)
        m.entry = "main"
        binary = Toolchain().build(m)
        system = boot_testbed()
        process = system.exec_process(binary, X86)
        with pytest.raises(SyscallError, match="uninitialised barrier"):
            ExecutionEngine(system, process).run()

    def test_exec_on_unknown_machine(self):
        binary = Toolchain().build(simple_sum_module())
        system = boot_testbed()
        with pytest.raises(KeyError):
            system.exec_process(binary, "gpu-server")

    def test_exec_missing_isa(self):
        from repro.isa import X86_64

        binary = Toolchain(isas=[X86_64]).build(simple_sum_module())
        system = boot_testbed()
        with pytest.raises(ValueError, match="lacks code"):
            system.exec_process(binary, "arm-server")

    def test_spawn_unknown_function_address(self):
        m = Module("badspawn")
        fb = FunctionBuilder(m.function("main", [], VT.I64))
        fb.syscall("spawn", [0xDEAD000, 0], VT.I64)
        fb.ret(0)
        m.entry = "main"
        binary = Toolchain().build(m)
        system = boot_testbed()
        process = system.exec_process(binary, X86)
        with pytest.raises(KeyError, match="no function"):
            ExecutionEngine(system, process).run()


class TestMigrationRequestEdges:
    def test_request_to_unknown_machine(self):
        binary = Toolchain().build(simple_sum_module())
        system = boot_testbed()
        process = system.exec_process(binary, X86)
        with pytest.raises(KeyError):
            system.request_migration(process, "nowhere")

    def test_request_to_current_machine_is_noop(self):
        """The vDSO flag is set but the engine ignores a same-machine
        target (checked before the migration service is involved)."""
        binary = Toolchain().build(simple_sum_module())
        system = boot_testbed()
        process = system.exec_process(binary, X86)
        system.request_migration(process, X86)
        engine = ExecutionEngine(system, process)
        engine.run()
        assert engine.migration.migrations == 0
        assert process.exit_code is not None

    def _hint(self, index, engine):
        """Start on arm-server, hint machine ``index`` of the testbed's
        ``machine_order``, then work past a migration point."""
        m = Module("hint")
        fb = FunctionBuilder(m.function("main", [], VT.I64))
        fb.syscall("migrate_hint", [index])
        fb.work(60_000_000, "int_alu")
        fb.ret(0)
        m.entry = "main"
        system = boot_testbed()
        process = system.exec_process(Toolchain().build(m), ARM)
        runner = make_engine(system, process, engine=engine)
        runner.run()
        return process, runner

    @pytest.mark.parametrize("engine", ENGINE_KINDS)
    @pytest.mark.parametrize("index", [-1, 2])
    def test_hint_out_of_range_rejected(self, index, engine):
        with pytest.raises(
            SyscallError,
            match=rf"migrate_hint to machine {index}; valid indexes are 0\.\.1",
        ):
            self._hint(index, engine)

    @pytest.mark.parametrize("engine", ENGINE_KINDS)
    @pytest.mark.parametrize(
        "index, machine, migrations", [(0, ARM, 0), (1, X86, 1)]
    )
    def test_hint_in_range_moves_there(self, index, machine, migrations,
                                       engine):
        process, runner = self._hint(index, engine)
        assert process.exit_code == 0
        assert [t.machine_name for t in process.threads.values()] == [machine]
        assert runner.migration.migrations == migrations

    def test_single_machine_system_cannot_migrate(self):
        binary = Toolchain().build(simple_sum_module())
        system = PopcornSystem([make_xeon_e5_1650v2("solo")])
        process = system.exec_process(binary, "solo")
        with pytest.raises(KeyError):
            system.request_migration(process, "arm-server")


class TestToolchainOptions:
    def test_none_mode_produces_no_points(self):
        binary = Toolchain(migration_points="none").build(simple_sum_module())
        assert binary.migration_point_count == 0

    def test_bad_mode_rejected(self):
        with pytest.raises(ValueError):
            Toolchain(migration_points="sometimes")

    def test_no_isas_rejected(self):
        with pytest.raises(ValueError):
            Toolchain(isas=[])

    def test_single_isa_build(self):
        from repro.isa import ARM64

        binary = Toolchain(isas=[ARM64]).build(simple_sum_module())
        assert binary.isa_names == ["arm64"]
        with pytest.raises(KeyError):
            binary.binary_for("x86_64")

    def test_function_containing_miss(self):
        binary = Toolchain().build(simple_sum_module())
        with pytest.raises(KeyError):
            binary.function_containing("x86_64", 0x1)


class TestNumericEdges:
    def _value_of(self, emit):
        m = Module("num")
        fb = FunctionBuilder(m.function("main", [], VT.I64))
        result = emit(fb)
        fb.syscall("print", [result])
        fb.ret(0)
        m.entry = "main"
        binary = Toolchain().build(m)
        system = boot_testbed()
        process = system.exec_process(binary, X86)
        ExecutionEngine(system, process).run()
        return process.output[0]

    def test_shift_left_wraps_64bit(self):
        value = self._value_of(lambda fb: fb.binop("shl", 1, 63, VT.I64))
        assert value == 1 << 63  # masked to 64 bits, no Python bignum leak

    def test_negative_not(self):
        assert self._value_of(lambda fb: fb.unop("not", 0, VT.I64)) == -1

    def test_float_mod_zero_divisor(self):
        value = self._value_of(
            lambda fb: fb.unop(
                "f2i", fb.binop("mod", 5.0, 0.0, VT.F64), VT.I64
            )
        )
        assert value == 0  # defined as 0, never raises

    def test_work_zero_amount(self):
        m = Module("w0")
        fb = FunctionBuilder(m.function("main", [], VT.I64))
        fb.work(0, "int_alu")
        fb.syscall("print", [1])
        fb.ret(0)
        m.entry = "main"
        binary = Toolchain().build(m)
        system = boot_testbed()
        process = system.exec_process(binary, X86)
        ExecutionEngine(system, process).run()
        assert process.output == [1]
