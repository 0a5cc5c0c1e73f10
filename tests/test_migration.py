"""End-to-end migration tests: the paper's core correctness property.

Migrating a running application between ISAs at any migration point —
in either direction, repeatedly, mid-call-chain, with pointers into the
stack, FP state, TLS, threads, and DSM-shared memory — must not change
the program's result.
"""

import pytest

from repro.compiler import Toolchain
from repro.ir import FunctionBuilder, Module
from repro.isa.types import ValueType as VT
from repro.kernel import boot_testbed
from repro.runtime.execution import EngineHooks, ExecutionEngine
from repro.runtime.transform import TransformError

from tests.helpers import (
    ARM,
    X86,
    call_chain_module,
    float_module,
    run_to_completion,
    simple_sum_module,
    stack_pointer_module,
    tls_module,
)

MODULES = {
    "simple": simple_sum_module,
    "chain": call_chain_module,
    "floats": float_module,
    "stackptr": stack_pointer_module,
    "tls": tls_module,
}


def reference_output(builder):
    out, code, _ = run_to_completion(builder(), start=X86)
    return out, code


class TestMigrationPreservesResults:
    @pytest.mark.parametrize("name", sorted(MODULES))
    @pytest.mark.parametrize("migrate_at", [1, 2, 3, 5])
    def test_migrate_from_x86(self, name, migrate_at):
        ref_out, ref_code = reference_output(MODULES[name])
        out, code, system = run_to_completion(
            MODULES[name](), start=X86, migrate_at=migrate_at
        )
        assert out == ref_out
        assert code == ref_code

    @pytest.mark.parametrize("name", sorted(MODULES))
    def test_migrate_from_arm(self, name):
        ref_out, ref_code = reference_output(MODULES[name])
        out, code, _ = run_to_completion(
            MODULES[name](), start=ARM, migrate_at=2
        )
        assert out == ref_out
        assert code == ref_code

    def test_ping_pong_migrations(self):
        """Migrate back and forth repeatedly; result must hold."""
        ref_out, _ = reference_output(call_chain_module)
        module = call_chain_module()
        binary = Toolchain().build(module)
        system = boot_testbed()
        process = system.exec_process(binary, X86)
        hooks = EngineHooks()

        def bounce(thread, fn, point_id, instrs):
            other = [m for m in system.machine_order if m != thread.machine_name]
            system.request_thread_migration(thread, other[0])

        hooks.on_migration_point = bounce
        engine = ExecutionEngine(system, process, hooks)
        engine.run()
        assert process.output == ref_out
        thread = process.threads[min(process.threads)]
        assert thread.migrations >= 4
        assert engine.migration.cross_isa_migrations == thread.migrations


class TestMigrationMechanics:
    def _migrated_process(self, module_builder=call_chain_module, start=X86):
        module = module_builder()
        binary = Toolchain().build(module)
        system = boot_testbed()
        process = system.exec_process(binary, start)
        hooks = EngineHooks()
        outcomes = []
        fired = [False]

        def once(thread, fn, point_id, instrs):
            if not fired[0]:
                fired[0] = True
                other = [m for m in system.machine_order if m != thread.machine_name]
                system.request_thread_migration(thread, other[0])

        hooks.on_migration_point = once
        hooks.on_migration = lambda thread, outcome: outcomes.append(outcome)
        engine = ExecutionEngine(system, process, hooks)
        engine.run()
        return process, system, outcomes

    def test_outcome_records_transformation(self):
        _, _, outcomes = self._migrated_process()
        assert len(outcomes) == 1
        outcome = outcomes[0]
        assert outcome.cross_isa
        assert outcome.transform is not None
        assert outcome.transform.frames >= 1
        assert outcome.transform_seconds > 0
        assert outcome.handoff_seconds > 0

    def test_transformation_slower_from_arm(self):
        """Figure 10: the ARM processor needs ~2x the latency."""
        _, _, from_x86 = self._migrated_process(start=X86)
        _, _, from_arm = self._migrated_process(start=ARM)
        s_x86 = from_x86[0].transform
        s_arm = from_arm[0].transform
        t_x86 = s_x86.latency_seconds("x86_64")
        t_arm = s_arm.latency_seconds("arm64")
        assert 1.5 < (t_arm / t_x86) * (s_x86.frames / max(s_arm.frames, 1)) < 3.0

    def test_thread_lands_on_target_kernel(self):
        process, system, _ = self._migrated_process()
        thread = process.threads[min(process.threads)]
        assert thread.machine_name == ARM
        assert ARM in thread.kernel_state  # heterogeneous continuation
        assert X86 in thread.kernel_state

    def test_container_spans_after_migration(self):
        process, system, _ = self._migrated_process()
        assert process.container.spans(ARM)
        assert process.container.spans(X86)

    def test_dsm_pulled_pages(self):
        process, _, _ = self._migrated_process(simple_sum_module)
        assert process.dsm.stats.page_transfers > 0

    def test_migration_messages_flowed(self):
        _, system, _ = self._migrated_process()
        stats = system.messaging.stats()
        assert stats.get("migrate.thread.req", 0) == 1

    def test_vdso_flag_cleared(self):
        process, _, _ = self._migrated_process()
        thread = process.threads[min(process.threads)]
        assert process.vdso.read_target(thread.slot) is None

    def test_migration_to_same_machine_rejected(self):
        module = simple_sum_module()
        binary = Toolchain().build(module)
        system = boot_testbed()
        process = system.exec_process(binary, X86)
        engine = ExecutionEngine(system, process)
        thread = process.threads[min(process.threads)]
        with pytest.raises(ValueError):
            engine.migration.migrate_thread(thread, X86, 0)


class TestMultiThreadedMigration:
    def test_all_threads_migrate_without_stop_the_world(self):
        """Threads migrate one by one at their own migration points."""
        module = tls_module()
        ref_out, _ = reference_output(tls_module)
        binary = Toolchain().build(module)
        system = boot_testbed()
        process = system.exec_process(binary, X86)
        hooks = EngineHooks()
        requested = [False]

        def request_all(thread, fn, point_id, instrs):
            if not requested[0] and len(process.threads) >= 3:
                requested[0] = True
                system.request_migration(process, ARM)

        hooks.on_migration_point = request_all
        ExecutionEngine(system, process, hooks).run()
        assert process.output == ref_out

    def test_stack_halves_toggle(self):
        module = call_chain_module()
        binary = Toolchain().build(module)
        system = boot_testbed()
        process = system.exec_process(binary, X86)
        hooks = EngineHooks()
        halves = []
        fired = [0]

        def once(thread, fn, point_id, instrs):
            if fired[0] == 0:
                fired[0] = 1
                halves.append(thread.stack.half)
                system.request_thread_migration(thread, ARM)

        def after(thread, outcome):
            halves.append(thread.stack.half)

        hooks.on_migration_point = once
        hooks.on_migration = after
        ExecutionEngine(system, process, hooks).run()
        assert len(halves) == 2 and halves[0] != halves[1]


class TestTransformErrors:
    def test_same_isa_transform_rejected(self):
        from repro.runtime.transform import StackTransformer

        module = simple_sum_module()
        binary = Toolchain().build(module)
        system = boot_testbed()
        process = system.exec_process(binary, X86)
        thread = process.threads[min(process.threads)]
        transformer = StackTransformer(binary, process.space)
        with pytest.raises(TransformError):
            transformer.transform(thread, "x86_64", 0)
