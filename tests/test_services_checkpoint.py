"""Tests for replicated OS services and the checkpoint/restore baseline."""

import pytest

from repro.compiler import Toolchain
from repro.kernel import PopcornSystem, boot_testbed
from repro.kernel.checkpoint import (
    CheckpointError,
    CrossIsaRestoreError,
    checkpoint_process,
    checkpoint_transfer_seconds,
    restore_process,
)
from repro.kernel.messages import MessagingLayer
from repro.kernel.services import (
    Consistency,
    CredentialsService,
    ProcessTableService,
    ServiceRegistry,
    SysInfoService,
)
from repro.machine import make_xeon_e5_1650v2
from repro.machine.interconnect import make_dolphin_pxh810
from repro.runtime.execution import ExecutionEngine

from tests.helpers import X86, call_chain_module, run_to_completion, tls_module

A, B = "k-a", "k-b"


def _messaging():
    return MessagingLayer(make_dolphin_pxh810())


class TestReplicatedServices:
    def test_eager_update_broadcasts(self):
        svc = ProcessTableService(_messaging(), [A, B])
        cost = svc.register_thread(A, pid=1, tid=7, machine=A)
        assert cost > 0  # synchronous propagation
        assert svc.stats.broadcasts == 1
        value, read_cost = svc.thread_home(B, 1, 7)
        assert value == A and read_cost == 0.0  # already replicated

    def test_lazy_pull_on_first_remote_read(self):
        svc = CredentialsService(_messaging(), [A, B])
        assert svc.set_identity(A, pid=1, uid=1000, gid=1000) == 0.0
        identity, cost = svc.identity(B, 1)
        assert identity == (1000, 1000)
        assert cost > 0
        assert svc.stats.lazy_pulls == 1
        _, again = svc.identity(B, 1)
        assert again == 0.0  # cached replica

    def test_missing_record_default(self):
        svc = SysInfoService(_messaging(), [A, B])
        hostname, cost = svc.hostname(B, 99)
        assert hostname == "localhost" and cost == 0.0

    def test_forget_process(self):
        svc = ProcessTableService(_messaging(), [A, B])
        svc.register_thread(A, 1, 7, A)
        svc.register_thread(A, 1, 8, A)
        svc.register_thread(A, 2, 9, B)
        assert svc.forget_process(1) == 2
        assert svc.threads_of(1) == {}
        assert svc.threads_of(2) == {9: B}

    def test_note_migration_updates_home(self):
        svc = ProcessTableService(_messaging(), [A, B])
        svc.register_thread(A, 1, 7, A)
        svc.note_migration(A, 1, 7, B)
        value, _ = svc.thread_home(A, 1, 7)
        assert value == B

    def test_registry_wiring_into_system(self):
        out, code, system = run_to_completion(tls_module())
        assert code is not None
        table = system.services.proctable
        assert table.stats.updates >= 3  # main + two workers (+migrations)

    def test_migration_updates_proctable(self):
        out, code, system = run_to_completion(
            call_chain_module(), migrate_at=2
        )
        # The last update moved the thread to the ARM kernel.
        assert system.services.proctable.stats.updates >= 2


class TestCheckpointRestore:
    def _two_xeon_system(self):
        return PopcornSystem(
            [make_xeon_e5_1650v2("x86-a"), make_xeon_e5_1650v2("x86-b")]
        )

    def _paused_process(self, system, module_builder=call_chain_module):
        binary = Toolchain().build(module_builder())
        process = system.exec_process(binary, "x86-a")
        # Tiny slices so the pause lands mid-computation.
        engine = ExecutionEngine(system, process, batch=4)
        hits = [0]

        def pause_later(thread, fn, point_id, instrs):
            hits[0] += 1
            if hits[0] == 3:
                engine.request_pause()

        engine.hooks.on_migration_point = pause_later
        engine.run()
        assert engine.paused, "process finished before the pause landed"
        return binary, process, engine

    def test_checkpoint_restore_resumes_identically(self):
        reference, _, _ = run_to_completion(call_chain_module())

        system = self._two_xeon_system()
        binary, process, _ = self._paused_process(system)
        ckpt = checkpoint_process(process, system)
        system.reap_process(process)

        restored = restore_process(system, binary, ckpt, "x86-b")
        ExecutionEngine(system, restored).run()
        assert restored.exit_code == 0 or restored.exit_code is not None
        assert restored.output == reference

    def test_restore_moves_machine(self):
        system = self._two_xeon_system()
        binary, process, _ = self._paused_process(system)
        ckpt = checkpoint_process(process, system)
        system.reap_process(process)
        restored = restore_process(system, binary, ckpt, "x86-b")
        for thread in restored.alive_threads:
            assert thread.machine_name == "x86-b"

    def test_restore_reserves_ids_in_a_fresh_system(self):
        source = self._two_xeon_system()
        binary, process, _ = self._paused_process(source)
        ckpt = checkpoint_process(process, source)
        target = self._two_xeon_system()
        restored = restore_process(target, binary, ckpt, "x86-b")
        fresh = target.exec_process(binary, "x86-a")
        assert fresh.pid > restored.pid
        assert min(fresh.threads) > max(restored.threads)

    def test_cross_isa_restore_rejected(self):
        """The limitation that motivates the whole paper."""
        system = boot_testbed()
        binary = Toolchain().build(call_chain_module())
        process = system.exec_process(binary, X86)
        engine = ExecutionEngine(system, process, batch=4)
        hits = [0]

        def pause_soon(thread, fn, point_id, instrs):
            hits[0] += 1
            if hits[0] == 2:
                engine.request_pause()

        engine.hooks.on_migration_point = pause_soon
        engine.run()
        assert engine.paused
        ckpt = checkpoint_process(process, system)
        with pytest.raises(CrossIsaRestoreError):
            restore_process(system, binary, ckpt, "arm-server")

    def test_wrong_binary_rejected(self):
        system = self._two_xeon_system()
        binary, process, _ = self._paused_process(system)
        ckpt = checkpoint_process(process, system)
        system.reap_process(process)
        from tests.helpers import simple_sum_module

        other = Toolchain().build(simple_sum_module())
        with pytest.raises(CheckpointError):
            restore_process(system, other, ckpt, "x86-b")

    def test_image_accounting(self):
        system = self._two_xeon_system()
        _, process, _ = self._paused_process(system)
        ckpt = checkpoint_process(process, system)
        assert ckpt.image_bytes > 0
        assert ckpt.pages > 0
        link = make_dolphin_pxh810()
        assert checkpoint_transfer_seconds(ckpt, link) > 0

    def test_checkpoint_downtime_exceeds_live_migration(self):
        """C/R ships the whole image up front; live migration's stall
        is the stack transformation + hand-off only."""
        from repro.workloads import build_workload

        system = self._two_xeon_system()
        _, process, _ = self._paused_process(
            system, lambda: build_workload("is", "A", 1, 0.001)
        )
        ckpt = checkpoint_process(process, system)
        link = make_dolphin_pxh810()
        cr_downtime = checkpoint_transfer_seconds(ckpt, link)

        # Live migration stall measured on the heterogeneous testbed.
        het = boot_testbed()
        binary = Toolchain().build(call_chain_module())
        proc2 = het.exec_process(binary, X86)
        engine = ExecutionEngine(het, proc2)
        outcomes = []
        fired = [False]

        def once(thread, fn, point_id, instrs):
            if not fired[0]:
                fired[0] = True
                het.request_thread_migration(thread, "arm-server")

        engine.hooks.on_migration_point = once
        engine.hooks.on_migration = lambda t, o: outcomes.append(o)
        engine.run()
        live_stall = outcomes[0].total_seconds
        assert cr_downtime > live_stall
