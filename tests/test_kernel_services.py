"""Unit tests for kernel services: messaging, DSM, namespaces, VFS,
vDSO, loader."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.compiler import Toolchain
from repro.kernel import boot_testbed
from repro.kernel.checkpoint import checkpoint_process, restore_process
from repro.kernel.dsm import DsmService
from repro.kernel.filesystem import VirtualFileSystem
from repro.kernel.loader import load_binary, thread_pointer_for
from repro.kernel.messages import MessagingLayer
from repro.kernel.namespaces import HeterogeneousContainer, Namespace
from repro.kernel.vdso import VdsoPage
from repro.linker.layout import PAGE_SIZE
from repro.machine.interconnect import make_dolphin_pxh810
from repro.runtime.address_space import AddressSpace
from repro.runtime.execution import ExecutionEngine

from tests.helpers import ARM, X86, simple_sum_module, tls_module

A, B, C = "kernel-a", "kernel-b", "kernel-c"


def _messaging():
    return MessagingLayer(make_dolphin_pxh810())


class TestMessaging:
    def test_local_send_free(self):
        msg = _messaging()
        assert msg.send("x", A, A, 100) == 0.0

    def test_remote_send_costs(self):
        msg = _messaging()
        assert msg.send("x", A, B, 100) > 0.0
        assert msg.counts["x"] == 1

    def test_rpc_round_trip(self):
        msg = _messaging()
        t = msg.rpc("dsm.page", A, B, 32, PAGE_SIZE)
        assert t > msg.send("y", A, B, 32)
        assert msg.counts["dsm.page.req"] == 1
        assert msg.counts["dsm.page.rep"] == 1

    def test_broadcast_max(self):
        msg = _messaging()
        t = msg.broadcast("inv", A, [B, C], 32)
        assert t > 0

    def test_broadcast_charges_aggregate_sender_cpu(self):
        # Copies fly concurrently, but the sender marshals serially:
        # completion is the slowest arrival plus one per-message CPU
        # charge for every copy beyond the first.
        one = _messaging().send("inv", A, B, 32)
        msg = _messaging()
        per_msg = msg.interconnect.per_message_cpu_s
        assert msg.broadcast("inv", A, [B, C], 32) == pytest.approx(
            one + per_msg
        )
        three = _messaging()
        assert three.broadcast("inv", A, [B, C, "kernel-d"], 32) == (
            pytest.approx(one + 2 * per_msg)
        )

    def test_broadcast_skips_local_copy_in_fanout(self):
        one = _messaging().send("inv", A, B, 32)
        msg = _messaging()
        # The loopback copy is free and must not inflate the marshalling
        # charge: fanout is 1, so no extra CPU term.
        assert msg.broadcast("inv", A, [A, B], 32) == pytest.approx(one)
        assert msg.broadcast("inv", A, [A], 32) == 0.0


class TestDsm:
    def _dsm(self):
        space = AddressSpace()
        space.map_region(0, PAGE_SIZE * 16, "data")
        space.map_region(PAGE_SIZE * 32, PAGE_SIZE * 4, "text", aliased=True)
        return DsmService(space, _messaging(), A)

    def test_first_touch_is_local(self):
        dsm = self._dsm()
        assert dsm.access(A, 0x10, write=True) == 0.0
        assert dsm.owner_of(0x10) == A

    def test_remote_read_faults_once(self):
        dsm = self._dsm()
        dsm.access(A, 0x10, write=True)
        cost = dsm.access(B, 0x10, write=False)
        assert cost > 0
        assert dsm.access(B, 0x10, write=False) == 0.0  # now shared

    def test_write_invalidates_sharers(self):
        dsm = self._dsm()
        dsm.access(A, 0x10, write=True)
        dsm.access(B, 0x10, write=False)
        cost = dsm.access(B, 0x10, write=True)
        assert cost > 0
        assert dsm.owner_of(0x10) == B
        assert dsm.stats.invalidations >= 1
        # A must now fault to read.
        assert dsm.access(A, 0x10, write=False) > 0

    def test_aliased_text_never_transfers(self):
        dsm = self._dsm()
        addr = PAGE_SIZE * 32 + 8
        assert dsm.access(A, addr, write=False) == 0.0
        assert dsm.access(B, addr, write=False) == 0.0
        assert dsm.stats.page_transfers == 0

    def test_epoch_bumps_on_transfer(self):
        dsm = self._dsm()
        dsm.access(A, 0x10, write=True)
        e0 = dsm.epoch
        dsm.access(B, 0x10, write=False)
        assert dsm.epoch > e0

    def test_ensure_range_bulk(self):
        dsm = self._dsm()
        for page in range(4):
            dsm.access(A, page * PAGE_SIZE, write=True)
        cost, pages = dsm.ensure_range(B, 0, 4 * PAGE_SIZE, write=True)
        assert pages == 4
        assert cost > 0
        again, pages2 = dsm.ensure_range(B, 0, 4 * PAGE_SIZE, write=True)
        assert pages2 == 0 and again == 0.0

    def test_ensure_range_write_invalidates_all_sharers(self):
        dsm = self._dsm()
        for page in range(3):
            dsm.access(A, page * PAGE_SIZE, write=True)
            dsm.access(B, page * PAGE_SIZE, write=False)
            dsm.access(C, page * PAGE_SIZE, write=False)
        inval0, epoch0 = dsm.stats.invalidations, dsm.epoch
        bytes0 = dsm.stats.bytes_transferred
        cost, pages = dsm.ensure_range(C, 0, 3 * PAGE_SIZE, write=True)
        # C already held a valid (read) copy of every page: a pure S->M
        # upgrade moves no payload — only invalidation traffic.
        assert pages == 0 and cost > 0
        assert dsm.stats.bytes_transferred == bytes0
        # Each page had two other sharers (A the owner, B a reader).
        assert dsm.stats.invalidations == inval0 + 6
        for page in range(3):
            assert dsm.owner_of(page * PAGE_SIZE) == C
        # Bulk pull is one residency change: a single epoch bump.
        assert dsm.epoch == epoch0 + 1
        # C now owns exclusively: its writes are free, A must re-fault.
        assert dsm.access(C, 0, write=True) == 0.0
        assert dsm.access(A, 0, write=False) > 0

    def test_ensure_range_read_keeps_owner(self):
        dsm = self._dsm()
        for page in range(2):
            dsm.access(A, page * PAGE_SIZE, write=True)
        inval0 = dsm.stats.invalidations
        cost, pages = dsm.ensure_range(B, 0, 2 * PAGE_SIZE, write=False)
        assert pages == 2 and cost > 0
        assert dsm.stats.invalidations == inval0
        for page in range(2):
            assert dsm.owner_of(page * PAGE_SIZE) == A
        # Shared copy: B reads free, but a B write still faults.
        assert dsm.access(B, 0, write=False) == 0.0
        assert dsm.access(B, 0, write=True) > 0

    def test_residual_cleanup(self):
        dsm = self._dsm()
        dsm.access(A, 0x10, write=True)
        dsm.access(B, 0x10, write=False)
        dropped = dsm.all_threads_migrated_cleanup(B)
        assert dropped == 1
        assert dsm.access(B, 0x10, write=False) > 0  # must re-fetch

    def test_resident_pages(self):
        dsm = self._dsm()
        dsm.access(A, 0, write=True)
        dsm.access(A, PAGE_SIZE, write=True)
        assert dsm.resident_pages(A) == 2

    def test_ping_pong_at_scale_stays_a_few_extents(self):
        # The directory stores runs, not pages: a 1M-page first touch
        # and ten whole-range ownership ping-pongs stay a handful of
        # extents while every page is still accounted for.
        dsm = self._dsm()
        n = 1_000_000
        base = 64 * PAGE_SIZE  # clear of the aliased text pages
        assert dsm.ensure_range(A, base, n * PAGE_SIZE, write=True) == (0.0, 0)
        moved = 0
        for i in range(10):
            _, pages = dsm.ensure_range(
                (B, A)[i % 2], base, n * PAGE_SIZE, write=True
            )
            moved += pages
        assert len(dsm.extents()) <= 3
        assert moved == 10 * n
        assert dsm.stats.page_transfers == 10 * n
        assert dsm.resident_pages(A) == n


# x86-b writes a page that all three kernels of a 3-kernel system share;
# prints the destinations of the invalidations, in the order sent.
_INVALIDATION_ORDER = """
from repro.kernel.dsm import DsmService
from repro.kernel.kernel import PopcornSystem
from repro.linker.layout import PAGE_SIZE
from repro.machine import make_xeon_e5_1650v2, make_xgene1
from repro.machine.interconnect import make_dolphin_pxh810
from repro.runtime.address_space import AddressSpace
from repro.telemetry.spans import Tracer

system = PopcornSystem(
    [make_xgene1("arm-server"), make_xeon_e5_1650v2("x86-server"),
     make_xeon_e5_1650v2("x86-b")],
    make_dolphin_pxh810(), tracer=Tracer(),
)
space = AddressSpace()
space.map_region(0, PAGE_SIZE, "data")
dsm = DsmService(space, system.messaging, "arm-server", system.machine_order)
dsm.access("arm-server", 0, write=True)
dsm.access("x86-server", 0, write=False)
dsm.access("x86-b", 0, write=False)
dsm.access("x86-b", 0, write=True)
print(*(s.attrs["dst"] for s in system.tracer.spans
        if s.name == "msg.dsm.inval"))
"""


class TestInvalidationOrder:
    def test_fault_invalidates_in_sorted_order_under_any_hash_seed(self):
        # Sharer sets are frozensets, whose order follows the string
        # hash seed; the invalidations must not.
        src = str(Path(__file__).resolve().parent.parent / "src")
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        orders = []
        for seed in ("0", "1", "2"):
            out = subprocess.run(
                [sys.executable, "-c", _INVALIDATION_ORDER],
                capture_output=True, text=True, check=True,
                env={**os.environ, "PYTHONPATH": path, "PYTHONHASHSEED": seed},
            )
            orders.append(out.stdout.split())
        assert orders == [["arm-server", "x86-server"]] * 3


class TestNamespaces:
    def test_container_spans(self):
        c = HeterogeneousContainer("web")
        created = c.span_to(A)
        assert created == 6  # all namespace kinds
        assert c.spans(A)
        assert c.span_to(A) == 0  # idempotent

    def test_kernels_intersection(self):
        c = HeterogeneousContainer("web")
        c.span_to(A)
        c.span_to(B)
        assert c.kernels() == {A, B}

    def test_pid_mapping(self):
        c = HeterogeneousContainer("web")
        local = c.adopt(1234)
        assert local == 1
        assert c.local_pid(1234) == 1
        assert c.local_pid(999) is None

    def test_bad_namespace_kind(self):
        with pytest.raises(ValueError):
            Namespace("bogus", 1)


class TestVfs:
    def test_create_open_read_write(self):
        vfs = VirtualFileSystem(_messaging(), A)
        fd, cost = vfs.open("/data/1", A, create=True)
        assert cost == 0.0
        vfs.write(fd, [1, 2, 3], A)
        vfs.close(fd)
        fd2, _ = vfs.open("/data/1", A)
        data, _ = vfs.read(fd2, 3, A)
        assert data == [1, 2, 3]

    def test_remote_access_charges(self):
        vfs = VirtualFileSystem(_messaging(), A)
        fd, _ = vfs.open("/data/1", A, create=True)
        vfs.write(fd, [7], A)
        fd2, cost = vfs.open("/data/1", B)
        assert cost > 0
        data, rcost = vfs.read(fd2, 1, B)
        assert data == [7] and rcost > 0
        # Cached at B now.
        fd3, _ = vfs.open("/data/1", B)
        _, again = vfs.read(fd3, 1, B)
        assert again == 0.0

    def test_missing_file(self):
        vfs = VirtualFileSystem(_messaging(), A)
        with pytest.raises(FileNotFoundError):
            vfs.open("/nope", A)

    def test_bad_fd(self):
        vfs = VirtualFileSystem(_messaging(), A)
        with pytest.raises(ValueError):
            vfs.read(77, 1, A)


class TestVdso:
    def test_flag_round_trip(self):
        space = AddressSpace()
        vdso = VdsoPage(space, ["m0", "m1"])
        assert vdso.read_target(5) is None
        vdso.request_migration(5, "m1")
        assert vdso.read_target(5) == "m1"
        vdso.clear(5)
        assert vdso.read_target(5) is None

    def test_flags_per_thread(self):
        vdso = VdsoPage(AddressSpace(), ["m0", "m1"])
        vdso.request_migration(1, "m0")
        assert vdso.read_target(2) is None

    @staticmethod
    def _tids_512_apart():
        """A process whose main thread and a second thread have tids
        512 apart: tids come from one counter for the whole system,
        and checkpoint restore moves it forward."""
        system = boot_testbed()
        binary = Toolchain().build(tls_module())
        process = system.exec_process(binary, X86)
        main = process.threads[min(process.threads)]
        system.reserve_ids(1, main.tid + 512)
        other = system.spawn_thread(process, X86, "bump", [3])
        assert other.tid == main.tid + 512
        return system, binary, process, main, other

    def test_threads_512_tids_apart_keep_their_own_flags(self):
        system, _, process, main, other = self._tids_512_apart()
        system.request_thread_migration(other, ARM)
        ExecutionEngine(system, process).run()
        assert process.failure is None
        assert other.migrations == 1
        assert main.migrations == 0
        assert main.machine_name == X86

    def test_restored_threads_keep_their_slots(self):
        system, binary, process, _, _ = self._tids_512_apart()
        slots = {t.tid: t.slot for t in process.threads.values()}
        assert sorted(slots.values()) == [0, 1]
        ckpt = checkpoint_process(process, system)
        restored = restore_process(boot_testbed(), binary, ckpt, X86)
        assert {t.tid: t.slot for t in restored.threads.values()} == slots

    def test_thread_migration_to_unknown_machine_names_it(self):
        system, _, _, main, _ = self._tids_512_apart()
        with pytest.raises(KeyError, match="nowhere"):
            system.request_thread_migration(main, "nowhere")


class TestLoader:
    def test_sections_mapped(self):
        binary = Toolchain().build(simple_sum_module())
        process = load_binary(binary, 1, A, _messaging(), [A, B])
        names = {v.name for v in process.space.vmas()}
        assert {".text", "heap", "stack", "[vdso]", "tls"} <= names

    def test_text_aliased(self):
        binary = Toolchain().build(simple_sum_module())
        process = load_binary(binary, 1, A, _messaging(), [A, B])
        text = [v for v in process.space.vmas() if v.name == ".text"][0]
        assert text.aliased and not text.writable

    def test_globals_initialised(self):
        binary = Toolchain().build(tls_module())
        process = load_binary(binary, 1, A, _messaging(), [A, B])
        # g_results is zero-initialised .bss; tls template holds 100.
        tp = thread_pointer_for(binary, 0)
        assert binary.tls.offsets["tls_counter"] < 0
        assert process.space.read(binary.global_addresses["g_results"]) == 0

    def test_thread_pointers_distinct(self):
        binary = Toolchain().build(tls_module())
        assert thread_pointer_for(binary, 0) != thread_pointer_for(binary, 1)
