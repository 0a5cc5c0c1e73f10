"""Ablation studies over the design choices the paper argues for.

* common layout (symbol alignment) vs per-ISA layouts — alignment is
  what makes migration possible at negligible cost;
* hDSM on-demand paging vs stop-the-world full-copy migration;
* migration-point density vs migration response time;
* the McPAT FinFET projection's effect on the scheduling conclusions;
* the interconnect: Dolphin PCIe vs commodity 10GbE.
"""

import pytest

from conftest import WORK_SCALE, run_once
from repro.compiler import Toolchain
from repro.compiler.migration_points import DEFAULT_TARGET_GAP
from repro.datacenter import ClusterSimulator, make_policy, sustained_backfill
from repro.kernel import boot_testbed
from repro.linker.layout import PAGE_SIZE
from repro.machine import make_xeon_e5_1650v2, make_xgene1
from repro.machine.interconnect import make_10gbe, make_dolphin_pxh810
from repro.render import Table
from repro.runtime.execution import EngineHooks, ExecutionEngine
from repro.sim.rng import DeterministicRng
from repro.workloads import build_workload


class TestAlignmentAblation:
    def test_unaligned_binaries_cannot_share_addresses(self, benchmark, save_result):
        def measure():
            aligned = Toolchain().build(
                build_workload("is", "A", 1, 0.001)
            )
            rows = []
            for name in aligned.module.functions:
                addr = aligned.address_of(name)
                nat_arm = aligned.unaligned_layouts["arm64"].address_of(name)
                nat_x86 = aligned.unaligned_layouts["x86_64"].address_of(name)
                rows.append((name, addr, nat_arm, nat_x86))
            return rows

        rows = run_once(benchmark, measure)
        diverged = [r for r in rows if r[2] != r[3]]
        # Without alignment the per-ISA layouts drift apart, so code
        # pointers and return addresses would be untranslatable.
        assert diverged, "per-ISA natural layouts never diverged"
        table = Table(
            "Ablation: symbol addresses, aligned vs natural layouts",
            ["symbol", "common", "arm64 natural", "x86_64 natural"],
        )
        for name, addr, a, b in rows[:10]:
            table.add_row(name, hex(addr), hex(a), hex(b))
        save_result("ablation_alignment", table.render())


class TestDsmAblation:
    def _migrating_run(self):
        toolchain = Toolchain(target_gap=int(DEFAULT_TARGET_GAP * WORK_SCALE))
        binary = toolchain.build(build_workload("is", "A", 1, WORK_SCALE))
        system = boot_testbed()
        process = system.exec_process(binary, "x86-server")
        fired = [False]

        def once(thread, fn, point_id, instrs):
            if not fired[0]:
                fired[0] = True
                system.request_thread_migration(thread, "arm-server")

        hooks = EngineHooks(on_migration_point=once)
        ExecutionEngine(system, process, hooks).run()
        assert process.exit_code == 0
        return system, process

    def test_on_demand_beats_stop_the_world(self, benchmark, save_result):
        system, process = run_once(benchmark, self._migrating_run)
        stats = process.dsm.stats
        link = make_dolphin_pxh810()
        # Stop-the-world alternative: ship the entire resident image
        # before resuming.
        resident_pages = process.dsm.resident_pages(
            "arm-server"
        ) + process.dsm.resident_pages("x86-server")
        full_copy_bytes = resident_pages * PAGE_SIZE
        stop_the_world_stall = link.transfer_time(full_copy_bytes)
        on_demand_bytes = stats.bytes_transferred
        table = Table(
            "Ablation: hDSM on-demand vs stop-the-world full copy",
            ["strategy", "bytes moved", "up-front stall (s)"],
        )
        table.add_row("hDSM on-demand", on_demand_bytes, 0.0)
        table.add_row("stop-the-world", full_copy_bytes, stop_the_world_stall)
        save_result("ablation_dsm", table.render())
        # On-demand moves only what the destination touches.
        assert 0 < on_demand_bytes <= full_copy_bytes
        assert stop_the_world_stall > 0

    def test_text_pages_never_move(self, benchmark):
        system, process = run_once(benchmark, self._migrating_run)
        text_pages = process.space.aliased_pages()
        for page in text_pages:
            assert process.dsm.owner_of(page * PAGE_SIZE) is None


class TestMigrationPointDensity:
    def test_density_vs_response_time(self, benchmark, save_result):
        """More migration points -> lower migration response time, at a
        small instrumentation cost (the paper's stated trade-off)."""

        def response_time(gap):
            toolchain = Toolchain(target_gap=gap)
            binary = toolchain.build(build_workload("ep", "A", 1, WORK_SCALE))
            system = boot_testbed()
            process = system.exec_process(binary, "x86-server")
            # Response time is measured in instructions between the
            # request and the next migration point of the same thread
            # (the paper's "migration response time" definition).
            state = {"tid": None, "requested_at": None, "response": None}
            request_after_instrs = 1_000_000

            def hook(thread, fn, point_id, instrs):
                if state["requested_at"] is None:
                    if instrs >= request_after_instrs:
                        state["tid"] = thread.tid
                        state["requested_at"] = instrs
                        system.request_thread_migration(thread, "arm-server")
                elif state["response"] is None and thread.tid == state["tid"]:
                    state["response"] = instrs - state["requested_at"]

            hooks = EngineHooks(on_migration_point=hook)
            ExecutionEngine(system, process, hooks).run()
            assert process.exit_code == 0
            return state["response"], system.clock.now

        def measure():
            dense_gap = int(DEFAULT_TARGET_GAP * WORK_SCALE / 10)
            sparse_gap = int(DEFAULT_TARGET_GAP * WORK_SCALE * 4)
            return response_time(dense_gap), response_time(sparse_gap)

        (dense_resp, dense_total), (sparse_resp, sparse_total) = run_once(
            benchmark, measure
        )
        table = Table(
            "Ablation: migration-point density vs response time",
            ["build", "response (instructions)", "total run (s)"],
        )
        table.add_row("dense (quantum/10)", f"{dense_resp:.0f}", f"{dense_total:.4f}")
        table.add_row("sparse (quantum*4)", f"{sparse_resp:.0f}", f"{sparse_total:.4f}")
        save_result("ablation_migration_density", table.render())
        assert dense_resp < sparse_resp


class TestSchedulingAblations:
    def _energy(self, project, interconnect_bw):
        rng = DeterministicRng(4242)
        specs, conc = sustained_backfill(rng, 24, 6)
        sim = ClusterSimulator(
            [make_xgene1("arm"), make_xeon_e5_1650v2("x86")],
            make_policy("dynamic-balanced"),
            interconnect_bw=interconnect_bw,
            project_arm_finfet=project,
        )
        return sim.run_sustained(specs, conc)

    def test_finfet_projection_drives_the_conclusion(self, benchmark, save_result):
        def measure():
            return self._energy(True, 8e9), self._energy(False, 8e9)

        projected, measured = run_once(benchmark, measure)
        table = Table(
            "Ablation: McPAT FinFET projection",
            ["ARM power model", "total energy (kJ)", "makespan (s)"],
        )
        table.add_row("projected (1/10)", f"{projected.total_energy/1e3:.2f}",
                      f"{projected.makespan:.1f}")
        table.add_row("measured (X-Gene 1)", f"{measured.total_energy/1e3:.2f}",
                      f"{measured.makespan:.1f}")
        save_result("ablation_finfet", table.render())
        # Without the projection the first-generation board erodes the
        # energy argument substantially.
        assert measured.total_energy > 1.2 * projected.total_energy

    def test_interconnect_sensitivity(self, benchmark, save_result):
        def measure():
            dolphin = self._energy(True, make_dolphin_pxh810().bandwidth_bytes_per_s)
            tengbe = self._energy(True, make_10gbe().bandwidth_bytes_per_s)
            return dolphin, tengbe

        dolphin, tengbe = run_once(benchmark, measure)
        table = Table(
            "Ablation: interconnect for migration traffic",
            ["link", "makespan (s)", "migrations"],
        )
        table.add_row("Dolphin PXH810 (64Gb/s)", f"{dolphin.makespan:.2f}",
                      dolphin.migrations)
        table.add_row("10GbE", f"{tengbe.makespan:.2f}", tengbe.migrations)
        save_result("ablation_interconnect", table.render())
        # Slower page pulls make migration dearer, never cheaper.
        assert tengbe.makespan >= dolphin.makespan - 1e-9
