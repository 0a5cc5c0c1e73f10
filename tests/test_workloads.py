"""Workload suite tests: every benchmark builds, runs, verifies, and is
migration-safe; profiles are sane."""

import pytest

from repro.compiler import Toolchain
from repro.ir.validate import validate_module
from repro.isa.isa import InstrClass
from repro.workloads import REGISTRY, build_workload, profile_for, workload_names
from repro.workloads.npb_is import build_serial
from repro.workloads.profiles import PROFILES

from tests.helpers import ARM, X86, run_to_completion

SCALE = 0.02  # keep the bulk instruction counts small for unit tests


class TestRegistry:
    def test_all_expected_benchmarks_present(self):
        assert set(workload_names()) == {
            "is", "cg", "ft", "ep", "bt", "sp", "mg", "lu",
            "bzip2smp", "verus", "redis",
        }

    def test_one_profile_per_workload(self):
        assert len(PROFILES) == 11 and set(PROFILES) == set(REGISTRY)
        for name, profile in PROFILES.items():
            assert profile.name == name

    def test_unknown_workload(self):
        with pytest.raises(KeyError):
            build_workload("linpack")
        with pytest.raises(KeyError):
            profile_for("linpack")

    def test_profiles_have_three_classes(self):
        for name in workload_names():
            profile = profile_for(name)
            assert set(profile.classes) == {"A", "B", "C"}

    def test_class_sizes_increase(self):
        for name in workload_names():
            profile = profile_for(name)
            a = profile.params("A").total_instructions
            b = profile.params("B").total_instructions
            c = profile.params("C").total_instructions
            assert a < b < c

    def test_mix_normalised(self):
        for name in workload_names():
            mix = profile_for(name).mix
            assert sum(mix.values()) == pytest.approx(1.0)

    def test_instructions_by_class(self):
        profile = profile_for("is")
        by_class = profile.instructions_by_class("A")
        assert sum(by_class.values()) == pytest.approx(
            profile.params("A").total_instructions
        )
        assert by_class[InstrClass.INT_ALU] > by_class[InstrClass.MOV]

    def test_unknown_class(self):
        with pytest.raises(KeyError):
            profile_for("is").params("D")


class TestBuildAndValidate:
    @pytest.mark.parametrize("name", workload_names())
    def test_builds_valid_ir(self, name):
        module = build_workload(name, "A", threads=2, scale=SCALE)
        validate_module(module)
        assert module.entry == "main"

    @pytest.mark.parametrize("name", workload_names())
    def test_compiles_for_both_isas(self, name):
        module = build_workload(name, "A", threads=2, scale=SCALE)
        binary = Toolchain().build(module)
        assert set(binary.isa_names) == {"arm64", "x86_64"}


class TestRunAndVerify:
    @pytest.mark.parametrize("name", workload_names())
    def test_runs_and_verifies(self, name):
        module = build_workload(name, "A", threads=2, scale=SCALE)
        out, code, _ = run_to_completion(module)
        assert code == 0, f"{name} failed verification: {out}"
        assert out[-1] == 1  # verified flag

    @pytest.mark.parametrize("name", workload_names())
    def test_checksum_identical_across_isas(self, name):
        module_a = build_workload(name, "A", threads=2, scale=SCALE)
        module_b = build_workload(name, "A", threads=2, scale=SCALE)
        out_x86, _, _ = run_to_completion(module_a, start=X86)
        out_arm, _, _ = run_to_completion(module_b, start=ARM)
        assert out_x86 == out_arm

    @pytest.mark.parametrize("name", workload_names())
    def test_checksum_survives_migration(self, name):
        ref, _, _ = run_to_completion(
            build_workload(name, "A", threads=2, scale=SCALE)
        )
        migrated, code, _ = run_to_completion(
            build_workload(name, "A", threads=2, scale=SCALE),
            migrate_at=4,
        )
        assert migrated == ref
        assert code == 0

    def test_four_threads(self):
        out, code, _ = run_to_completion(
            build_workload("ep", "A", threads=4, scale=SCALE)
        )
        assert code == 0

    def test_class_b_longer_than_a(self):
        _, _, sys_a = run_to_completion(
            build_workload("is", "A", threads=1, scale=SCALE)
        )
        _, _, sys_b = run_to_completion(
            build_workload("is", "B", threads=1, scale=SCALE)
        )
        assert sys_b.clock.now > sys_a.clock.now

    def test_threads_speed_up_wall_clock(self):
        _, _, sys_1 = run_to_completion(
            build_workload("ep", "A", threads=1, scale=SCALE)
        )
        _, _, sys_4 = run_to_completion(
            build_workload("ep", "A", threads=4, scale=SCALE)
        )
        assert sys_4.clock.now < sys_1.clock.now


class TestIsSerial:
    def test_serial_variant_runs(self):
        module = build_serial("A", scale=SCALE)
        out, code, _ = run_to_completion(module)
        assert code == 0
        assert out[-1] == 1

    def test_serial_migrates_verify_phase(self):
        ref_out, _, _ = run_to_completion(build_serial("A", scale=SCALE))
        module = build_serial("A", scale=SCALE, migrate_before_verify=0)
        out, code, system = run_to_completion(module, start=X86)
        # machine index 0 is the ARM server in the default testbed.
        assert system.machine_order[0] == ARM
        assert code == 0
        assert out == ref_out
        process = list(system.processes.values())
        # thread migrated to ARM before full_verify
        # (the process is reaped, so check via messaging stats instead)
        assert system.messaging.counts.get("migrate.thread.req", 0) == 1
