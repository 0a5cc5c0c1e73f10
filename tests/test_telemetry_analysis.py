"""Tests for the telemetry recorder and analysis helpers."""

import pytest

from repro.analysis import five_number_summary, geomean
from repro.compiler import Toolchain
from repro.kernel import boot_testbed
from repro.render import Table, bar, format_series
from repro.runtime.execution import ExecutionEngine
from repro.telemetry import PowerRecorder

from tests.helpers import X86, simple_sum_module


class TestPowerRecorder:
    def _traced_run(self):
        from tests.helpers import float_module

        system = boot_testbed()
        recorder = PowerRecorder(system, rate_hz=10_000)
        binary = Toolchain().build(float_module())
        process = system.exec_process(binary, X86)
        # A small batch forces many scheduling slices, so the sampler
        # observes the machine while the workload is actually running.
        ExecutionEngine(system, process, sampler=recorder.sampler, batch=4).run()
        recorder.finish()
        return recorder, system

    def test_traces_recorded_per_machine(self):
        recorder, system = self._traced_run()
        for name in system.machines:
            traces = recorder.machine(name)
            assert len(traces.cpu_power) > 0
            assert len(traces.load) == len(traces.cpu_power)

    def test_energy_positive_and_system_above_cpu(self):
        recorder, _ = self._traced_run()
        assert recorder.total_cpu_energy() > 0
        assert recorder.total_system_energy() > recorder.total_cpu_energy()

    def test_busy_machine_draws_more(self):
        recorder, _ = self._traced_run()
        x86 = recorder.machine(X86)
        arm = recorder.machine("arm-server")
        # The x86 machine ran the workload; the ARM machine idled.
        assert x86.cpu_power.max() > arm.cpu_power.max()

    def test_load_trace_bounded(self):
        recorder, _ = self._traced_run()
        load = recorder.machine(X86).load
        assert all(0.0 <= v <= 100.0 for v in load.values)
        assert load.max() > 0


class TestStats:
    def test_five_number(self):
        s = five_number_summary([1, 2, 3, 4, 5])
        assert s.minimum == 1 and s.maximum == 5
        assert s.median == 3
        assert s.q1 == 2 and s.q3 == 4

    def test_five_number_single(self):
        s = five_number_summary([7.0])
        assert s.minimum == s.median == s.maximum == 7.0

    def test_five_number_empty(self):
        with pytest.raises(ValueError):
            five_number_summary([])

    def test_geomean(self):
        assert geomean([1, 100]) == pytest.approx(10.0)
        assert geomean([]) == 0.0


class TestReport:
    def test_table_renders(self):
        t = Table("Results", ["bench", "value"])
        t.add_row("is", 1.234)
        t.add_row("cg", 100000.0)
        text = t.render()
        assert "Results" in text
        assert "is" in text and "1.234" in text

    def test_table_rejects_bad_row(self):
        t = Table("T", ["a", "b"])
        with pytest.raises(ValueError):
            t.add_row("only-one")

    def test_bar_scaling(self):
        assert bar(5, 10, width=10) == "#####"
        assert bar(20, 10, width=10) == "#" * 10
        assert bar(0, 10) == ""

    def test_format_series(self):
        text = format_series("Slowdown", ["a", "b"], [2.0, 50.0], unit="x", log=True)
        assert "Slowdown" in text
        assert "a" in text and "b" in text
        # log scaling: the 50x bar is longer but not 25x longer.
        bars = [line.count("#") for line in text.splitlines()[1:]]
        assert bars[1] > bars[0] > 0
        assert bars[1] < bars[0] * 25
