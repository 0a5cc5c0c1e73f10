"""Nested-node sampling: real PopcornSystems inside the cluster DES.

The cluster and fleet simulators normally price a job with the analytic
:func:`repro.datacenter.job.job_duration` model.  For a *sampled*
subset of nodes they can instead nest a real single-machine
:class:`~repro.kernel.kernel.PopcornSystem`: build the workload binary
with the toolchain at a reduced scale, run it to completion on the
fast-forward engine, and extrapolate the measured simulated time back
to full size.  The measurement exercises the whole kernel stack —
loader, TLS, DSM, syscalls — so drift between the analytic model and
the executable model surfaces as a divergence on the sampled nodes.

Measurements are memoized per ``(bench, class, threads, isa)``, so a
fleet with thousands of nested job completions pays for each distinct
workload/ISA pair once.
"""

from typing import Dict, Tuple

from repro.datacenter.job import JobSpec

#: How far a nested run shrinks both the migration-point target gap and
#: the workload's dynamic instruction count; the full-size duration is
#: the measured simulated time divided by ``SCALE`` (the workload
#: builders scale the timed region linearly).  0.01 keeps one
#: measurement around a tenth of a wall-clock second.
SCALE = 0.01


class NestedNodeSampler:
    """Measures job durations by running real workloads on one machine,
    at :data:`SCALE` on the fast-forward engine."""

    def __init__(self):
        self._memo: Dict[Tuple[str, str, int, str], float] = {}

    def duration(self, spec: JobSpec, isa: str) -> float:
        """Full-size duration of ``spec`` on a machine of ``isa``."""
        key = (spec.bench, spec.cls, spec.threads, isa)
        try:
            return self._memo[key]
        except KeyError:
            measured = self._measure(spec, isa)
            self._memo[key] = measured
            return measured

    def _measure(self, spec: JobSpec, isa: str) -> float:
        from repro.compiler import Toolchain
        from repro.compiler.migration_points import scaled_target_gap
        from repro.kernel.testbed import boot_single
        from repro.runtime.execution import make_engine
        from repro.workloads import build_workload

        toolchain = Toolchain(target_gap=scaled_target_gap(SCALE))
        binary = toolchain.build(
            build_workload(spec.bench, spec.cls, spec.threads, SCALE)
        )
        system = boot_single(isa)
        process = system.exec_process(binary, system.machine_order[0])
        engine = make_engine(system, process, engine="fast")
        engine.run()
        if process.exit_code != 0:
            raise RuntimeError(
                f"nested run of {spec} on {isa} failed "
                f"(exit {process.exit_code})"
            )
        return system.clock.now / SCALE
