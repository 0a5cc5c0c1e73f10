"""repro — an executable reproduction of "Breaking the Boundaries in
Heterogeneous-ISA Datacenters" (Barbalace et al., ASPLOS 2017).

The package rebuilds the paper's entire stack as a faithful simulation:

* :mod:`repro.ir` / :mod:`repro.compiler` / :mod:`repro.linker` — the
  multi-ISA toolchain (migration points, per-ABI frame layouts,
  stackmaps, symbol alignment, common TLS);
* :mod:`repro.runtime` — the execution engine and the stack
  transformation / register mapping migration runtime;
* :mod:`repro.kernel` — the replicated-kernel OS with heterogeneous
  OS-containers, hDSM, the heterogeneous binary loader and the thread
  migration service;
* :mod:`repro.machine` / :mod:`repro.telemetry` — the ARM + x86
  testbed with power sensors;
* :mod:`repro.emulation` / :mod:`repro.managed` — the QEMU and PadMig
  baselines;
* :mod:`repro.workloads` — NPB, bzip2smp, Verus and Redis-like
  benchmarks;
* :mod:`repro.datacenter` — the scheduling / energy experiments.

Quickstart::

    from repro import Toolchain, boot_testbed, ExecutionEngine
    from repro.workloads import build_workload

    binary = Toolchain().build(build_workload("is", "A", threads=4))
    system = boot_testbed()
    process = system.exec_process(binary, "x86-server")
    system.request_migration(process, "arm-server")  # threads migrate
    ExecutionEngine(system, process).run()
"""

from repro._lazy import lazy_exports

__version__ = "1.0.0"

__getattr__ = lazy_exports(__name__, {
    ".compiler.toolchain": "Toolchain",
    ".kernel.testbed": "boot_testbed",
    ".runtime.execution": "EngineHooks ExecutionEngine",
})
