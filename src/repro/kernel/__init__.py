"""The replicated-kernel operating system (Popcorn Linux model).

One kernel per machine, no shared state, everything over messages
(:mod:`repro.kernel.messages`).  Distributed services present the
single-environment illusion to heterogeneous OS-containers:

* :mod:`repro.kernel.dsm` — heterogeneous distributed shared memory;
* :mod:`repro.kernel.loader` — the heterogeneous binary loader
  (per-ISA ``.text`` aliased at the same virtual addresses);
* :mod:`repro.kernel.migration` — the thread migration service and
  heterogeneous continuations;
* :mod:`repro.kernel.namespaces` — heterogeneous OS-containers;
* :mod:`repro.kernel.filesystem` — the replicated VFS namespace;
* :mod:`repro.kernel.syscall` — the narrow syscall interface;
* :mod:`repro.kernel.kernel` — the per-machine kernel and
  :class:`~repro.kernel.kernel.PopcornSystem`, the system of kernels
  that owns process lifecycle and crash recovery;
* :mod:`repro.kernel.testbed` — boot helpers.
"""

from repro._lazy import lazy_exports

__getattr__ = lazy_exports(__name__, {
    ".kernel": "PopcornSystem",
    ".testbed": "boot_testbed",
})
