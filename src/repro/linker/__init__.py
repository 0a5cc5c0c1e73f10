"""Multi-ISA linking: common address-space layout (Section 5.2.2).

The paper's gold-based pipeline plus the "alignment tool" (a Java
program reading symbol sizes from trial links and emitting per-ISA
linker scripts that pin every symbol to the same virtual address) are
reproduced here:

* :mod:`repro.linker.elf` — object-file model: sections and symbols
  with per-ISA sizes;
* :mod:`repro.linker.alignment` — the alignment engine: progressive
  address assignment, padding function symbols to the maximum size
  across ISAs;
* :mod:`repro.linker.linker_script` — renders the per-ISA scripts;
* :mod:`repro.linker.tls` — common thread-local-storage layout (all
  ISAs adopt the x86-64 TLS symbol mapping, as the modified musl does);
* :mod:`repro.linker.layout` — the virtual memory map shared by loader,
  heap and stacks.
"""

from repro._lazy import lazy_exports

__getattr__ = lazy_exports(__name__, {
    ".alignment": "align_symbols",
    ".elf": "IsaObject Symbol",
    ".layout": "DEFAULT_VM_MAP",
    ".linker_script": "render_linker_script",
    ".tls": "build_tls_layout",
})
