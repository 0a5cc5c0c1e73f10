"""Migration-safety static analyzer (``repro lint``).

The runtime checkers in :mod:`repro.validate` only catch a toolchain
bug when a test happens to execute the broken site.  This package
verifies the paper's correctness contracts *statically*, on the
compiled :class:`~repro.compiler.toolchain.MultiIsaBinary`, for every
workload in the registry:

* **stackmap** — recomputed dataflow liveness must equal the emitted
  stackmaps at every call site, on every ISA, with cross-ISA live-set
  and type equivalence per ``site_id``;
* **unwind** — every clobbered callee-saved register has a save slot
  and the CFA chain is derivable from the unwind metadata alone;
* **layout** — one common address-space layout: identical symbol
  addresses, sufficient ``.text`` alias padding, TLS equality, no
  overlaps;
* **coverage** — a static bound on the longest migration-point-free
  path per function against the ~50M-instruction responsiveness
  target;
* **escape** — stack addresses that flow where the pointer fix-up
  cannot follow;
* **ir** — :mod:`repro.ir.validate` problems surfaced as ``MIG001``
  diagnostics, all at once;
* **races** — conflicting access pairs with no common lock and no
  static happens-before edge (``RACE001``), with the TSO-safe but
  ARM-unsafe store→flag publication idiom split out at warning
  severity (``RACE002``);
* **locks** — cycles in the static lock-acquisition order
  (``RACE050``) and mutexes held across blocking operations
  (``RACE051``);
* **sharing** — DSM page-sharing predictions per region
  (``SHR001``-``SHR003``), cross-validated dynamically by
  :mod:`repro.validate.race_checker`.

Diagnostics carry stable ``MIG0xx``/``RACE0xx``/``SHR0xx`` codes
(reference: ``docs/lint.md``)
with error/warning/info severities, render as text or JSON, and can be
suppressed through a checked-in baseline file.  Opt into fail-on-error
linting at link time with ``Toolchain(lint=True)``, or run
``python -m repro lint --all`` over the whole registry.
"""

from repro._lazy import lazy_exports

__getattr__ = lazy_exports(__name__, {
    ".baseline": "Baseline",
    ".diagnostics": "DIAGNOSTIC_CODES Diagnostic LintReport Severity",
    ".driver": "LintError pass_names run_lint",
    ".report": "render_json render_text",
    ".sharing": "predict_sharing",
})
