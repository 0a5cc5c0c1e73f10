"""Diagnostic model for the migration-safety static analyzer.

Every finding is a :class:`Diagnostic` with a stable ``MIG0xx`` code, a
severity, and enough location detail (ISA, function, site, symbol) to
fingerprint it for baseline suppression.  The codes are the contract
between the lint passes, the reporters, ``docs/lint.md`` and the CI
baseline; never renumber an existing code.
"""

import enum
from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.sim.numeric import ordered_sum


class Severity(enum.Enum):
    """How bad a diagnostic is.

    ``ERROR`` means a migration attempted through the flagged artifact
    would lose or corrupt state; ``WARNING`` means wasted work or a
    responsiveness hazard; ``INFO`` is a migratability note.
    """

    ERROR = "error"
    WARNING = "warning"
    INFO = "info"

    def __str__(self) -> str:
        return self.value


# Stable code registry: code -> one-line contract it enforces.  The
# long-form reference (one paragraph per code, with the paper contract)
# lives in docs/lint.md; tests assert the two stay in sync.
DIAGNOSTIC_CODES: Dict[str, str] = {
    "MIG001": "IR module is structurally invalid (repro.ir.validate)",
    "MIG002": "function is unmigratable (library / inline asm) and is "
              "skipped by migration-safety passes",
    "MIG010": "live variable missing from an emitted stackmap",
    "MIG011": "dead variable recorded in a stackmap (wasted transform work)",
    "MIG012": "stackmap live sets or value types differ across ISAs at a "
              "shared site",
    "MIG013": "call site without a stackmap, or stackmap for a site that "
              "does not exist",
    "MIG014": "stackmap location contradicts register allocation or frame "
              "layout",
    "MIG015": "pointer-typed stackmap entry not flagged for stack-pointer "
              "fix-up",
    "MIG020": "clobbered callee-saved register has no recorded save slot",
    "MIG021": "save slot recorded for a register the function never "
              "clobbers, or for a caller-saved register",
    "MIG022": "CFA not derivable: frame size, alignment, anchor depths or "
              "slot placement invalid",
    "MIG023": "unwind metadata disagrees with the frame layout it was "
              "derived from",
    "MIG030": "symbol virtual address diverges across ISAs or from the "
              "common layout",
    "MIG031": "TLS layout not identical across ISAs or not variant-2 "
              "canonical",
    "MIG032": "symbols overlap in the common address-space layout",
    "MIG033": "symbol misaligned or section overflows into the next "
              "region of the VM map",
    "MIG034": ".text alias padding smaller than an ISA's code size",
    "MIG040": "point-free path exceeds the migration responsiveness "
              "target gap",
    "MIG041": "loop executes a work burst with no migration point on the "
              "cycle",
    "MIG042": "loop has no migration point (statically unbounded "
              "repetition)",
    "MIG050": "stack address flows into a heap or global store the "
              "pointer fix-up cannot track",
    "MIG051": "stack-derived value of non-pointer type live across a "
              "migration site (fix-up blind spot)",
    "RACE001": "conflicting accesses with no common lock and no "
               "happens-before edge (racy on any memory model)",
    "RACE002": "store-then-flag publication without a barrier: "
               "race-free under x86-TSO, racy under ARM after a "
               "migration",
    "RACE050": "cycle in the static lock-acquisition order "
               "(deadlock risk)",
    "RACE051": "mutex held across a blocking synchronisation "
               "operation (barrier_wait/join/cond_wait)",
    "SHR001": "region is concurrently write-shared: its DSM pages "
              "ping-pong between kernels",
    "SHR002": "region is shared but all conflicting accesses are "
              "happens-before ordered (pages migrate, never "
              "concurrently)",
    "SHR003": "thread partition stride below the DSM page size "
              "(predicted false sharing)",
}


@dataclass(frozen=True)
class Diagnostic:
    """One finding of one lint pass."""

    code: str
    severity: Severity
    message: str
    pass_name: str = ""
    isa: str = ""        # empty for ISA-independent findings
    function: str = ""
    site: Optional[int] = None
    symbol: str = ""

    def __post_init__(self):
        if self.code not in DIAGNOSTIC_CODES:
            raise ValueError(f"unregistered diagnostic code {self.code}")

    @property
    def fingerprint(self) -> str:
        """Stable identity for baseline suppression (message excluded —
        wording may improve without re-triaging)."""
        site = "" if self.site is None else str(self.site)
        return "|".join(
            (self.code, self.isa, self.function, site, self.symbol)
        )

    def format(self) -> str:
        where = [p for p in (self.isa, self.function) if p]
        if self.site is not None:
            where.append(f"site {self.site}")
        if self.symbol:
            where.append(self.symbol)
        location = ":".join(where) or "<module>"
        return (
            f"{self.code} {self.severity.value:<7} [{location}] {self.message}"
        )

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.format()


class LintReport:
    """Accumulates diagnostics and per-pass check counts for one lint."""

    def __init__(self, subject: str = ""):
        self.subject = subject
        self.diagnostics: List[Diagnostic] = []
        self.pass_checks: Counter = Counter()
        self.suppressed: List[Diagnostic] = []

    # ------------------------------------------------------- recording

    def add(self, diagnostic: Diagnostic) -> None:
        self.diagnostics.append(diagnostic)

    def emit(self, code: str, severity: Severity, message: str, **where) -> None:
        self.add(Diagnostic(code=code, severity=severity, message=message, **where))

    def note_checks(self, pass_name: str, count: int = 1) -> None:
        """Record that ``pass_name`` performed ``count`` checks — the
        evidence a clean report means 'verified', not 'skipped'."""
        self.pass_checks[pass_name] += count

    # --------------------------------------------------------- queries

    def by_severity(self, severity: Severity) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.severity is severity]

    @property
    def errors(self) -> List[Diagnostic]:
        return self.by_severity(Severity.ERROR)

    @property
    def error_count(self) -> int:
        return len(self.errors)

    def counts_by_code(self) -> Dict[str, int]:
        return dict(Counter(d.code for d in self.diagnostics))

    def counts_by_severity(self) -> Dict[str, int]:
        counts = Counter(d.severity.value for d in self.diagnostics)
        return {sev.value: counts.get(sev.value, 0) for sev in Severity}

    def total_checks(self) -> int:
        return ordered_sum(self.pass_checks.values())

    def apply_baseline(self, baseline) -> None:
        """Move baseline-suppressed diagnostics out of the active list."""
        keep: List[Diagnostic] = []
        for diag in self.diagnostics:
            if baseline.suppresses(diag):
                self.suppressed.append(diag)
            else:
                keep.append(diag)
        self.diagnostics = keep

    def summary(self) -> str:
        from repro.render import counter_digest

        sev = self.counts_by_severity()
        passes = counter_digest(self.pass_checks, empty="")
        head = (
            f"{len(self.diagnostics)} diagnostics "
            f"({sev['error']} errors, {sev['warning']} warnings, "
            f"{sev['info']} info)"
        )
        if self.suppressed:
            head += f", {len(self.suppressed)} baseline-suppressed"
        return f"{head}; {self.total_checks()} checks ({passes or 'none'})"
