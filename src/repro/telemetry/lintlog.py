"""Telemetry for the static analyzer (:mod:`repro.analyze`).

The run log's counterpart to :mod:`repro.telemetry.validation`: every
lint that runs in a process (link-time via ``Toolchain(lint=True)`` or
the ``repro lint`` command) records its per-pass check counts and its
diagnostics by code here, so runs and lints share one reporting
surface — the CLI prints both summaries side by side.
"""

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List

from repro.render import counter_digest


@dataclass
class LintRunRecord:
    """One lint invocation, flattened for reporting."""

    subject: str
    pass_checks: Dict[str, int] = field(default_factory=dict)
    by_code: Dict[str, int] = field(default_factory=dict)
    errors: int = 0
    warnings: int = 0
    infos: int = 0
    suppressed: int = 0


class LintLog:
    """Aggregates lint reports across a process run."""

    def __init__(self):
        self.pass_checks: Counter = Counter()
        self.by_code: Counter = Counter()
        self.records: List[LintRunRecord] = []

    def note_report(self, report) -> None:
        """Record a :class:`repro.analyze.LintReport`."""
        severities = report.counts_by_severity()
        record = LintRunRecord(
            subject=report.subject,
            pass_checks=dict(report.pass_checks),
            by_code=report.counts_by_code(),
            errors=severities["error"],
            warnings=severities["warning"],
            infos=severities["info"],
            suppressed=len(report.suppressed),
        )
        self.records.append(record)
        self.pass_checks.update(record.pass_checks)
        self.by_code.update(record.by_code)

    def total_checks(self) -> int:
        """Total pass executions across all recorded reports."""
        return sum(self.pass_checks.values())

    def counts_by_family(self) -> Dict[str, int]:
        """Diagnostic counts rolled up by code family (MIG/RACE/SHR).

        The family is the code's alphabetic prefix — the level the CLI
        summaries report at, next to the per-code digest.
        """
        families: Counter = Counter()
        for code, count in self.by_code.items():
            families[code.rstrip("0123456789")] += count
        return dict(families)

    def summary(self) -> str:
        """One-line per-pass / per-code digest for the run report."""
        families = counter_digest(self.counts_by_family())
        return (
            f"{len(self.records)} lint(s), {self.total_checks()} checks "
            f"({counter_digest(self.pass_checks)}); "
            f"diagnostics: {families} "
            f"({counter_digest(self.by_code)})"
        )


_DEFAULT = LintLog()


def default_lint_log() -> LintLog:
    """The process-wide log lints report into."""
    return _DEFAULT
