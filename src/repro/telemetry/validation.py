"""Telemetry for the invariant-checking layer (:mod:`repro.validate`).

Checkers are silent when everything holds; this log is the evidence
that they actually ran.  It counts checks per checker and keeps a
structured record of every violation observed (normally the violation
is also raised, so the list has at most one entry unless a caller
deliberately continues past failures).
"""

from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Dict, List

from repro.sim.numeric import ordered_sum


@dataclass
class ViolationRecord:
    """One observed invariant violation, flattened for reporting."""

    checker: str
    invariant: str
    detail: str = ""
    state: Dict[str, Any] = field(default_factory=dict)


class ValidationLog:
    """Counts invariant checks and records violations."""

    def __init__(self):
        self.checks: Counter = Counter()
        self.violations: List[ViolationRecord] = []

    def note_check(self, checker: str, count: int = 1) -> None:
        """Count ``count`` executed checks for ``checker``."""
        self.checks[checker] += count

    def note_violation(self, exc) -> None:
        """Record an :class:`~repro.validate.InvariantViolation`."""
        self.violations.append(
            ViolationRecord(
                checker=getattr(exc, "checker", "?"),
                invariant=getattr(exc, "invariant", "?"),
                detail=getattr(exc, "detail", str(exc)),
                state=dict(getattr(exc, "state", {}) or {}),
            )
        )

    def total_checks(self) -> int:
        """Total invariant checks executed across all checkers."""
        return ordered_sum(self.checks.values())

    def summary(self) -> str:
        """One-line check/violation digest for the run report."""
        from repro.render import counter_digest

        return (
            f"{self.total_checks()} invariant checks "
            f"({counter_digest(self.checks)}), "
            f"{len(self.violations)} violations"
        )


_DEFAULT = ValidationLog()


def default_log() -> ValidationLog:
    """The process-wide log the wrapper factories report into."""
    return _DEFAULT


def reset_default_log() -> ValidationLog:
    """Swap in a fresh default log (tests, CLI runs); returns it."""
    global _DEFAULT
    _DEFAULT = ValidationLog()
    return _DEFAULT
