"""Structured invariant-violation errors, and the one way to raise them.

Every runtime invariant check fails through :func:`fail`: it records
the violation in :func:`~repro.telemetry.validation.default_log` and
raises :class:`InvariantViolation`.  The exception carries the checker
name, the invariant identifier, and a dump of the offending state, so
a violation deep inside a workload run pinpoints the broken mechanism
instead of surfacing as a wrong number three layers later.
"""

import pprint
from typing import Any, Dict, NoReturn, Optional

from repro.telemetry.validation import default_log

_STATE_DUMP_LIMIT = 2400


class InvariantViolation(Exception):
    """A runtime invariant of the simulator was violated.

    Attributes:
        checker:   which checker fired ("dsm", "stack", "cluster", ...).
        invariant: short identifier of the broken invariant.
        detail:    human-readable description of the mismatch.
        state:     dump of the offending state at violation time.
    """

    def __init__(
        self,
        checker: str,
        invariant: str,
        detail: str = "",
        state: Optional[Dict[str, Any]] = None,
    ):
        self.checker = checker
        self.invariant = invariant
        self.detail = detail
        self.state = dict(state or {})
        message = f"[{checker}] invariant {invariant!r} violated"
        if detail:
            message += f": {detail}"
        if self.state:
            dump = pprint.pformat(self.state, width=78, sort_dicts=True)
            if len(dump) > _STATE_DUMP_LIMIT:
                dump = dump[:_STATE_DUMP_LIMIT] + "\n... (state dump truncated)"
            message += "\n--- offending state ---\n" + dump
        super().__init__(message)


def fail(
    checker: str,
    invariant: str,
    detail: str,
    state: Optional[Dict[str, Any]] = None,
) -> NoReturn:
    """Record the violation in the default log, then raise it."""
    violation = InvariantViolation(checker, invariant, detail, state)
    default_log().note_violation(violation)
    raise violation
