"""Fault-event telemetry.

Every fault the cluster simulator injects or recovers from is recorded
as a :class:`FaultLogEntry` in a per-run :class:`FaultLog`.  The log is
exported verbatim on the :class:`~repro.datacenter.energy.RunResult`
(``fault_trace``) so benchmarks and the CLI can print a timeline and
tests can assert exact recovery behaviour.

Entries are frozen dataclasses and never embed process-global state
(job ids, object reprs), so the same seed and fault schedule produce an
identical trace run-to-run — the determinism guarantee the DES makes
for every other output.
"""

from dataclasses import dataclass
from typing import List, Optional

from repro.render import timeline_line


@dataclass(frozen=True)
class FaultLogEntry:
    """One timestamped fault or recovery action."""

    time: float
    kind: str  # crash | repair | degrade | degrade-end | partition | heal |
    #            evacuate | restart | cross-isa-denied | park | blocked | lost |
    #            suspect | unsuspect | confirm | fence | rejoin |
    #            handoff-begin | handoff-commit | handoff-abort
    node: Optional[str] = None
    detail: str = ""

    def format(self) -> str:
        """One aligned human-readable timeline line."""
        return timeline_line(self.time, self.kind, self.node, self.detail)


class FaultLog:
    """Ordered fault-event trace for one simulation run."""

    def __init__(self):
        self.entries: List[FaultLogEntry] = []

    def record(
        self,
        time: float,
        kind: str,
        node: Optional[str] = None,
        detail: str = "",
    ) -> FaultLogEntry:
        """Append one event to the timeline and return it."""
        entry = FaultLogEntry(time, kind, node, detail)
        self.entries.append(entry)
        return entry

    def kinds(self) -> set:
        """The set of event kinds that occurred."""
        return {entry.kind for entry in self.entries}

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)
