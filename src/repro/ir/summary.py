"""Per-block cost summaries — the metadata behind fast-forward execution.

The exact interpreter charges every machine instruction individually
from ``MachineInstr.counts``.  The analytical fast-forward engine
(:mod:`repro.runtime.fastforward`) instead precomputes, per basic
block, the per-instruction machine-instruction counts, the aggregate
per-:class:`InstrClass` totals, and the positions of *events* (calls,
returns, syscalls, migration points, branches) that bound the
straight-line segments it evaluates in closed form.

Cycle costs for a concrete CPU are derived from a summary exactly as
the interpreter derives them — :meth:`CpuModel.cycles_for` applied per
instruction, never reassociated — so a summary that matches the IR
reproduces the interpreter's floating-point arithmetic bit for bit.  A
summary that does *not* match the IR (stale, corrupted) is detectable:
under ``REPRO_VALIDATE=1`` the fast engine replays every segment
against the interpreter's own cycle tables and raises
``FastForwardDivergence`` on the first mismatch.
"""

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.ir.instructions import Br, CBr, Call, MigPoint, Ret, Syscall, Work
from repro.isa.isa import InstrClass

# Event kinds recorded in BlockSummary.events.
EVENT_CALL = "call"
EVENT_RET = "ret"
EVENT_SYSCALL = "syscall"
EVENT_MIGPOINT = "migpoint"
EVENT_BR = "br"
EVENT_CBR = "cbr"

_EVENT_OF = {
    Call: EVENT_CALL,
    Ret: EVENT_RET,
    Syscall: EVENT_SYSCALL,
    MigPoint: EVENT_MIGPOINT,
    Br: EVENT_BR,
    CBr: EVENT_CBR,
}


@dataclass
class BlockSummary:
    """Precomputed cost metadata for one lowered basic block."""

    label: str
    # Per-instruction machine-instruction counts, copied from the
    # lowered MachineInstrs — mutating a summary never mutates the IR,
    # which is what lets the cross-validator catch a corrupted one.
    counts: List[Dict[InstrClass, float]]
    # Aggregate machine-instruction counts over the whole block.
    totals: Dict[InstrClass, float] = field(default_factory=dict)
    # (position, event kind) for every segment-bounding instruction.
    events: List[Tuple[int, str]] = field(default_factory=list)
    # Positions of Work instructions (dynamic, data-dependent costs).
    work_positions: List[int] = field(default_factory=list)

    def cycles_per_instr(self, cpu) -> List[float]:
        """Static cycle cost of each instruction on ``cpu``.

        Element ``i`` is ``cpu.cycles_for(self.counts[i])`` — the same
        per-instruction sum the interpreter's cycle tables use, in the
        same class order, so the floats are identical.
        """
        return [cpu.cycles_for(c) for c in self.counts]


def summarize_block(label: str, mis) -> BlockSummary:
    """Build the summary for one block's lowered instructions."""
    counts: List[Dict[InstrClass, float]] = []
    totals: Dict[InstrClass, float] = {}
    events: List[Tuple[int, str]] = []
    work_positions: List[int] = []
    for pos, mi in enumerate(mis):
        counts.append(dict(mi.counts))
        for cls, n in mi.counts.items():
            totals[cls] = totals.get(cls, 0.0) + n
        kind = _EVENT_OF.get(type(mi.ir))
        if kind is not None:
            events.append((pos, kind))
        elif type(mi.ir) is Work:
            work_positions.append(pos)
    return BlockSummary(
        label=label,
        counts=counts,
        totals=totals,
        events=events,
        work_positions=work_positions,
    )


def block_summaries(mf) -> Dict[str, BlockSummary]:
    """Summaries for every block of a machine function, cached on it."""
    cached = getattr(mf, "_block_summaries", None)
    if cached is None:
        cached = {
            label: summarize_block(label, mis)
            for label, mis in mf.blocks.items()
        }
        mf._block_summaries = cached
    return cached


def invalidate_summaries(mf) -> None:
    """Drop cached summaries *and* code compiled from them.

    Tests use this to force recompilation after mutating a summary;
    the engine never mutates summaries itself.
    """
    if hasattr(mf, "_block_summaries"):
        del mf._block_summaries
    if hasattr(mf, "_fast_segments"):
        del mf._fast_segments
