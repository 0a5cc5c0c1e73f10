"""Critical-path decomposition of traced migrations.

Re-derives the paper's migration-latency breakdown (stack
transformation vs. kernel hand-off vs. post-migration DSM pulls,
Figs. 10-11) purely from a span trace — the same decomposition the
instrumented sites charge into the cost model, recovered from
observability data alone.  ``docs/observability.md`` documents the
methodology; ``repro trace --critical-path`` prints the table.
"""

from dataclasses import dataclass, field
from typing import Dict, List

from repro.render import Table
from repro.sim.numeric import ordered_sum

#: Phase-child names that count as kernel hand-off time.
_HANDOFF_CHILDREN = (
    "migrate.transfer",
    "migrate.publish",
    "migrate.commit",
    "migrate.abort",
    "migrate.promote",
)


@dataclass
class MigrationSegments:
    """One migration's end-to-end latency, decomposed from its spans."""

    span_id: int
    src: str
    dst: str
    start_s: float
    total_s: float
    transform_s: float = 0.0
    handoff_s: float = 0.0
    #: Summed duration of flow-linked DSM spans *after* this migration
    #: (the residual page-pull tail; wall-clock, not part of total_s).
    dsm_tail_s: float = 0.0
    dsm_tail_pages: int = 0
    aborted: bool = False
    resumed: bool = False
    attrs: Dict[str, object] = field(default_factory=dict)


def migration_critical_path(spans) -> List[MigrationSegments]:
    """Decompose every ``migrate`` root span in ``spans``.

    The phase children tile each root exactly, so
    ``transform_s + handoff_s == total_s`` (within float rounding) for
    every returned record; the DSM tail is accounted separately because
    it overlaps resumed execution (no stop-the-world).
    """
    roots = [
        s for s in spans if s.name == "migrate" and s.category == "migrate"
    ]
    by_root: Dict[int, MigrationSegments] = {}
    out: List[MigrationSegments] = []
    for root in roots:
        seg = MigrationSegments(
            span_id=root.span_id,
            src=str(root.attrs.get("src", root.track)),
            dst=str(root.attrs.get("dst", "?")),
            start_s=root.start_s,
            total_s=root.duration_s,
            aborted=bool(root.attrs.get("aborted", False)),
            resumed=bool(root.attrs.get("resumed", False)),
            attrs=dict(root.attrs),
        )
        by_root[root.span_id] = seg
        out.append(seg)
    for span in spans:
        parent = by_root.get(span.parent_id) if span.parent_id else None
        if parent is not None:
            if span.name == "migrate.transform":
                parent.transform_s += span.duration_s
            elif span.name in _HANDOFF_CHILDREN:
                parent.handoff_s += span.duration_s
            continue
        if span.category != "dsm":
            continue
        cause = by_root.get(span.attrs.get("flow"))
        if cause is not None:
            cause.dsm_tail_s += span.duration_s
            cause.dsm_tail_pages += int(
                span.attrs.get("pages", 1 if span.name == "dsm.page" else 0)
            )
    return out


def total_transform_s(segments: List[MigrationSegments]) -> float:
    """Summed stack-transformation seconds across migrations."""
    return ordered_sum(s.transform_s for s in segments)


def total_handoff_s(segments: List[MigrationSegments]) -> float:
    """Summed kernel hand-off seconds across migrations."""
    return ordered_sum(s.handoff_s for s in segments)


def render_critical_path(segments: List[MigrationSegments]) -> str:
    """ASCII breakdown table, one row per migration plus a total row."""
    table = Table(
        "migration critical path",
        ["migration", "start (s)", "transform (us)", "hand-off (us)",
         "total (us)", "dsm tail (us)", "tail pages", "outcome"],
    )
    for seg in segments:
        outcome = "committed"
        if seg.aborted:
            outcome = "aborted"
        elif seg.resumed:
            outcome = "promoted"
        table.add_row(
            f"{seg.src}->{seg.dst}",
            f"{seg.start_s:.6f}",
            f"{seg.transform_s * 1e6:.1f}",
            f"{seg.handoff_s * 1e6:.1f}",
            f"{seg.total_s * 1e6:.1f}",
            f"{seg.dsm_tail_s * 1e6:.1f}",
            seg.dsm_tail_pages,
            outcome,
        )
    if segments:
        table.add_row(
            "TOTAL",
            "",
            f"{total_transform_s(segments) * 1e6:.1f}",
            f"{total_handoff_s(segments) * 1e6:.1f}",
            f"{ordered_sum(s.total_s for s in segments) * 1e6:.1f}",
            f"{ordered_sum(s.dsm_tail_s for s in segments) * 1e6:.1f}",
            ordered_sum(s.dsm_tail_pages for s in segments),
            "",
        )
    return table.render()
