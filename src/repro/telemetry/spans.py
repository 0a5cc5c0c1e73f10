"""Causally linked span tracing over the DES clock.

The paper's headline numbers — migration latency decomposed into stack
transformation, page pulls and kernel hand-off (Figs. 10-13) — are
exactly what a production migration stack must observe continuously.
This module provides the observation layer: a :class:`Tracer` that the
protocol sites (``kernel/migration.py``, ``kernel/dsm.py``,
``kernel/messages.py``, ``kernel/syscall.py``,
``datacenter/cluster.py``, ``faults/detector.py``) emit
:class:`Span` records into.

Design rules:

* **Zero overhead when off.**  Every site guards on ``tracer is None``
  (one attribute read); with no tracer attached, runs are bit-identical
  to the seed.  Opt in via ``PopcornSystem(tracer=...)`` /
  ``ClusterSimulator(tracer=...)`` or ``REPRO_TRACE=1``.
* **Deterministic.**  Span ids are a counter, timestamps come from the
  simulated clock (never wall time), and no randomness is consumed —
  the same seed produces an identical trace, and tracing never charges
  simulated time, so traced and untraced runs produce identical
  results.
* **Causal.**  Spans carry ``trace_id`` / ``span_id`` / ``parent_id``.
  A parented span must nest inside its parent's interval
  (:func:`check_causality` enforces this); causality that does *not*
  nest in time — e.g. the post-migration page-pull burst caused by a
  migration that already committed — is expressed with the ``flow``
  attribute (the causing span's id) instead of parentage, and exported
  as Chrome-trace flow arrows.

See ``docs/observability.md`` for the span taxonomy and the attribute
reference.
"""

import itertools
import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.telemetry.metrics import MetricsRegistry

_TRUTHY = ("1", "true", "yes", "on")

#: Span categories emitted by the built-in instrumentation sites.
CATEGORIES = (
    "migrate", "dsm", "msg", "sys", "sched", "fault", "detector",
    "serve", "emul", "managed",
)


@dataclass
class Span:
    """One timed, causally linked interval (or instant) of a run."""

    trace_id: str
    span_id: int
    parent_id: Optional[int]
    name: str
    category: str
    start_s: float
    #: ``None`` while the span is still open; equal to ``start_s`` for
    #: instant (zero-duration) spans.
    end_s: Optional[float]
    #: Display track (a machine/kernel name, ``net``, ``cluster``, ...).
    track: str
    attrs: Dict[str, object] = field(default_factory=dict)

    @property
    def duration_s(self) -> float:
        """The span's length in simulated seconds (0.0 while open)."""
        if self.end_s is None:
            return 0.0
        return self.end_s - self.start_s

    def key(self) -> tuple:
        """A hashable, order-stable digest (determinism tests)."""
        return (
            self.trace_id,
            self.span_id,
            self.parent_id,
            self.name,
            self.category,
            round(self.start_s, 12),
            None if self.end_s is None else round(self.end_s, 12),
            self.track,
            tuple(sorted((k, repr(v)) for k, v in self.attrs.items())),
        )


class Tracer:
    """Collects spans and metrics for one run.

    The tracer is passive: it never advances the clock, never charges
    time, and never consumes randomness.  Instrumentation sites either
    pass explicit ``start_s``/``duration_s`` (exact, derived from the
    cost model) or let the tracer stamp the bound simulated clock.
    """

    def __init__(self, trace_id: str = "t1"):
        self.trace_id = trace_id
        self.spans: List[Span] = []
        self.metrics = MetricsRegistry()
        self._ids = itertools.count(1)
        self._stack: List[Span] = []
        self._clock = None
        #: Attributes merged into every emitted span until changed —
        #: the execution engine sets the current thread's identity here
        #: so spans emitted from deep in the DSM carry a ``tid``.
        self._context: Dict[str, object] = {}

    # ------------------------------------------------------------- time

    def bind_clock(self, clock) -> None:
        """Use ``clock.now`` as the default timestamp source."""
        self._clock = clock

    def now(self) -> float:
        """Current simulated time (0.0 when no clock is bound)."""
        clock = self._clock
        return clock.now if clock is not None else 0.0

    # ---------------------------------------------------------- context

    def set_context(self, **attrs) -> None:
        """Replace the ambient attributes merged into emitted spans."""
        self._context = {k: v for k, v in attrs.items() if v is not None}

    # --------------------------------------------------------- emission

    def _make(self, name, category, start_s, end_s, track, parent_id, attrs):
        merged = dict(self._context)
        merged.update(attrs)
        span = Span(
            trace_id=self.trace_id,
            span_id=next(self._ids),
            parent_id=parent_id,
            name=name,
            category=category,
            start_s=start_s,
            end_s=end_s,
            track=track,
            attrs=merged,
        )
        self.spans.append(span)
        return span

    def begin(
        self,
        name: str,
        category: str,
        start_s: Optional[float] = None,
        track: str = "main",
        **attrs,
    ) -> Span:
        """Open a span and push it on the nesting stack.

        Children opened (or completed with ``parent=...``) before the
        matching :meth:`end` nest under it; :meth:`annotate_current`
        attaches attributes to it.
        """
        start = self.now() if start_s is None else start_s
        parent = self._stack[-1].span_id if self._stack else None
        span = self._make(name, category, start, None, track, parent, attrs)
        self._stack.append(span)
        return span

    def end(self, span: Span, end_s: Optional[float] = None, **attrs) -> Span:
        """Close ``span`` (popping it from the stack if it is open there)."""
        span.end_s = self.now() if end_s is None else end_s
        if span.end_s < span.start_s:
            span.end_s = span.start_s
        span.attrs.update(attrs)
        if self._stack and self._stack[-1] is span:
            self._stack.pop()
        elif span in self._stack:
            self._stack.remove(span)
        return span

    def complete(
        self,
        name: str,
        category: str,
        start_s: float,
        duration_s: float,
        track: str = "main",
        parent: Optional[Span] = None,
        **attrs,
    ) -> Span:
        """Record a closed span with an exact start and duration."""
        parent_id = parent.span_id if parent is not None else None
        return self._make(
            name, category, start_s, start_s + max(duration_s, 0.0),
            track, parent_id, attrs,
        )

    def instant(
        self,
        name: str,
        category: str,
        ts: Optional[float] = None,
        track: str = "main",
        parent: Optional[Span] = None,
        **attrs,
    ) -> Span:
        """Record a zero-duration marker span."""
        when = self.now() if ts is None else ts
        parent_id = parent.span_id if parent is not None else None
        return self._make(name, category, when, when, track, parent_id, attrs)

    def annotate_current(self, **attrs) -> None:
        """Attach attributes to the innermost open span (if any).

        Used by the chaos injector and the invariant checkers so fault
        and violation annotations land on the protocol span that was
        active when they fired.
        """
        if self._stack:
            self._stack[-1].attrs.update(attrs)

    # -------------------------------------------------------- inspection

    def by_category(self) -> Dict[str, int]:
        """Span counts per category, sorted by category name."""
        counts: Dict[str, int] = {}
        for span in self.spans:
            counts[span.category] = counts.get(span.category, 0) + 1
        return dict(sorted(counts.items()))

    def open_spans(self) -> List[Span]:
        """Spans begun but never ended (should be empty after a run)."""
        return [s for s in self.spans if s.end_s is None]


def env_enabled() -> bool:
    """Is ``REPRO_TRACE`` set to a truthy value?"""
    return os.environ.get("REPRO_TRACE", "").strip().lower() in _TRUTHY


def maybe_tracer() -> Optional[Tracer]:
    """A fresh :class:`Tracer` when ``REPRO_TRACE=1``, else ``None``."""
    return Tracer() if env_enabled() else None


def check_causality(spans: List[Span], eps: float = 1e-9) -> List[str]:
    """Validate the causal structure of a span list.

    Returns a list of human-readable problems (empty when the trace is
    well formed): every span must have ``end >= start``, every parented
    span's parent must exist in the same trace, and the child interval
    must nest inside the parent's interval (within ``eps``).  ``flow``
    links must name an existing span that *starts no later* than the
    linked span (causes precede effects).
    """
    problems: List[str] = []
    by_id = {s.span_id: s for s in spans}
    for span in spans:
        label = f"span {span.span_id} ({span.name})"
        if span.end_s is None:
            problems.append(f"{label} was never closed")
            continue
        if span.end_s < span.start_s - eps:
            problems.append(f"{label} ends before it starts")
        if span.parent_id is not None:
            parent = by_id.get(span.parent_id)
            if parent is None:
                problems.append(f"{label} has missing parent {span.parent_id}")
            else:
                if parent.trace_id != span.trace_id:
                    problems.append(f"{label} crosses traces to its parent")
                if parent.end_s is not None and (
                    span.start_s < parent.start_s - eps
                    or span.end_s > parent.end_s + eps
                ):
                    problems.append(
                        f"{label} does not nest within parent "
                        f"{parent.span_id} ({parent.name})"
                    )
        flow = span.attrs.get("flow")
        if flow is not None:
            cause = by_id.get(flow)
            if cause is None:
                problems.append(f"{label} flows from missing span {flow}")
            elif cause.start_s > span.start_s + eps:
                problems.append(
                    f"{label} flows from span {flow} that starts later"
                )
    return problems
