"""Counters and histograms for the tracing layer.

A :class:`MetricsRegistry` is the aggregate view of what the span
stream records event-by-event: how many DSM faults fired
(``dsm.page_faults``), how long hand-offs took (``migrate.handoff_s``),
how many bytes crossed the wire (``msg.wire_bytes``).  The registry is
owned by a :class:`~repro.telemetry.spans.Tracer` and surfaced as the
``metrics`` field of the cluster's and the serving engine's results
(:class:`~repro.datacenter.energy.ClusterResult`,
:class:`~repro.serving.slo.ServingResult`) and in the CLI run report;
its snapshot format is stable so exported runs stay diffable.

Like the tracer, metrics are passive and deterministic: updating them
never charges simulated time and never consumes randomness.
"""

import math
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple, Union


def quantile(sorted_values: Sequence[float], q: float) -> float:
    """Linear-interpolated quantile of pre-sorted data.

    The single shared quantile implementation: ``analysis.stats`` (box
    plots), the serving SLO accounting (``serving.slo``) and
    :class:`SampleHistogram` all call this, so every percentile in the
    repo is computed the same way.
    """
    if not sorted_values:
        raise ValueError("no data")
    if len(sorted_values) == 1:
        return sorted_values[0]
    pos = q * (len(sorted_values) - 1)
    lo = int(math.floor(pos))
    hi = min(lo + 1, len(sorted_values) - 1)
    frac = pos - lo
    return sorted_values[lo] * (1 - frac) + sorted_values[hi] * frac


def percentiles(
    values: Sequence[float], qs: Sequence[float] = (0.5, 0.99, 0.999)
) -> Tuple[float, ...]:
    """The requested quantiles of ``values`` (sorted once, shared).

    Returns zeros when ``values`` is empty so callers surfacing
    latency summaries on empty runs need no special case.
    """
    if not values:
        return tuple(0.0 for _ in qs)
    data = sorted(values)
    return tuple(quantile(data, q) for q in qs)


@dataclass
class Counter:
    """A monotonically increasing named count."""

    name: str
    value: Union[int, float] = 0

    def inc(self, n: Union[int, float] = 1) -> None:
        """Add ``n`` (which must be non-negative) to the counter."""
        if n < 0:
            raise ValueError(f"counter {self.name} cannot decrease (n={n})")
        self.value += n


@dataclass
class Histogram:
    """Summary statistics over observed values (count/total/min/max)."""

    name: str
    count: int = 0
    total: float = 0.0
    min: float = 0.0
    max: float = 0.0

    def observe(self, value: float) -> None:
        """Record one observation."""
        value = float(value)
        if self.count == 0:
            self.min = value
            self.max = value
        else:
            self.min = min(self.min, value)
            self.max = max(self.max, value)
        self.count += 1
        self.total += value

    @property
    def mean(self) -> float:
        """Arithmetic mean of the observations (0.0 when empty)."""
        return self.total / self.count if self.count else 0.0


@dataclass
class SampleHistogram(Histogram):
    """A histogram that also retains every sample for quantiles.

    Used where tail percentiles matter (serving SLO accounting):
    :meth:`quantile` interpolates over the retained samples with the
    shared :func:`quantile` helper.  Summary fields stay identical to
    :class:`Histogram`, so a :class:`SampleHistogram` drops into any
    snapshot without changing the stable format.
    """

    samples: List[float] = field(default_factory=list)

    def observe(self, value: float) -> None:
        """Record one observation, retaining the sample."""
        super().observe(value)
        self.samples.append(float(value))

    def quantile(self, q: float) -> float:
        """The interpolated ``q``-quantile of the samples (0.0 if empty)."""
        if not self.samples:
            return 0.0
        return quantile(sorted(self.samples), q)


class MetricsRegistry:
    """Create-on-demand registry of named counters and histograms."""

    def __init__(self):
        self._counters: Dict[str, Counter] = {}
        self._histograms: Dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        """The counter called ``name``, created on first use."""
        metric = self._counters.get(name)
        if metric is None:
            if name in self._histograms:
                raise ValueError(f"{name!r} is already a histogram")
            metric = Counter(name)
            self._counters[name] = metric
        return metric

    def histogram(self, name: str) -> Histogram:
        """The histogram called ``name``, created on first use."""
        metric = self._histograms.get(name)
        if metric is None:
            if name in self._counters:
                raise ValueError(f"{name!r} is already a counter")
            metric = Histogram(name)
            self._histograms[name] = metric
        return metric

    def snapshot(self) -> Dict[str, object]:
        """A plain-dict, name-sorted view of every metric.

        Counters map to their value; histograms map to a dict with
        ``count``, ``total``, ``min``, ``max`` and ``mean`` keys.
        """
        out: Dict[str, object] = {}
        for name in sorted(set(self._counters) | set(self._histograms)):
            counter = self._counters.get(name)
            if counter is not None:
                out[name] = counter.value
            else:
                histogram = self._histograms[name]
                out[name] = {
                    "count": histogram.count,
                    "total": histogram.total,
                    "min": histogram.min,
                    "max": histogram.max,
                    "mean": histogram.mean,
                }
        return out

    def render_rows(self):
        """(name, formatted value) pairs for table rendering."""
        rows = []
        for name, value in self.snapshot().items():
            if isinstance(value, dict):
                rows.append(
                    (name,
                     f"n={value['count']} total={value['total']:.6g} "
                     f"mean={value['mean']:.6g}")
                )
            else:
                rows.append((name, f"{value:g}"))
        return rows
