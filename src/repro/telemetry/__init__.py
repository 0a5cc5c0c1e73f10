"""Run telemetry: power traces, fault/lint/validation logs, and spans.

Wires the machines' power sensors and load counters into 100 Hz
:class:`~repro.sim.trace.TimeSeries` streams — the data behind
Figure 11's traces and every energy integral in Figures 12-13 — and
(opt-in, see ``docs/observability.md``) emits causally linked
:class:`~repro.telemetry.spans.Span` records plus a
:class:`~repro.telemetry.metrics.MetricsRegistry` from every protocol
site in the kernel, datacenter and fault layers.
"""

from repro._lazy import lazy_exports

__getattr__ = lazy_exports(__name__, {
    ".recorder": "PowerRecorder",
})
