"""Run telemetry: power traces, fault/lint/validation logs, and spans.

Wires the machines' power sensors and load counters into 100 Hz
:class:`~repro.sim.trace.TimeSeries` streams — the data behind
Figure 11's traces and every energy integral in Figures 12-13 — and
(opt-in, see ``docs/observability.md``) emits causally linked
:class:`~repro.telemetry.spans.Span` records plus a
:class:`~repro.telemetry.metrics.MetricsRegistry` from every protocol
site in the kernel, datacenter and fault layers.
"""

from repro.telemetry.faultlog import FaultLog, FaultLogEntry
from repro.telemetry.lintlog import (
    LintLog,
    LintRunRecord,
    default_lint_log,
)
from repro.telemetry.metrics import Counter, Histogram, MetricsRegistry
from repro.telemetry.recorder import MachineTraces, PowerRecorder
from repro.telemetry.spans import Span, Tracer, check_causality, maybe_tracer
from repro.telemetry.validation import (
    ValidationLog,
    ViolationRecord,
    default_log,
    reset_default_log,
)

__all__ = [
    "PowerRecorder",
    "MachineTraces",
    "FaultLog",
    "FaultLogEntry",
    "LintLog",
    "LintRunRecord",
    "ValidationLog",
    "ViolationRecord",
    "Span",
    "Tracer",
    "Counter",
    "Histogram",
    "MetricsRegistry",
    "check_causality",
    "maybe_tracer",
    "default_lint_log",
    "default_log",
    "reset_default_log",
]
