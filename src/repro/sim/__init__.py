"""Deterministic simulation core: clock, event queue, RNG, tracing.

Everything in :mod:`repro` that advances simulated time does so through
this package, so that experiments are fully reproducible run-to-run.
"""

from repro._lazy import lazy_exports

__getattr__ = lazy_exports(__name__, {
    ".clock": "Clock",
    ".events": "EventQueue Simulator",
    ".rng": "DeterministicRng",
    ".trace": "Sampler TimeSeries",
})
