"""Shared result analysis: summary statistics, trace export and the
migration critical path, used by the CLI and the benchmark harness
(one module per paper table or figure lives under ``benchmarks/``).
Tables and series print through :mod:`repro.render`."""

from repro._lazy import lazy_exports

__getattr__ = lazy_exports(__name__, {
    ".critical_path": "migration_critical_path render_critical_path",
    ".export": "spans_to_chrome spans_to_jsonl validate_chrome_trace",
    ".stats": "five_number_summary geomean",
})
