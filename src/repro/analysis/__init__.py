"""Shared result analysis: summary statistics and table/figure
rendering used by the benchmark harness (one module per paper table or
figure lives under ``benchmarks/``)."""

from repro._lazy import lazy_exports

__getattr__ = lazy_exports(__name__, {
    ".critical_path": "migration_critical_path render_critical_path",
    ".export": "spans_to_chrome spans_to_jsonl validate_chrome_trace",
    ".stats": "five_number_summary geomean",
    "..render": "Table bar format_series",
})
