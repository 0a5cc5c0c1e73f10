"""Shared result analysis: summary statistics and table/figure
rendering used by the benchmark harness (one module per paper table or
figure lives under ``benchmarks/``)."""

from repro.analysis.stats import FiveNumber, five_number_summary, geomean
from repro.render import Table, bar, format_series
from repro.analysis.export import (
    runs_to_csv,
    runs_to_json,
    series_to_csv,
    spans_to_chrome,
    spans_to_jsonl,
    validate_chrome_trace,
)
from repro.analysis.critical_path import (
    MigrationSegments,
    migration_critical_path,
    render_critical_path,
)

__all__ = [
    "FiveNumber",
    "five_number_summary",
    "geomean",
    "Table",
    "bar",
    "format_series",
    "runs_to_csv",
    "runs_to_json",
    "series_to_csv",
    "spans_to_chrome",
    "spans_to_jsonl",
    "validate_chrome_trace",
    "MigrationSegments",
    "migration_critical_path",
    "render_critical_path",
]
