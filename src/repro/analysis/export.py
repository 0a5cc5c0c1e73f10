"""Exporting results for external plotting (CSV / JSON) and traces.

The harness prints ASCII artifacts; users who want real figures export
the underlying data instead::

    from repro.analysis.export import runs_to_csv, series_to_csv

Span traces (``repro.telemetry.spans``) export to the Chrome
trace-event format (:func:`spans_to_chrome`, loadable in Perfetto /
``chrome://tracing``) or to JSON-lines (:func:`spans_to_jsonl`); see
``docs/observability.md``.
"""

import csv
import io
import json
from typing import Dict, Iterable, List

from repro.sim.trace import TimeSeries


def series_to_csv(series_list: Iterable[TimeSeries]) -> str:
    """Merge time series on their timestamps into one CSV table.

    All series must share identical sampling grids (the PowerRecorder's
    probes do, by construction).
    """
    series_list = list(series_list)
    if not series_list:
        return "time\n"
    grid = series_list[0].times
    for series in series_list[1:]:
        if series.times != grid:
            raise ValueError(
                f"series {series.name} has a different sampling grid"
            )
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(["time"] + [s.name for s in series_list])
    for i, t in enumerate(grid):
        writer.writerow([f"{t:.6f}"] + [repr(s.values[i]) for s in series_list])
    return out.getvalue()


def runs_to_csv(runs_by_policy: Dict[str, List]) -> str:
    """Flatten ClusterResults into one CSV row per (policy, set)."""
    out = io.StringIO()
    writer = csv.writer(out)
    machines: List[str] = []
    for runs in runs_by_policy.values():
        for run in runs:
            for name in run.energy_by_machine:
                if name not in machines:
                    machines.append(name)
    writer.writerow(
        ["policy", "set", "makespan_s", "total_energy_j", "edp",
         "migrations", "jobs", "mean_response_s"]
        + [f"energy_{m}_j" for m in machines]
    )
    for policy, runs in runs_by_policy.items():
        for index, run in enumerate(runs):
            writer.writerow(
                [policy, index, f"{run.makespan:.6f}",
                 f"{run.total_energy:.3f}", f"{run.edp:.3f}",
                 run.migrations, run.requests, f"{run.mean_response:.6f}"]
                + [f"{run.energy_by_machine.get(m, 0.0):.3f}" for m in machines]
            )
    return out.getvalue()


# --------------------------------------------------------- span traces

#: Synthetic pid for the single simulated "process" in a Chrome trace.
_TRACE_PID = 1


def _track_ids(spans) -> Dict[str, int]:
    """Deterministic track-name -> Chrome tid mapping (sorted names)."""
    return {
        name: tid
        for tid, name in enumerate(sorted({s.track for s in spans}), start=1)
    }


def spans_to_chrome(spans) -> str:
    """Spans as a Chrome trace-event JSON document.

    Loadable in Perfetto (https://ui.perfetto.dev) or
    ``chrome://tracing``.  Each span track becomes a named thread;
    closed spans with extent become complete ("X") events, instants
    become "i" events, and ``flow`` causal links become "s"/"f" flow
    arrows (e.g. migration -> post-migration page pulls).  Timestamps
    are simulated microseconds.
    """
    tracks = _track_ids(spans)
    events: List[dict] = []
    for name, tid in tracks.items():
        events.append(
            {
                "ph": "M",
                "pid": _TRACE_PID,
                "tid": tid,
                "name": "thread_name",
                "args": {"name": name},
            }
        )
    by_id = {s.span_id: s for s in spans}
    for span in spans:
        tid = tracks[span.track]
        ts = span.start_s * 1e6
        args = {"span_id": span.span_id}
        if span.parent_id is not None:
            args["parent_id"] = span.parent_id
        args.update(span.attrs)
        end_s = span.end_s if span.end_s is not None else span.start_s
        if end_s > span.start_s:
            events.append(
                {
                    "ph": "X",
                    "pid": _TRACE_PID,
                    "tid": tid,
                    "ts": ts,
                    "dur": (end_s - span.start_s) * 1e6,
                    "name": span.name,
                    "cat": span.category,
                    "args": args,
                }
            )
        else:
            events.append(
                {
                    "ph": "i",
                    "pid": _TRACE_PID,
                    "tid": tid,
                    "ts": ts,
                    "s": "t",
                    "name": span.name,
                    "cat": span.category,
                    "args": args,
                }
            )
        flow = span.attrs.get("flow")
        cause = by_id.get(flow) if flow is not None else None
        if cause is not None:
            flow_id = f"{cause.span_id}-{span.span_id}"
            cause_end = (
                cause.end_s if cause.end_s is not None else cause.start_s
            )
            events.append(
                {
                    "ph": "s",
                    "pid": _TRACE_PID,
                    "tid": tracks[cause.track],
                    "ts": cause_end * 1e6,
                    "id": flow_id,
                    "name": f"{cause.name}->{span.name}",
                    "cat": cause.category,
                }
            )
            events.append(
                {
                    "ph": "f",
                    "bp": "e",
                    "pid": _TRACE_PID,
                    "tid": tid,
                    "ts": ts,
                    "id": flow_id,
                    "name": f"{cause.name}->{span.name}",
                    "cat": cause.category,
                }
            )
    return json.dumps(
        {"traceEvents": events, "displayTimeUnit": "ms"}, sort_keys=True
    )


def spans_to_jsonl(spans) -> str:
    """Spans as JSON lines (one span object per line), for tooling."""
    lines = []
    for span in spans:
        lines.append(
            json.dumps(
                {
                    "trace_id": span.trace_id,
                    "span_id": span.span_id,
                    "parent_id": span.parent_id,
                    "name": span.name,
                    "category": span.category,
                    "start_s": span.start_s,
                    "end_s": span.end_s,
                    "track": span.track,
                    "attrs": span.attrs,
                },
                sort_keys=True,
            )
        )
    return "\n".join(lines) + ("\n" if lines else "")


def validate_chrome_trace(text: str) -> List[str]:
    """Schema-check a Chrome trace document; returns problem strings.

    Validates what Perfetto's loader actually relies on: a top-level
    ``traceEvents`` list whose events carry a known phase, a numeric
    timestamp (metadata excepted), and non-negative durations.
    """
    problems: List[str] = []
    try:
        doc = json.loads(text)
    except ValueError as exc:
        return [f"not valid JSON: {exc}"]
    if not isinstance(doc, dict) or "traceEvents" not in doc:
        return ["missing top-level traceEvents"]
    events = doc["traceEvents"]
    if not isinstance(events, list):
        return ["traceEvents is not a list"]
    known_phases = {"X", "B", "E", "i", "I", "M", "s", "t", "f", "C"}
    for index, event in enumerate(events):
        where = f"event {index}"
        if not isinstance(event, dict):
            problems.append(f"{where} is not an object")
            continue
        phase = event.get("ph")
        if phase not in known_phases:
            problems.append(f"{where} has unknown phase {phase!r}")
            continue
        if "name" not in event:
            problems.append(f"{where} has no name")
        if phase == "M":
            continue
        ts = event.get("ts")
        if not isinstance(ts, (int, float)):
            problems.append(f"{where} ({event.get('name')}) has no ts")
        if phase == "X":
            dur = event.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                problems.append(
                    f"{where} ({event.get('name')}) has bad dur {dur!r}"
                )
        if phase in ("s", "t", "f") and "id" not in event:
            problems.append(f"{where} flow event has no id")
    return problems


def runs_to_json(runs_by_policy: Dict[str, List]) -> str:
    """ClusterResults as a JSON document."""
    payload = {
        policy: [
            {
                "makespan_s": run.makespan,
                "total_energy_j": run.total_energy,
                "edp": run.edp,
                "migrations": run.migrations,
                "jobs": run.requests,
                "mean_response_s": run.mean_response,
                "energy_by_machine_j": run.energy_by_machine,
            }
            for run in runs
        ]
        for policy, runs in runs_by_policy.items()
    }
    return json.dumps(payload, indent=2, sort_keys=True)
