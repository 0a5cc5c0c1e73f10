"""In-memory span recorder for benchmark passes.

A span is one timed call into a layer: name, start, end, parent span and
free-form attributes.  The benchmark opens spans around the calls it
makes itself (build, boot, run, traffic generation, ...) on every pass,
and on a traced pass it also wraps a few public entry points deep inside
the stack (hDSM, migration, stack transformation, serving policies) by
replacing them on their owning class or module.  Nothing under ``src/``
is edited; the wrappers live only in the traced pass's process.

Self time of a span is its duration minus the time its child spans
cover.  The pass is single-threaded, so children never overlap and the
self times of all spans sum exactly to the root span's duration.
"""

import time
from contextlib import contextmanager

# Record layout: [name, start, end, parent index or None, phase, attrs].
NAME, START, END, PARENT, PHASE, ATTRS = range(6)


class Spans:
    """Spans and counters of one pass, kept in memory until it ends."""

    def __init__(self):
        self.records = []
        self.counters = {}
        self._stack = []

    def begin(self, name, phase=None, attrs=None):
        """Open a span as a child of the innermost open span."""
        parent = self._stack[-1] if self._stack else None
        self.records.append([name, time.perf_counter(), None, parent, phase, attrs])
        index = len(self.records) - 1
        self._stack.append(index)
        return index

    def end(self, index):
        """Close the innermost open span, which must be ``index``."""
        if not self._stack or self._stack[-1] != index:
            raise RuntimeError(f"span {self.records[index][NAME]!r} closed out of order")
        self._stack.pop()
        self.records[index][END] = time.perf_counter()

    @contextmanager
    def span(self, name, phase=None, **attrs):
        """Time the body as one span; ``phase`` is "setup", "run" or None."""
        index = self.begin(name, phase, attrs or None)
        try:
            yield
        finally:
            self.end(index)

    def count(self, name, amount=1):
        """Add ``amount`` to the counter ``name``."""
        self.counters[name] = self.counters.get(name, 0) + amount

    def phase_seconds(self, phase):
        """Total duration of the spans tagged with ``phase``."""
        return sum(r[END] - r[START] for r in self.records if r[PHASE] == phase)

    def wrap(self, owner, attr, name=None, on_result=None):
        """Replace ``owner.attr`` with a wrapper that records each call.

        With ``name`` every call becomes a span; ``on_result(spans,
        args, result)`` runs after each call that returned, to count
        what the call did.
        """
        original = getattr(owner, attr)

        def wrapper(*args, **kwargs):
            index = self.begin(name) if name is not None else None
            try:
                result = original(*args, **kwargs)
            finally:
                if index is not None:
                    self.end(index)
            if on_result is not None:
                on_result(self, args, result)
            return result

        wrapper.__wrapped__ = original
        setattr(owner, attr, wrapper)


def self_times(records):
    """Per span name: ``{"self_s", "total_s", "count"}`` summed over spans.

    ``total_s`` is the inclusive duration; ``self_s`` subtracts the
    duration of each span's direct children.
    """
    children = [0.0] * len(records)
    for record in records:
        if record[PARENT] is not None:
            children[record[PARENT]] += record[END] - record[START]
    out = {}
    for index, record in enumerate(records):
        duration = record[END] - record[START]
        entry = out.setdefault(record[NAME], {"self_s": 0.0, "total_s": 0.0, "count": 0})
        entry["self_s"] += duration - children[index]
        entry["total_s"] += duration
        entry["count"] += 1
    return out


def to_chrome(records, workload, pass_id):
    """The spans as a Chrome trace document (complete "X" events, in us)."""
    t0 = min(r[START] for r in records) if records else 0.0
    events = [{
        "name": "process_name", "ph": "M", "pid": pass_id, "tid": 1,
        "args": {"name": f"bench {workload} pass {pass_id}"},
    }]
    for index, record in enumerate(records):
        args = {"workload": workload, "pass": pass_id, "span": index,
                "parent": record[PARENT]}
        if record[PHASE] is not None:
            args["phase"] = record[PHASE]
        if record[ATTRS]:
            args.update(record[ATTRS])
        events.append({
            "name": record[NAME],
            "cat": record[NAME].split(".")[0],
            "ph": "X",
            "ts": (record[START] - t0) * 1e6,
            "dur": (record[END] - record[START]) * 1e6,
            "pid": pass_id,
            "tid": 1,
            "args": args,
        })
    return {"traceEvents": events, "displayTimeUnit": "ms"}
