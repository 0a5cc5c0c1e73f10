"""Race-soundness cross-validation: static RACE/SHR vs dynamic sharing.

The concurrency analyzer (:mod:`repro.analyze.races` /
:mod:`repro.analyze.sharing`) claims two things the simulator can check
empirically on every workload:

* **Coverage (soundness).**  Any page the MSI shadow model observes as
  *shared read-write* at run time — touched by at least two threads
  with at least one writer — must belong to a region the static passes
  flagged (``RACE0xx`` finding or ``SHR0xx`` prediction).  A shared
  page with no static finding is a missed race candidate: the analyzer
  over-suppressed and its "registry corpus is race-free" claim is
  unsound.

* **Hotness (rank correlation).**  The ``SHR`` predictions order
  regions by expected DSM pressure; the observed per-page coherence
  faults of the shadow model must rank-correlate with those scores.
  This keeps the sharing pass honest as a *placement* oracle, not just
  a boolean one.

The dynamic side is a :class:`SharingObserver` attached to the
execution engine.  It is notified only on DSM *miss* paths (the
``dsm.access``/``ensure_range`` calls behind the per-thread residency
caches), so attaching one changes neither timing nor results, and both
the exact and the fast engine drive it through the same bound methods —
``tests/test_race_soundness.py`` asserts the two report identical
shared-pair sets.

Run it standalone with ``tools/check_race_soundness.py`` (CI does, on
two workloads under ``REPRO_VALIDATE=1``).
"""

import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.linker.layout import PAGE_SIZE, page_of
from repro.sim.numeric import ordered_mean, ordered_sum

__all__ = [
    "SharingObserver",
    "SoundnessReport",
    "check_module",
    "check_workload",
    "spearman",
]


class SharingObserver:
    """Records which threads touch which DSM pages, and how.

    Attached via ``engine.sharing_observer``; the engine calls
    :meth:`note_access` / :meth:`note_range` on residency-cache misses
    only, so every (thread, page) combination is seen at least once per
    DSM epoch — exactly enough to reconstruct the shared-page set.
    """

    def __init__(self):
        self.readers: Dict[int, Set[int]] = {}   # page -> tids
        self.writers: Dict[int, Set[int]] = {}   # page -> tids
        self.page_cost: Counter = Counter()      # page -> DSM seconds
        self.events = 0
        self._seen_ranges: Set[Tuple[int, int, int]] = set()

    # ------------------------------------------------- engine callbacks

    def note_access(self, tid: int, page: int, write: bool, cost: float) -> None:
        self.events += 1
        (self.writers if write else self.readers).setdefault(page, set()).add(tid)
        if cost:
            self.page_cost[page] += cost

    def note_range(
        self, tid: int, base: int, span: int, cost: float, pages: int
    ) -> None:
        """One ``Work`` burst made ``[base, base+span)`` writable."""
        if span <= 0:
            return
        self.events += 1
        first, last = page_of(base), page_of(base + span - 1)
        if cost:
            # Attribute the bulk-pull cost evenly across the range.
            per_page = cost / (last - first + 1)
            for p in range(first, last + 1):
                self.page_cost[p] += per_page
        key = (tid, first, last)
        if key in self._seen_ranges:
            return
        self._seen_ranges.add(key)
        for p in range(first, last + 1):
            self.writers.setdefault(p, set()).add(tid)

    # ---------------------------------------------------------- queries

    def tids_of(self, page: int) -> Set[int]:
        return self.readers.get(page, set()) | self.writers.get(page, set())

    def shared_rw_pages(self) -> List[int]:
        """Pages touched by >= 2 threads with >= 1 writer."""
        return sorted(
            p
            for p in set(self.readers) | set(self.writers)
            if len(self.tids_of(p)) >= 2 and self.writers.get(p)
        )

    def shared_pairs(self) -> Set[Tuple[int, int, int]]:
        """Canonical ``(page, tid_a, tid_b)`` set over shared RW pages.

        This is the engine-independence contract: the fast engine must
        produce exactly this set for any workload the exact engine ran.
        """
        pairs: Set[Tuple[int, int, int]] = set()
        for page in self.shared_rw_pages():
            tids = sorted(self.tids_of(page))
            for i, a in enumerate(tids):
                for b in tids[i + 1:]:
                    pairs.add((page, a, b))
        return pairs


# ------------------------------------------------------- rank statistics


def _ranks(values: List[float]) -> List[float]:
    """Tie-averaged ranks (1-based), as Spearman requires."""
    order = sorted(range(len(values)), key=lambda i: values[i])
    ranks = [0.0] * len(values)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and values[order[j + 1]] == values[order[i]]:
            j += 1
        avg = (i + j) / 2.0 + 1.0
        for k in range(i, j + 1):
            ranks[order[k]] = avg
        i = j + 1
    return ranks


def spearman(xs: List[float], ys: List[float]) -> Optional[float]:
    """Spearman's rho with tie-averaged ranks; None if undefined."""
    if len(xs) != len(ys) or len(xs) < 2:
        return None
    rx, ry = _ranks(list(xs)), _ranks(list(ys))
    mx, my = ordered_mean(rx), ordered_mean(ry)
    cov = ordered_sum((a - mx) * (b - my) for a, b in zip(rx, ry))
    vx = ordered_sum((a - mx) ** 2 for a in rx)
    vy = ordered_sum((b - my) ** 2 for b in ry)
    if vx == 0.0 or vy == 0.0:
        return None
    return cov / math.sqrt(vx * vy)


# ------------------------------------------------------------- reporting


@dataclass
class SoundnessReport:
    """Outcome of one static-vs-dynamic cross-validation run."""

    subject: str
    threads: int
    engine: str
    shared_rw_pages: int = 0
    uncovered: List[dict] = field(default_factory=list)
    rho: Optional[float] = None
    regions_compared: int = 0
    predictions: int = 0
    static_findings: Dict[str, int] = field(default_factory=dict)
    dynamic_events: int = 0
    shadow_faults: int = 0
    pairs: Set[Tuple[int, int, int]] = field(default_factory=set)

    def ok(self, min_rho: float = 0.0) -> bool:
        if self.uncovered:
            return False
        if self.rho is not None and self.rho < min_rho:
            return False
        return True

    def summary(self) -> str:
        rho = "n/a" if self.rho is None else f"{self.rho:+.2f}"
        state = "SOUND" if not self.uncovered else "UNSOUND"
        return (
            f"{self.subject} t{self.threads} [{self.engine}]: {state} — "
            f"{self.shared_rw_pages} shared rw pages, "
            f"{len(self.uncovered)} uncovered, rho={rho} over "
            f"{self.regions_compared} regions "
            f"({self.predictions} predictions, "
            f"{self.dynamic_events} dynamic events, "
            f"{self.shadow_faults} shadow faults)"
        )


# -------------------------------------------------------- region mapping


def _region_page_map(binary, process, predictions) -> Dict[str, Tuple[int, int]]:
    """Static region name -> (first_page, last_page) in the common layout.

    Globals come straight from the linked addresses; ``heap:<global>``
    regions are resolved by reading the published pointer global from
    process memory and matching it to a live heap allocation.
    """
    module = binary.module
    out: Dict[str, Tuple[int, int]] = {}
    for name, gv in module.globals.items():
        if gv.thread_local:
            continue
        addr = binary.global_addresses.get(name)
        if addr is None:
            continue
        out[f"global:{name}"] = (page_of(addr), page_of(addr + gv.size - 1))
    allocations = process.heap.allocations()
    for region in predictions:
        kind, _, rest = region.partition(":")
        if kind != "heap":
            continue
        addr = binary.global_addresses.get(rest)
        if addr is None:
            continue
        ptr = int(process.space.read(addr))
        for start, size in allocations.items():
            if start <= ptr < start + size:
                out[region] = (page_of(start), page_of(start + size - 1))
                break
    return out


def _page_kind(page: int, binary) -> str:
    addr = page * PAGE_SIZE
    vm = binary.vm_map
    if vm.is_stack_address(addr):
        return "stack"
    if vm.heap_base <= addr < vm.heap_limit:
        return "heap"
    return "other"


# ------------------------------------------------------------ the check


def check_module(
    module,
    threads: int = 0,
    engine: str = "exact",
    start: str = "x86-server",
    spread: bool = True,
    subject: str = "",
) -> SoundnessReport:
    """Run ``module``, observe dynamic sharing, check the static claims.

    ``spread=True`` migrates every odd-tid thread to the other kernel
    at its first migration point, so shared pages generate genuine MSI
    coherence traffic instead of staying node-local.  ``threads`` is
    informational (recorded in the report).
    """
    from repro.analyze import predict_sharing, run_lint
    from repro.compiler import Toolchain
    from repro.kernel import boot_testbed
    from repro.runtime.execution import EngineHooks, make_engine

    binary = Toolchain().build(module)
    system = boot_testbed()
    process = system.exec_process(binary, start)

    observer = SharingObserver()
    hooks = EngineHooks()
    if spread and len(system.machine_order) > 1:
        moved: Set[int] = set()

        def on_point(thread, fn, point_id, instrs):
            if thread.tid % 2 == 1 and thread.tid not in moved:
                moved.add(thread.tid)
                target = next(
                    m
                    for m in system.machine_order
                    if m != thread.machine_name
                )
                system.request_thread_migration(thread, target)

        hooks.on_migration_point = on_point
    eng = make_engine(system, process, hooks, engine=engine)
    eng.sharing_observer = observer
    eng.run()
    if process.exit_code != 0:
        raise RuntimeError(
            f"workload exited {process.exit_code}; the soundness check "
            "needs a complete, correct run"
        )

    # Static side: findings + sharing predictions on the same module.
    lint = run_lint(module, passes=["races", "locks", "sharing"])
    predictions = predict_sharing(module)
    covering = set(predictions)
    for diag in lint.diagnostics:
        if diag.code.startswith("RACE") and diag.symbol:
            covering.add(diag.symbol)

    region_pages = _region_page_map(binary, process, predictions)

    report = SoundnessReport(
        subject=subject or module.name,
        threads=threads,
        engine=engine,
        predictions=len(predictions),
        static_findings=lint.counts_by_code(),
        dynamic_events=observer.events,
        pairs=observer.shared_pairs(),
    )

    # Coverage: every dynamically shared RW page needs a static finding.
    shared = observer.shared_rw_pages()
    report.shared_rw_pages = len(shared)
    covering_stack = any(r.startswith("stack:") for r in covering)
    covering_heap = any(r.startswith("heap:") for r in covering)
    for page in shared:
        regions = [
            r for r, (a, b) in region_pages.items() if a <= page <= b
        ]
        if any(r in covering for r in regions):
            continue
        kind = _page_kind(page, binary)
        # Pages we cannot attribute exactly (freed allocations, stack
        # frames) fall back to kind-level coverage: some region of that
        # kind must still carry a finding.
        if kind == "stack" and covering_stack:
            continue
        if kind == "heap" and not regions and covering_heap:
            continue
        report.uncovered.append(
            {"page": page, "kind": kind, "regions": regions,
             "tids": sorted(observer.tids_of(page))}
        )

    # Hotness: predicted region scores vs observed coherence traffic.
    shadow = getattr(process.dsm, "shadow", None)
    if shadow is not None:
        traffic: Counter = Counter(shadow.page_faults)
        report.shadow_faults = ordered_sum(traffic.values())
    else:
        traffic = observer.page_cost
    observed: Dict[str, float] = {}
    for region in predictions:
        span = region_pages.get(region)
        if span is None:
            continue
        observed[region] = 0.0
    for page, amount in traffic.items():
        for region, (a, b) in region_pages.items():
            if region in observed and a <= page <= b:
                observed[region] += amount
    names = sorted(observed)
    report.regions_compared = len(names)
    if len(names) >= 3:
        report.rho = spearman(
            [predictions[r].score for r in names],
            [observed[r] for r in names],
        )
    return report


def check_workload(
    name: str,
    cls: str = "A",
    threads: int = 4,
    scale: float = 1.0,
    engine: str = "exact",
    start: str = "x86-server",
) -> SoundnessReport:
    """Build registry workload ``name`` and cross-validate it."""
    from repro.workloads import build_workload

    module = build_workload(name, cls=cls, threads=threads, scale=scale)
    return check_module(
        module,
        threads=threads,
        engine=engine,
        start=start,
        subject=f"{name}.{cls}",
    )
