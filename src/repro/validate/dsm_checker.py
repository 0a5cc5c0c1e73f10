"""hDSM coherence checker: MSI invariants + a lock-step shadow model.

:class:`ValidatedDsmService` is a drop-in :class:`DsmService` that
re-executes every residency-changing operation against an independent
per-page reference implementation of the intended MSI protocol and
compares the full coherence state (owner map, sharer sets, traffic
counters) after every ``access``/``ensure_range``/cleanup.  On top of
the lock-step comparison it asserts the structural invariants directly:

* the directory's extents are non-empty, sorted and disjoint, and
  maximally coalesced (no two touching extents share a state);
* every tracked page has exactly one owner, and the owner holds a
  valid copy (owner ∈ sharer set); sharer sets are never empty;
* after a write the writer is the only holder (writer exclusivity) —
  enforced through the shadow model, which knows the access history;
* aliased pages (per-ISA ``.text``, vDSO) never lie inside a tracked
  extent — they are local everywhere by construction;
* every byte recorded on the interconnect is attributable to a
  messaging-layer kind (page payloads, invalidations, bulk pulls), so
  DSM traffic can never be double-charged or silently dropped.
"""

from collections import Counter
from typing import Dict, Set

from repro.kernel.dsm import DsmService, DsmStats
from repro.linker.layout import PAGE_SIZE, page_of
from repro.sim.numeric import ordered_sum
from repro.telemetry.validation import default_log
from repro.validate.errors import fail


class ShadowDsm:
    """Reference MSI model, deliberately independent of DsmService.

    Implements the *intended* protocol semantics (upgrades move no
    payload; every missing page is one logical fault; invalidations are
    counted per stale copy) so that any accounting drift in the real
    service shows up as a lock-step divergence.
    """

    def __init__(self, aliased_pages: Set[int], machines=None, backup=False):
        self.aliased = set(aliased_pages)
        self.owner: Dict[int, str] = {}
        self.valid: Dict[int, Set[str]] = {}
        self.stats = DsmStats()
        # Crash-recovery mirror state (independent re-implementation).
        self.machines = list(machines) if machines else []
        self.backup = bool(backup) and len(self.machines) > 1
        self.dirtied: Set[int] = set()
        self.backup_of: Dict[int, str] = {}
        self.dead: Set[str] = set()
        self.lost: Dict[int, str] = {}
        # page -> coherence faults served on it; the race-soundness
        # harness rank-correlates this observed traffic against the
        # static sharing predictions (SHR0xx scores).
        self.page_faults: Counter = Counter()

    def _push_backup(self, owner: str, page: int) -> None:
        if not self.backup or owner not in self.machines:
            return
        nxt = self.machines[
            (self.machines.index(owner) + 1) % len(self.machines)
        ]
        if nxt in self.dead:
            return
        self.backup_of[page] = nxt
        self.stats.backup_pushes += 1
        self.stats.backup_bytes += PAGE_SIZE

    def _first_touch(self, kernel: str, page: int, write: bool = False) -> None:
        if page not in self.owner and page not in self.aliased:
            self.owner[page] = kernel
            self.valid[page] = {kernel}
            if write:
                self.dirtied.add(page)
                self._push_backup(kernel, page)
        elif write and page not in self.aliased:
            self.dirtied.add(page)
            if page not in self.backup_of:
                self._push_backup(kernel, page)

    def _is_local(self, kernel: str, page: int, write: bool) -> bool:
        if page in self.aliased:
            return True
        owner = self.owner.get(page)
        if owner is None:
            return True
        if write:
            return owner == kernel and self.valid[page] == {kernel}
        return kernel in self.valid.get(page, set())

    def _serve_fault(self, kernel: str, page: int, write: bool) -> bool:
        """Apply one coherence fault; returns True if a payload moved."""
        self.stats.faults += 1
        self.page_faults[page] += 1
        sharers = self.valid[page]
        transferred = kernel not in sharers
        if transferred:
            self.stats.page_transfers += 1
            self.stats.bytes_transferred += PAGE_SIZE
        if write:
            self.stats.invalidations += sum(1 for k in sharers if k != kernel)
            self.owner[page] = kernel
            self.valid[page] = {kernel}
            self.dirtied.add(page)
            self._push_backup(kernel, page)
        else:
            sharers.add(kernel)
        return transferred

    def access(self, kernel: str, page: int, write: bool) -> None:
        if self._is_local(kernel, page, write):
            self._first_touch(kernel, page, write)
            return
        self._serve_fault(kernel, page, write)

    def ensure_range(self, kernel: str, base: int, span: int, write: bool) -> None:
        if span <= 0:
            return
        pages = range(page_of(base), page_of(base + span - 1) + 1)
        missing = [p for p in pages if not self._is_local(kernel, p, write)]
        # Local pages take the first-touch path, missing ones the fault
        # path: one backup push per dirtying event, never both.
        skip = set(missing)
        for p in pages:
            if p not in skip:
                self._first_touch(kernel, p, write)
        for p in missing:
            self._serve_fault(kernel, p, write)

    def cleanup(self, kernel: str) -> None:
        for page, sharers in self.valid.items():
            if kernel in sharers and self.owner.get(page) != kernel:
                sharers.discard(kernel)

    def scrub_dead(self, dead: str) -> None:
        """Mirror of DsmService.scrub_dead_kernel, independently derived."""
        self.dead.add(dead)
        for page in sorted(self.valid):
            sharers = self.valid[page]
            sharers.discard(dead)
            if self.owner.get(page) != dead:
                continue
            if sharers:
                self.owner[page] = min(sharers)
                continue
            backup = self.backup_of.get(page)
            del self.owner[page]
            del self.valid[page]
            if backup is not None and backup not in self.dead:
                self.owner[page] = backup
                self.valid[page] = {backup}
            elif page in self.dirtied:
                self.lost[page] = dead
        for page, holder in list(self.backup_of.items()):
            if holder == dead:
                del self.backup_of[page]


class ValidatedDsmService(DsmService):
    """DsmService that checks MSI invariants after every operation."""

    CHECKER = "dsm"

    def __init__(
        self,
        space,
        messaging,
        home_kernel: str,
        machines=None,
        backup: bool = False,
    ):
        super().__init__(
            space, messaging, home_kernel, machines=machines, backup=backup
        )
        self.shadow = ShadowDsm(
            space.aliased_pages(), machines=machines, backup=backup
        )
        self._aliased_ranges = [vma.pages for vma in space.vmas()
                                if vma.aliased]

    # ------------------------------------------------------ operations

    def access(self, kernel: str, addr: int, write: bool) -> float:
        cost = super().access(kernel, addr, write)
        self.shadow.access(kernel, page_of(addr), write)
        self._check(f"access({kernel}, {addr:#x}, write={write})")
        if cost < 0.0:
            self._fail(
                "non-negative-cost", f"access returned {cost!r}",
                {"kernel": kernel, "addr": hex(addr), "write": write},
            )
        return cost

    def ensure_range(self, kernel, base, span, write):
        cost, pages = super().ensure_range(kernel, base, span, write)
        self.shadow.ensure_range(kernel, base, span, write)
        self._check(
            f"ensure_range({kernel}, {base:#x}, span={span}, write={write})"
        )
        return cost, pages

    def all_threads_migrated_cleanup(self, kernel: str) -> int:
        dropped = super().all_threads_migrated_cleanup(kernel)
        self.shadow.cleanup(kernel)
        self._check(f"all_threads_migrated_cleanup({kernel})")
        return dropped

    def scrub_dead_kernel(self, dead: str):
        report = super().scrub_dead_kernel(dead)
        self.shadow.scrub_dead(dead)
        self._check(f"scrub_dead_kernel({dead})")
        return report

    # --------------------------------------------------------- checks

    def _fail(self, invariant: str, detail: str, extra=None) -> None:
        state = {
            "owner": dict(sorted(self.owner_map().items())),
            "valid": {p: sorted(s) for p, s in sorted(self.valid_map().items())},
            "extents": [(lo, hi, st[0], sorted(st[1]), st[2], st[3])
                        for lo, hi, st in self.extents()],
            "stats": vars(self.stats.snapshot()),
            "shadow_owner": dict(sorted(self.shadow.owner.items())),
            "shadow_valid": {
                p: sorted(s) for p, s in sorted(self.shadow.valid.items())
            },
            "shadow_stats": vars(self.shadow.stats.snapshot()),
        }
        if extra:
            state.update(extra)
        fail(self.CHECKER, invariant, detail, state)

    def _check(self, op: str) -> None:
        default_log().note_check(self.CHECKER)
        self._check_structure(op)
        self._check_shadow(op)
        self._check_byte_conservation(op)

    def _check_structure(self, op: str) -> None:
        prev = None
        for lo, hi, state in self.extents():
            owner, sharers = state[0], state[1]
            where = {"op": op, "extent": (lo, hi)}
            if lo >= hi:
                self._fail(
                    "extents-nonempty",
                    f"after {op}: extent [{lo:#x}, {hi:#x}) is empty",
                    where,
                )
            if prev is not None and lo < prev[1]:
                self._fail(
                    "extents-sorted-disjoint",
                    f"after {op}: extent [{lo:#x}, {hi:#x}) starts before "
                    f"the previous one ends at {prev[1]:#x}",
                    where,
                )
            if prev is not None and lo == prev[1] and state == prev[2]:
                self._fail(
                    "extents-coalesced",
                    f"after {op}: extents meeting at page {lo:#x} share one "
                    "state (the directory is not maximally coalesced)",
                    where,
                )
            prev = (lo, hi, state)
            if not sharers:
                self._fail(
                    "sharers-nonempty",
                    f"after {op}: pages [{lo:#x}, {hi:#x}) have an empty "
                    "sharer set",
                    where,
                )
            if owner not in sharers:
                self._fail(
                    "owner-holds-copy",
                    f"after {op}: owner {owner!r} of pages [{lo:#x}, "
                    f"{hi:#x}) holds no valid copy",
                    where,
                )
            for pages in self._aliased_ranges:
                if pages.start < hi and lo < pages.stop:
                    self._fail(
                        "aliased-never-tracked",
                        f"after {op}: aliased pages [{pages.start:#x}, "
                        f"{pages.stop:#x}) overlap tracked extent "
                        f"[{lo:#x}, {hi:#x})",
                        where,
                    )
            if self._dead and (owner in self._dead or sharers & self._dead):
                self._fail(
                    "no-dead-routes",
                    f"after {op}: pages [{lo:#x}, {hi:#x}) still route at a "
                    "dead kernel (directory scrub incomplete)",
                    dict(where, dead=sorted(self._dead)),
                )
        for page in self.lost_pages:
            if self.owner_of(page * PAGE_SIZE) is not None:
                self._fail(
                    "lost-pages-untracked",
                    f"after {op}: lost page {page:#x} is still tracked in "
                    "the directory",
                    {"op": op, "page": page},
                )

    def _check_shadow(self, op: str) -> None:
        if self.owner_map() != self.shadow.owner:
            self._fail(
                "shadow-owner-lockstep",
                f"after {op}: owner map diverged from the reference model",
                {"op": op},
            )
        if self.valid_map() != self.shadow.valid:
            self._fail(
                "shadow-valid-lockstep",
                f"after {op}: sharer sets diverged from the reference "
                "model (writer exclusivity or sharer tracking broken)",
                {"op": op},
            )
        lost = self.lost_pages
        if lost != self.shadow.lost:
            self._fail(
                "shadow-lost-lockstep",
                f"after {op}: lost-page map diverged from the reference "
                "model",
                {"op": op, "lost": lost, "shadow_lost": dict(self.shadow.lost)},
            )
        if self.backup_map() != self.shadow.backup_of:
            self._fail(
                "shadow-backup-lockstep",
                f"after {op}: backup-copy map diverged from the reference "
                "model",
                {"op": op},
            )
        real, ref = self.stats, self.shadow.stats
        for counter in ("faults", "page_transfers", "invalidations",
                        "bytes_transferred", "backup_pushes", "backup_bytes"):
            if getattr(real, counter) != getattr(ref, counter):
                self._fail(
                    f"stats-{counter}",
                    f"after {op}: stats.{counter} is "
                    f"{getattr(real, counter)}, reference model expects "
                    f"{getattr(ref, counter)}",
                    {"op": op},
                )

    def _check_byte_conservation(self, op: str) -> None:
        recorded = self.messaging.interconnect.bytes_sent
        charged = ordered_sum(self.messaging.bytes_by_kind.values())
        if recorded != charged:
            self._fail(
                "interconnect-byte-conservation",
                f"after {op}: interconnect recorded {recorded} bytes but "
                f"the messaging layer charged {charged} "
                "(DSM + messaging traffic must account for every byte)",
                {"op": op, "bytes_by_kind": dict(self.messaging.bytes_by_kind)},
            )
