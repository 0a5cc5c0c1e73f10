"""Heterogeneous distributed shared memory (hDSM, Section 5.1).

Page-granularity MSI-style coherence across kernels:

* every page has an owner kernel and a set of kernels holding a valid
  copy;
* a read from a kernel without a valid copy fetches the page (one RPC +
  one page payload) and joins the sharer set;
* a write from a non-owner fetches + invalidates the other copies and
  takes ownership ("migrates pages in order to make subsequent memory
  accesses local");
* pages of *aliased* regions (per-ISA ``.text``, vDSO) are always local
  everywhere and never transferred — that is the memory-region aliasing
  the paper added for heterogeneity.

One transition serves both entry points.  A demand fault
(:meth:`DsmService.access`) is its one-page case; the bulk pull after a
migration (:meth:`DsmService.ensure_range`) applies it to a range with
pipelined bandwidth-limited timing — the multithreaded page-pull burst
visible in Figure 11.

The protocol and its accounting are per page; the directory is not.
It is an :class:`ExtentMap` of maximal page runs sharing one coherence
state, so a bulk pull or first touch costs O(extents touched), not
O(pages), and the counters are computed arithmetically per run.
"""

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterator, List, Optional, Set, Tuple

from repro.linker.layout import PAGE_SIZE, page_of
from repro.runtime.address_space import AddressSpace
from repro.sim.numeric import ordered_sum

# One extent's coherence state: (owner, sharers, dirtied, backup
# holder).  Sharers always include the owner; ``dirtied`` records a
# write through a coherence event (a clean sole copy of a dead kernel is
# refetchable from the binary image, a dirty one is lost); the backup
# holder keeps an out-of-band replica (backup mode only, else None).
State = Tuple[str, FrozenSet[str], bool, Optional[str]]
Run = Tuple[int, int, State]


class LostPageError(RuntimeError):
    """An access touched a page whose only valid copy died with a kernel.

    The directory scrub marks such pages *lost* instead of leaving a
    stale owner entry; faulting on one fails loudly (the alternative —
    silently serving zeros — would corrupt the computation invisibly).
    """

    def __init__(self, page: int, kernel: str, dead_kernel: str):
        super().__init__(
            f"page {page:#x} accessed from {kernel} was lost when its only "
            f"valid copy died with kernel {dead_kernel}"
        )
        self.page = page
        self.kernel = kernel
        self.dead_kernel = dead_kernel


@dataclass
class DsmStats:
    """Page-traffic counters, per process."""

    faults: int = 0
    page_transfers: int = 0
    invalidations: int = 0
    bytes_transferred: int = 0
    # Backup-home replication mode (opt-in ablation).
    backup_pushes: int = 0
    backup_bytes: int = 0

    def snapshot(self) -> "DsmStats":
        """A copy of the counters as they stand."""
        return DsmStats(
            self.faults,
            self.page_transfers,
            self.invalidations,
            self.bytes_transferred,
            self.backup_pushes,
            self.backup_bytes,
        )


@dataclass
class ScrubReport:
    """What a directory scrub did after one kernel's confirmed death."""

    dead_kernel: str
    dropped_copies: int = 0  # stale sharer entries removed
    reowned: int = 0  # ownership rebuilt from a surviving sharer
    reowned_from_backup: int = 0  # recovered via the backup-home copy
    refetchable: int = 0  # clean sole copies, refetchable from the image
    lost: int = 0  # dirty sole copies: marked lost, accesses fail loudly


class ExtentMap:
    """Run-length page directory.

    Parallel lists ``lo``/``hi``/``state`` hold half-open page ranges
    ``[lo, hi)``, sorted, disjoint, non-empty and maximally coalesced (no
    two touching extents share a state).  Pages outside every extent are
    untracked.  Every mutation goes through :meth:`splice`, which keeps
    those invariants.
    """

    __slots__ = ("lo", "hi", "state")

    def __init__(self) -> None:
        self.lo: List[int] = []
        self.hi: List[int] = []
        self.state: List[State] = []

    def get(self, page: int) -> Optional[State]:
        """State of ``page``, or None when it is untracked."""
        i = bisect_right(self.lo, page) - 1
        if i >= 0 and page < self.hi[i]:
            return self.state[i]
        return None

    def overlapping(self, lo: int, hi: int) -> Tuple[int, int]:
        """Index range ``[i, j)`` of the extents that intersect [lo, hi)."""
        i = bisect_right(self.lo, lo)
        if i and self.hi[i - 1] > lo:
            i -= 1
        return i, bisect_left(self.lo, hi, i)

    def runs(self) -> Iterator[Run]:
        """The extents ``(lo, hi, state)``, in page order."""
        return zip(self.lo, self.hi, self.state)

    def splice(self, lo: int, hi: int, runs: List[Run]) -> None:
        """Make ``runs`` (sorted, inside [lo, hi)) the whole of [lo, hi).

        Pages of [lo, hi) no run covers become untracked.  Extents cut by
        the boundaries keep their outside parts, and the result is
        re-coalesced with its neighbours.
        """
        los, his, states = self.lo, self.hi, self.state
        i, j = self.overlapping(lo, hi)
        new: List[Run] = []
        # The untouched neighbours join in so the edges re-coalesce.
        if i:
            new.append((los[i - 1], his[i - 1], states[i - 1]))
        if i < j and los[i] < lo:
            new.append((los[i], lo, states[i]))
        new.extend(runs)
        if i < j and his[j - 1] > hi:
            new.append((hi, his[j - 1], states[j - 1]))
        if j < len(los):
            new.append((los[j], his[j], states[j]))
            j += 1
        if i:
            i -= 1
        out_lo: List[int] = []
        out_hi: List[int] = []
        out_state: List[State] = []
        for a, b, s in new:
            if out_hi and out_hi[-1] == a and out_state[-1] == s:
                out_hi[-1] = b
            else:
                out_lo.append(a)
                out_hi.append(b)
                out_state.append(s)
        los[i:j] = out_lo
        his[i:j] = out_hi
        states[i:j] = out_state

    def rebuild(self, runs: List[Run]) -> None:
        """Replace the whole map with ``runs`` (sorted, disjoint)."""
        self.lo, self.hi, self.state = [], [], []
        if runs:
            self.splice(runs[0][0], runs[-1][1], runs)


def _aliased_ranges(space: AddressSpace) -> Tuple[List[int], List[int]]:
    """Merged, sorted page ranges of the space's aliased VMAs."""
    ranges = sorted(
        (vma.pages.start, vma.pages.stop)
        for vma in space.vmas() if vma.aliased
    )
    los: List[int] = []
    his: List[int] = []
    for lo, hi in ranges:
        if his and lo <= his[-1]:
            his[-1] = max(his[-1], hi)
        else:
            los.append(lo)
            his.append(hi)
    return los, his


class DsmService:
    """Per-process page coherence across the replicated kernels."""

    def __init__(
        self,
        space: AddressSpace,
        messaging,
        home_kernel: str,
        machines: Optional[List[str]] = None,
        backup: bool = False,
    ):
        self.space = space
        self.messaging = messaging
        self.home = home_kernel
        # Aliased page ranges, never tracked: local everywhere.
        self._alias_lo, self._alias_hi = _aliased_ranges(space)
        # The coherence directory.  An untracked page is untouched (zero
        # page), owned by whoever touches it first.
        self._dir = ExtentMap()
        self.stats = DsmStats()
        # Monotonic epoch: bumped on every residency change; lets the
        # engine cache "this whole range is local" checks.
        self.epoch = 0
        # Kernels party to the most recent charged coherence operation
        # (requester, owners that served a copy, invalidated sharers,
        # backup targets).  The engine scopes interconnect-busy (IO
        # power) accounting to exactly these machines.
        self.last_parties: Tuple[str, ...] = ()
        # ---- crash recovery (all empty/off on the fault-free path) ----
        # Machine ring: determines where backup copies go.
        self.machines = list(machines) if machines else []
        # Opt-in dirty-page backup-home replication (ablation): every
        # dirtying coherence event pushes the page to the owner's ring
        # successor, trading steady-state wire bandwidth for lost work.
        # Backup copies are *not* coherence sharers: they never serve
        # faults, so MSI behaviour is unchanged.
        self.backup = bool(backup) and len(self.machines) > 1
        # Lost page runs (lo, hi, dead kernel whose crash lost them), in
        # the order the scrubs found them.
        self._lost: List[Tuple[int, int, str]] = []
        self.scrubs: List[ScrubReport] = []

    # ------------------------------------------------------- directory

    def _unaliased(self, lo: int, hi: int) -> List[Tuple[int, int]]:
        """The sub-ranges of [lo, hi) outside every aliased range."""
        alias_lo, alias_hi = self._alias_lo, self._alias_hi
        i = bisect_right(alias_hi, lo)
        out = []
        pos = lo
        while pos < hi and i < len(alias_lo) and alias_lo[i] < hi:
            if alias_lo[i] > pos:
                out.append((pos, alias_lo[i]))
            pos = max(pos, alias_hi[i])
            i += 1
        if pos < hi:
            out.append((pos, hi))
        return out

    def _lost_at(self, first: int, end: int) -> Optional[Tuple[int, str]]:
        """First lost page of [first, end) in scrub order, with its killer."""
        for lo, hi, dead in self._lost:
            if lo < end and first < hi:
                return max(lo, first), dead
        return None

    @property
    def lost_pages(self) -> Dict[int, str]:
        """page -> dead kernel whose crash lost it (materialised)."""
        lost: Dict[int, str] = {}
        for lo, hi, dead in self._lost:
            lost.update(dict.fromkeys(range(lo, hi), dead))
        return lost

    # ------------------------------------------------------- transition

    def _transition(self, kernel: str, first: int, end: int, write: bool):
        """The MSI transition of pages [first, end) accessed by ``kernel``.

        One walk over the extents and gaps of the range (aliased pages
        are skipped: they are local everywhere) computes every page's
        next state run by run, and the per-page accounting as arithmetic
        over run lengths:

        * an untracked page is touched first: ``kernel`` owns it;
        * a read from a kernel without a valid copy faults: the page
          moves from its owner and the reader joins the sharers;
        * a write from anyone but the sole holder faults: the page moves
          only if the writer holds no copy (an S->M upgrade moves none),
          every other copy is invalidated and the writer owns it alone;
        * a write from the sole holder only marks the page dirty;
        * in backup mode every dirtying event (write first touch, first
          write to an owned page, write fault) pushes one copy to the
          writer's backup target.

        Nothing is mutated, so a chaos step can still crash a kernel and
        scrub the directory before the caller applies the result.
        Returns ``(runs, faults, transfers, invalidations, backups,
        owners, groups, target)``: the range's new runs for
        :meth:`ExtentMap.splice` (None when no page changes state), the
        counts, the faulted pages' owners, the distinct groups of stale
        copies to invalidate, and the backup target.
        """
        directory = self._dir
        los, his, states = directory.lo, directory.hi, directory.state
        i, j = directory.overlapping(first, end)
        solo = frozenset((kernel,))
        target = self._backup_target(kernel) if write else None
        fresh = (kernel, solo, write, target)
        runs: List[Run] = []
        changed = False
        faults = transfers = invalidations = backups = 0
        owners: Set[str] = set()
        groups: Set[FrozenSet[str]] = set()
        pos = first
        for k in range(i, j):
            lo = los[k]
            if lo > pos:
                for a, b in self._unaliased(pos, lo):
                    runs.append((a, b, fresh))
                    if target is not None:
                        backups += b - a
                    changed = True
                pos = lo
            hi = his[k] if his[k] < end else end
            n = hi - pos
            state = states[k]
            owner, sharers, dirtied, backup = state
            if write:
                if owner == kernel and sharers == solo:
                    # The engine's residency cache lets every first write
                    # of a page through, so dirtiness is complete.
                    if backup is None and target is not None:
                        backups += n
                        state = (kernel, solo, True, target)
                        changed = True
                    elif not dirtied:
                        state = (kernel, solo, True, backup)
                        changed = True
                else:
                    faults += n
                    owners.add(owner)
                    if kernel not in sharers:
                        transfers += n
                    others = sharers - solo
                    if others:
                        groups.add(others)
                        invalidations += n * len(others)
                    if target is not None:
                        backups += n
                        backup = target
                    state = (kernel, solo, True, backup)
                    changed = True
            elif kernel not in sharers:
                faults += n
                owners.add(owner)
                transfers += n
                state = (owner, sharers | solo, dirtied, backup)
                changed = True
            runs.append((pos, hi, state))
            pos = hi
        if pos < end:
            for a, b in self._unaliased(pos, end):
                runs.append((a, b, fresh))
                if target is not None:
                    backups += b - a
                changed = True
        return (runs if changed else None, faults, transfers, invalidations,
                backups, owners, groups, target)

    def _backup_target(self, owner: str) -> Optional[str]:
        """Live ring successor that takes ``owner``'s backup pushes.

        A fenced kernel never takes one, whether it died before or after
        this process started.
        """
        machines = self.machines
        if not self.backup or owner not in machines:
            return None
        target = machines[(machines.index(owner) + 1) % len(machines)]
        return None if target in self.messaging.fenced else target

    def _crashed(self, step: str, kernel: str, **roles: str) -> bool:
        """Announce a crashable step; True if a crash fired at it.

        The crash has scrubbed the directory under the caller's feet, so
        the caller dispatches its operation again, unless the crash
        killed ``kernel`` itself.
        """
        messaging = self.messaging
        if not messaging.chaos_step(step, **roles):
            return False
        if kernel in messaging.fenced:
            from repro.kernel.kernel import KernelCrashed

            raise KernelCrashed(kernel)
        return True

    def _book(self, kernel: str, step) -> None:
        """Count an applied transition and name the kernels party to it."""
        _, faults, transfers, invalidations, backups, owners, groups, target = step
        stats = self.stats
        stats.faults += faults
        stats.page_transfers += transfers
        stats.bytes_transferred += transfers * PAGE_SIZE
        stats.invalidations += invalidations
        stats.backup_pushes += backups
        stats.backup_bytes += backups * PAGE_SIZE
        parties = {kernel} | owners
        for group in groups:
            parties |= group
        if backups:
            parties.add(target)
        self.last_parties = tuple(sorted(parties))
        if faults:
            self.epoch += 1

    def access(self, kernel: str, addr: int, write: bool) -> float:
        """Account one access; returns fault service time in seconds.

        The one-page case of the transition.  A fault is one page RPC to
        the owner (only when ``kernel`` holds no copy), one invalidation
        broadcast and one backup send.
        """
        page = page_of(addr)
        if self._lost:
            lost = self._lost_at(page, page + 1)
            if lost is not None:
                raise LostPageError(page, kernel, lost[1])
        step = self._transition(kernel, page, page + 1, write)
        runs, faults, transfers, invalidations, backups, owners, groups, target = step
        owner = min(owners) if owners else None
        if faults and self._crashed(
            "dsm.page", kernel, faulter=kernel, owner=owner
        ):
            return self.access(kernel, addr, write)
        self._book(kernel, step)
        messaging = self.messaging
        cost = 0.0
        if transfers:
            cost += messaging.rpc(
                "dsm.page", kernel, owner, request_bytes=32,
                reply_bytes=PAGE_SIZE,
            )
        for group in groups:
            cost += messaging.broadcast(
                "dsm.inval", kernel, sorted(group), payload_bytes=32
            )
        if runs is not None:
            self._dir.splice(page, page + 1, runs)
        if backups:
            cost += messaging.send("dsm.backup", kernel, target, PAGE_SIZE)
        tracer = messaging.tracer
        if faults and tracer is not None:
            tracer.complete(
                "dsm.page", "dsm", tracer.now(), cost, track=kernel,
                page=page, owner=owner, write=write,
                bytes=transfers * PAGE_SIZE, invalidations=invalidations,
            )
            metrics = tracer.metrics
            metrics.counter("dsm.page_faults").inc()
            if transfers:
                metrics.counter("dsm.bytes").inc(PAGE_SIZE)
            if invalidations:
                metrics.counter("dsm.invalidations").inc(invalidations)
            metrics.histogram("dsm.fault_s").observe(cost)
        return cost

    def ensure_range(self, kernel: str, base: int, span: int, write: bool) -> Tuple[float, int]:
        """Make [base, base+span) locally accessible from ``kernel``.

        Returns (seconds, pages_transferred).  Every page takes the same
        transition as when faulted alone; only the wire time differs.
        The payloads move in one pipelined burst, modelling the
        multithreaded hDSM pulling pages in bulk, and each distinct group
        of stale copies gets one range-invalidate broadcast.
        """
        if span <= 0:
            return (0.0, 0)
        first = page_of(base)
        end = page_of(base + span - 1) + 1
        if self._lost:
            lost = self._lost_at(first, end)
            if lost is not None:
                raise LostPageError(lost[0], kernel, lost[1])
        step = self._transition(kernel, first, end, write)
        runs, faults, transfers, invalidations, backups, owners, groups, _ = step
        messaging = self.messaging
        if messaging.chaos is not None and self._crashed(
            "dsm.bulk", kernel, puller=kernel,
            **{f"owner{i}": o for i, o in enumerate(sorted(owners))},
        ):
            return self.ensure_range(kernel, base, span, write)
        if runs is not None:
            self._dir.splice(first, end, runs)
        self._book(kernel, step)
        if not faults and not backups:
            return (0.0, 0)
        cost = 0.0
        for group in sorted(groups, key=sorted):
            cost += messaging.broadcast(
                "dsm.inval", kernel, sorted(group), payload_bytes=32
            )
        if transfers:
            cost += messaging.record_bulk("dsm.bulk", transfers, PAGE_SIZE + 64)
        if backups:
            # The backup pushes ride the pull's burst to the target.
            cost += messaging.record_bulk(
                "dsm.backup", backups, PAGE_SIZE + 64, rides=True
            )
        tracer = messaging.tracer
        if tracer is not None:
            tracer.complete(
                "dsm.bulk", "dsm", tracer.now(), cost, track=kernel,
                pages=faults, transfers=transfers,
                bytes=transfers * PAGE_SIZE, write=write,
                invalidations=invalidations,
            )
            metrics = tracer.metrics
            metrics.counter("dsm.bulk_pulls").inc()
            metrics.counter("dsm.page_faults").inc(faults)
            metrics.counter("dsm.bytes").inc(transfers * PAGE_SIZE)
            if invalidations:
                metrics.counter("dsm.invalidations").inc(invalidations)
            metrics.histogram("dsm.bulk_s").observe(cost)
        return (cost, transfers)

    # ------------------------------------------------------- inspection

    def resident_pages(self, kernel: str) -> int:
        """Tracked pages of which ``kernel`` holds a valid copy."""
        return ordered_sum(hi - lo for lo, hi, state in self._dir.runs()
                           if kernel in state[1])

    def owner_of(self, addr: int) -> Optional[str]:
        """Owner kernel of the page holding ``addr`` (None: untracked)."""
        state = self._dir.get(page_of(addr))
        return None if state is None else state[0]

    def sharers_of(self, page: int) -> FrozenSet[str]:
        """Kernels holding a valid copy of ``page`` (empty: untracked)."""
        state = self._dir.get(page)
        return frozenset() if state is None else state[1]

    def extents(self) -> List[Run]:
        """The directory's extents ``(lo, hi, state)``, in page order."""
        return list(self._dir.runs())

    def owner_map(self) -> Dict[int, str]:
        """page -> owner for every tracked page (for checkers only)."""
        return self._per_page(0)

    def valid_map(self) -> Dict[int, FrozenSet[str]]:
        """page -> sharers for every tracked page (for checkers only)."""
        return self._per_page(1)

    def backup_map(self) -> Dict[int, str]:
        """page -> backup holder for every replicated page (checkers)."""
        return {page: holder for page, holder in self._per_page(3).items()
                if holder is not None}

    def _per_page(self, field: int) -> dict:
        out: dict = {}
        for lo, hi, state in self._dir.runs():
            out.update(dict.fromkeys(range(lo, hi), state[field]))
        return out

    def all_threads_migrated_cleanup(self, kernel: str) -> int:
        """Drop residual copies once no thread runs on ``kernel``.

        "After migration, the process's data is kept on the source
        kernel until there are residual dependencies."  Returns the
        number of copies dropped.
        """
        dropped = 0
        solo = frozenset((kernel,))
        runs: List[Run] = []
        for lo, hi, state in self._dir.runs():
            owner, sharers, dirtied, backup = state
            if kernel in sharers and owner != kernel:
                state = (owner, sharers - solo, dirtied, backup)
                dropped += hi - lo
            runs.append((lo, hi, state))
        if dropped:
            self._dir.rebuild(runs)
            self.epoch += 1
        return dropped

    # ---------------------------------------------------- crash recovery

    def scrub_dead_kernel(self, dead: str) -> ScrubReport:
        """Reconcile the directory after ``dead``'s confirmed death.

        Ownership is reconstructed from surviving sharers (smallest
        kernel name wins, deterministically).  Sole copies are recovered
        from their backup-home replica when one exists; otherwise clean
        pages revert to untouched (their content is refetchable from
        the binary image) and dirty pages are marked *lost* — any later
        access raises :class:`LostPageError` instead of reading zeros.
        The scrub works per extent; the report counts pages.
        """
        report = ScrubReport(dead)
        gone = frozenset((dead,))
        runs: List[Run] = []
        for lo, hi, (owner, sharers, dirtied, backup) in self._dir.runs():
            n = hi - lo
            if dead in sharers:
                sharers = sharers - gone
                if owner != dead:
                    report.dropped_copies += n
            # Backup copies stored *on* the dead kernel died with it.
            if backup == dead:
                backup = None
            if owner != dead:
                runs.append((lo, hi, (owner, sharers, dirtied, backup)))
            elif sharers:
                runs.append((lo, hi, (min(sharers), sharers, dirtied, backup)))
                report.reowned += n
            elif backup is not None:
                # The backup holder becomes the new owner; the copy it
                # holds is the page as of its last replication.
                runs.append(
                    (lo, hi, (backup, frozenset((backup,)), dirtied, backup))
                )
                report.reowned_from_backup += n
            elif dirtied:
                self._lost.append((lo, hi, dead))
                report.lost += n
            else:
                # Never dirtied: content is still the loaded image, so
                # the next toucher re-materialises it like a first touch.
                report.refetchable += n
        self._dir.rebuild(runs)
        self.scrubs.append(report)
        # Residency caches across the system are stale now.
        self.epoch += 1
        tracer = getattr(self.messaging, "tracer", None)
        if tracer is not None:
            tracer.instant(
                "dsm.scrub", "fault", track=dead, dead=dead,
                dropped=report.dropped_copies, reowned=report.reowned,
                from_backup=report.reowned_from_backup,
                refetchable=report.refetchable, lost=report.lost,
            )
            tracer.metrics.counter("dsm.scrubs").inc()
            if report.lost:
                tracer.metrics.counter("dsm.lost_pages").inc(report.lost)
        return report

    def references_kernel(self, kernel: str) -> bool:
        """Does any directory entry still route at ``kernel``?"""
        return any(
            state[0] == kernel or kernel in state[1]
            for state in self._dir.state
        )
