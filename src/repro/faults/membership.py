"""One membership view: who is up, who is fenced, who is heard.

Every simulator that injects faults needs the same three layers of
liveness, and the cluster, serving and fleet simulators used to keep
each of them by hand:

* **ground truth** — a node is *alive* until a crash takes it and
  again once a repair brings it back (:meth:`Membership.crash`,
  :meth:`Membership.repair`);
* **verdicts** — the :class:`~repro.faults.detector.FailureDetector`
  turns silence into a confirmed death, and the node is *fenced* until
  it is repaired or, if it was alive all along (a false confirm),
  until the observer hears it again and it *rejoins*;
* **reachability** — the active
  :class:`~repro.faults.models.NetworkPartition` islands and
  :class:`~repro.faults.models.LinkDegradation` windows decide who can
  reach whom, whose heartbeats the observer hears, and what bandwidth
  the interconnect delivers.

A node is **up** — usable for placement and service — while it is
alive and unfenced.  Simulators keep their own reactions to each
transition (re-placing jobs, failing a service over, logging, tracing)
and ask the view for the state.

Node ids are any hashable value (mutually comparable, where verdicts
and partition cells sort them): the cluster and serving simulators
name machines (``"x86"``), the fleet keys its thousands of nodes by
index.  The fleet uses ground truth and degradation windows
only — no detector (a crash is known the instant it happens) and no
partitions.

The *observer* is whoever renders verdicts.  By default the nodes
observe each other and the majority's view counts: the largest
partition cell (ties break toward the cell holding the smallest node
name).  A simulator whose detector sits outside the nodes — the serving
front end — names that vantage point as ``observer``.  It belongs to no
island, so a node inside any island goes unheard.
"""

from typing import (
    Dict, FrozenSet, Hashable, Iterator, List, Optional, Sequence, Set,
    Tuple,
)

from repro.faults.detector import CONFIRM, DEGRADATION_MISS_FACTOR, FailureDetector
from repro.sim.numeric import ordered_mean

#: Verdict events, beside the detector's SUSPECT / UNSUSPECT.  A
#: confirm is reported as DEAD (a real crash) or FENCE (a live node).
DEAD = "dead"
FENCE = "fence"
REJOIN = "rejoin"


#: A node id: any hashable value (a machine name, a fleet index).
Node = Hashable


class Membership:
    """Liveness, verdicts and reachability of one simulator's nodes."""

    def __init__(
        self,
        nodes: Sequence[Node],
        detector: Optional[FailureDetector] = None,
        observer: Optional[Node] = None,
    ):
        self.nodes: Tuple[Node, ...] = tuple(nodes)
        self.detector = detector
        self.observer = observer
        #: node -> alive and unfenced.  Read-only for callers; hot
        #: loops may keep a reference to the dict.
        self.up: Dict[Node, bool] = dict.fromkeys(self.nodes, True)
        #: Nodes confirmed dead (rightly or not), until repair/rejoin.
        self.fenced: Set[Node] = set()
        #: Active partition islands and degradation windows.
        self.islands: List[Tuple[Node, ...]] = []
        self.degradations: List = []
        self.mttd_samples: List[float] = []
        self.mttr_samples: List[float] = []
        self._crashed_at: Dict[Node, float] = {}
        if detector is not None:
            detector.reset(list(self.nodes), now=0.0)

    # -------------------------------------------------------- queries

    def alive(self, node: Node) -> bool:
        """Ground truth; the protocol itself never reads it."""
        return node not in self._crashed_at

    def crashed_at(self, node: Node) -> Optional[float]:
        """When the dead ``node`` crashed (``None`` while alive)."""
        return self._crashed_at.get(node)

    def ostracised(self) -> List[Node]:
        """Fenced nodes that are still alive, sorted: they rejoin once
        the observer hears them again."""
        return [n for n in sorted(self.fenced) if n not in self._crashed_at]

    def settling(self) -> bool:
        """Can a heartbeat round still change a verdict?"""
        detector = self.detector
        return bool(self.ostracised()) or (
            detector is not None and detector.pending()
        )

    def reachable(self, a: Node, b: Node) -> bool:
        """Can ``a`` and ``b`` exchange messages right now?"""
        for island in self.islands:
            if (a in island) != (b in island):
                return False
        return True

    def bandwidth(self, base: float) -> float:
        """``base`` interconnect bandwidth under the active windows:
        overlapping windows compound as a product."""
        for degradation in self.degradations:
            base *= degradation.bandwidth_factor
        return base

    @property
    def mttd(self) -> float:
        """Mean crash-to-confirm latency (0.0 before any confirm)."""
        return ordered_mean(self.mttd_samples)

    @property
    def mttr(self) -> float:
        """Mean crash-to-repair time (0.0 before any repair)."""
        return ordered_mean(self.mttr_samples)

    def _observer_cell(self) -> Optional[FrozenSet[Node]]:
        """The nodes the observer can reach (``None``: everyone)."""
        if not self.islands:
            return None
        if self.observer is not None:
            return frozenset(
                n for n in self.nodes if self.reachable(self.observer, n)
            )
        cells = {
            frozenset(m for m in self.nodes if self.reachable(n, m))
            for n in self.nodes
        }
        return min(cells, key=lambda c: (-len(c), min(c)))

    def _heard(self) -> Dict[Node, bool]:
        """Whose heartbeat reaches the observer in time this instant."""
        if self.detector is not None:
            stretch = 1.0
            for degradation in self.degradations:
                stretch *= degradation.latency_factor
            if stretch >= DEGRADATION_MISS_FACTOR:
                # Heartbeats arrive after their timeout: all silent.
                return dict.fromkeys(self.nodes, False)
        cell = self._observer_cell()
        return {
            n: n not in self._crashed_at and (cell is None or n in cell)
            for n in self.nodes
        }

    # -------------------------------------------------- ground truth

    def crash(self, node: Node, now: float) -> bool:
        """``node`` dies at ``now``; False if it was already dead."""
        if node in self._crashed_at:
            return False
        self._crashed_at[node] = now
        self.up[node] = False
        return True

    def repair(self, node: Node, now: float) -> bool:
        """``node`` comes back clean (a dead node restarts, a fenced
        one is rebooted out of its fence); False if it was up."""
        if self.up[node]:
            return False
        crashed_at = self._crashed_at.pop(node, None)
        if crashed_at is not None:
            self.mttr_samples.append(now - crashed_at)
        self._unfence(node, now)
        return True

    # ------------------------------------------------------ verdicts

    def confirm(self, node: Node, now: float) -> str:
        """Act on a death verdict: fence ``node``.  Returns DEAD for a
        real crash (sampling its MTTD) and FENCE for a live node."""
        self.fenced.add(node)
        self.up[node] = False
        crashed_at = self._crashed_at.get(node)
        if crashed_at is None:
            return FENCE
        self.mttd_samples.append(now - crashed_at)
        return DEAD

    def heartbeat(self, now: float) -> Iterator[Tuple[str, Node]]:
        """One detector round as ``(event, node)`` pairs, in order.

        Every fenced live node the observer hears again rejoins first
        (REJOIN); then the detector observes the round and its events
        follow — SUSPECT, UNSUSPECT, and each CONFIRM already acted on
        and reported as DEAD or FENCE.  The round is lazy: the caller
        handles each rejoin before the detector observes, so it must
        consume the iterator fully.
        """
        heard = self._heard()
        for node in self._rejoin(now, heard):
            yield REJOIN, node
        alive = {n: n not in self._crashed_at for n in self.nodes}
        for event, node in self.detector.observe(now, heard, alive):
            if event == CONFIRM:
                event = self.confirm(node, now)
            yield event, node

    def rejoins(self, now: float) -> Iterator[Node]:
        """Rejoin every fenced live node heard right now (after a
        partition heals or a degradation window ends)."""
        return self._rejoin(now, self._heard())

    def _rejoin(self, now: float, heard: Dict[Node, bool]) -> Iterator[Node]:
        for node in sorted(self.fenced):
            if node not in self._crashed_at and heard[node]:
                self._unfence(node, now)
                yield node

    def _unfence(self, node: Node, now: float) -> None:
        self.fenced.discard(node)
        self.up[node] = node not in self._crashed_at
        if self.detector is not None:
            self.detector.clear(node, now)
