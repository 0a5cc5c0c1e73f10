"""Heartbeat/lease failure detection (crashes *detected*, not known).

The original fault pipeline was omniscient: the instant a
:class:`~repro.faults.models.NodeCrash` fired, the simulator knew and
recovery began.  Real clusters learn about death the hard way — missed
heartbeats, a suspicion window, then a lease expiry that *fences* the
suspect so it can never act again even if it was merely slow (the
classic false-suspicion hazard under partitions and latency spikes).

:class:`FailureDetector` models exactly that, deterministically:

* every node broadcasts a heartbeat each ``heartbeat_period_s``;
* a node unheard for ``MISS_THRESHOLD`` consecutive periods becomes
  *suspected* (a suspicion of a node that is actually alive — cut off
  by a :class:`~repro.faults.models.NetworkPartition` or delayed past
  ``DEGRADATION_MISS_FACTOR`` by a
  :class:`~repro.faults.models.LinkDegradation` — is a recorded
  **false suspicion**);
* a suspect still unheard ``lease_s`` after suspicion is *confirmed
  dead* and fenced.  Confirming a live node is a **false confirm**: the
  cluster ostracises it (its lease expired, it must stop working) until
  it is heard again and rejoins.

Mean time-to-detect (MTTD = crash → confirm latency) is therefore
``MISS_THRESHOLD * heartbeat_period_s + lease_s`` plus the phase of the
heartbeat clock — and the simulator now *measures* it instead of
assuming zero.
"""

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

#: Detection events emitted by :meth:`FailureDetector.observe`.
SUSPECT = "suspect"
UNSUSPECT = "unsuspect"
CONFIRM = "confirm"

#: Consecutive silent heartbeat periods before a node is suspected.
MISS_THRESHOLD = 3
#: A latency stretch (product of active degradation factors) at or
#: beyond this makes heartbeats arrive after their timeout.
DEGRADATION_MISS_FACTOR = 8.0


@dataclass(frozen=True)
class DetectorConfig:
    """Calibration knobs (see docs/faults.md for the cost model)."""

    heartbeat_period_s: float = 0.5
    lease_s: float = 1.5  # suspicion age -> confirmed dead (fenced)

    def __post_init__(self):
        if self.heartbeat_period_s <= 0:
            raise ValueError("heartbeat period must be positive")
        if self.lease_s < 0:
            raise ValueError("lease must be non-negative")

    @property
    def suspect_after_s(self) -> float:
        return MISS_THRESHOLD * self.heartbeat_period_s

    @property
    def nominal_mttd_s(self) -> float:
        """Detection latency ignoring heartbeat-clock phase."""
        return self.suspect_after_s + self.lease_s


@dataclass
class DetectorStats:
    heartbeats: int = 0
    suspicions: int = 0
    false_suspicions: int = 0  # suspected while actually alive
    confirms: int = 0
    false_confirms: int = 0  # fenced while actually alive


class FailureDetector:
    """Deterministic heartbeat/lease failure detector for one cluster."""

    def __init__(self, config: Optional[DetectorConfig] = None):
        self.config = config if config is not None else DetectorConfig()
        # Optional span tracer; set by ClusterSimulator when tracing.
        self.tracer = None
        self.stats = DetectorStats()
        self._nodes: List[str] = []
        self._last_heard: Dict[str, float] = {}
        self._suspected_at: Dict[str, float] = {}
        self._fenced: Set[str] = set()

    @property
    def period(self) -> float:
        return self.config.heartbeat_period_s

    def reset(self, nodes: List[str], now: float = 0.0) -> None:
        self._nodes = list(nodes)
        self._last_heard = {n: now for n in self._nodes}
        self._suspected_at.clear()
        self._fenced.clear()

    # -------------------------------------------------------- queries

    def is_suspected(self, node: str) -> bool:
        return node in self._suspected_at

    def is_fenced(self, node: str) -> bool:
        return node in self._fenced

    def pending(self) -> bool:
        """Is any verdict still maturing (suspicion awaiting confirm)?"""
        return bool(self._suspected_at)

    # ------------------------------------------------------- protocol

    def observe(
        self,
        now: float,
        heard: Dict[str, bool],
        alive: Dict[str, bool],
    ) -> List[Tuple[str, str]]:
        """One heartbeat round; returns (event, node) verdict changes.

        ``heard`` is what the *observer majority* received this round;
        ``alive`` is ground truth, used only to label false suspicions
        and false confirms — the protocol itself never reads it.
        """
        events: List[Tuple[str, str]] = []
        cfg = self.config
        tracer = self.tracer

        def mark(event: str, node: str, false: bool) -> None:
            if tracer is None:
                return
            tracer.instant(
                f"detector.{event}", "detector", ts=now, track=node,
                false=false,
            )
            tracer.metrics.counter(f"detector.{event}s").inc()
            if false:
                tracer.metrics.counter(f"detector.false_{event}s").inc()
        for node in self._nodes:
            if node in self._fenced:
                continue  # verdict already rendered; rejoin is explicit
            if heard.get(node, False):
                self.stats.heartbeats += 1
                self._last_heard[node] = now
                if node in self._suspected_at:
                    del self._suspected_at[node]
                    mark(UNSUSPECT, node, False)
                    events.append((UNSUSPECT, node))
                continue
            silence = now - self._last_heard[node]
            if (
                node not in self._suspected_at
                and silence >= cfg.suspect_after_s - 1e-9
            ):
                self._suspected_at[node] = now
                self.stats.suspicions += 1
                if alive.get(node, False):
                    self.stats.false_suspicions += 1
                mark(SUSPECT, node, alive.get(node, False))
                events.append((SUSPECT, node))
            suspected_at = self._suspected_at.get(node)
            if (
                suspected_at is not None
                and now - suspected_at >= cfg.lease_s - 1e-9
            ):
                del self._suspected_at[node]
                self._fenced.add(node)
                self.stats.confirms += 1
                if alive.get(node, False):
                    self.stats.false_confirms += 1
                mark(CONFIRM, node, alive.get(node, False))
                events.append((CONFIRM, node))
        return events

    def clear(self, node: str, now: float) -> None:
        """The node rejoined (repair or heal): forget every verdict."""
        self._fenced.discard(node)
        self._suspected_at.pop(node, None)
        self._last_heard[node] = now
