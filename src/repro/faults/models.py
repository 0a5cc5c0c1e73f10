"""Fault models for the datacenter simulation.

The paper's value proposition — evacuating work across the ISA boundary
via live migration instead of stop-the-world checkpoint/restore — only
matters in a fleet where machines degrade and die.  These models give
the DES that fleet: node crashes (permanent, or transient with a repair
time), interconnect degradation windows and network partitions,
collected in a :class:`FaultSchedule`, plus the :class:`RetryPolicy` a
sender follows when a message is lost.  Nothing here needs the kernel,
so the serving and fleet simulators load no kernel code.

Every stochastic generator draws from a named
:class:`~repro.sim.rng.DeterministicRng` stream, so a seed plus a
schedule fully determines a run (the same discipline the arrival
generators follow).
"""

import math
from dataclasses import dataclass
from typing import ClassVar, Iterable, Iterator, Sequence, Tuple

from repro.sim.rng import DeterministicRng


def _require(event, field: str, ok: bool, rule: str) -> None:
    """Reject a malformed event when it is built, not mid-run."""
    if not ok:
        raise ValueError(
            f"{type(event).__name__}.{field} must be {rule}, "
            f"got {getattr(event, field)!r}"
        )


def _check_time(event) -> None:
    _require(event, "time", math.isfinite(event.time) and event.time >= 0,
             "finite and >= 0")


def _check_window(event) -> None:
    _check_time(event)
    _require(event, "duration",
             math.isfinite(event.duration) and event.duration > 0,
             "finite and > 0")


@dataclass(frozen=True)
class NodeCrash:
    """A machine dies at ``time``.

    Transient crashes come back after ``repair_seconds`` (a maintenance
    drain / reboot); permanent crashes never return.
    """

    kind: ClassVar[str] = "crash"
    time: float
    node: str
    permanent: bool = False
    repair_seconds: float = 120.0

    def __post_init__(self):
        _check_time(self)
        _require(self, "repair_seconds",
                 math.isfinite(self.repair_seconds) and self.repair_seconds >= 0,
                 "finite and >= 0")


@dataclass(frozen=True)
class NodeRepair:
    """An explicit repair event (for hand-written schedules)."""

    kind: ClassVar[str] = "repair"
    time: float
    node: str

    def __post_init__(self):
        _check_time(self)


@dataclass(frozen=True)
class LinkDegradation:
    """The interconnect degrades for ``duration`` seconds.

    ``bandwidth_factor`` < 1 shrinks effective bandwidth (saturated
    link); ``latency_factor`` > 1 stretches message latency.  Multiple
    overlapping windows compound multiplicatively.
    """

    kind: ClassVar[str] = "degrade"
    time: float
    duration: float
    bandwidth_factor: float = 0.5
    latency_factor: float = 2.0

    def __post_init__(self):
        _check_window(self)
        _require(self, "bandwidth_factor", self.bandwidth_factor > 0, "> 0")
        _require(self, "latency_factor", self.latency_factor > 0, "> 0")


@dataclass(frozen=True)
class NetworkPartition:
    """``island`` is cut off from every other node for ``duration``.

    While active, migrations and evacuations cannot cross the cut.
    """

    kind: ClassVar[str] = "partition"
    time: float
    duration: float
    island: Tuple[str, ...]

    def __post_init__(self):
        _check_window(self)
        _require(self, "island", len(self.island) > 0, "non-empty")


class FaultSchedule:
    """An immutable, time-sorted sequence of fault events.

    Events are anything with a ``kind`` attribute and a ``time`` field
    (the event classes above).  The schedule itself is never mutated by
    a run — the simulator keeps its own cursor — so one schedule can
    seed many runs (the determinism tests rely on this).  The cluster,
    serving and fleet simulators all consume it.
    """

    def __init__(self, events: Iterable = ()):
        self.events: Tuple = tuple(sorted(events, key=lambda e: e.time))

    @property
    def empty(self) -> bool:
        return not self.events

    def merged(self, other: "FaultSchedule") -> "FaultSchedule":
        return FaultSchedule(self.events + other.events)

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator:
        return iter(self.events)

    def __bool__(self) -> bool:
        return bool(self.events)

    def __repr__(self) -> str:
        return f"FaultSchedule({list(self.events)!r})"


@dataclass(frozen=True)
class RetryPolicy:
    """Reliable-delivery knobs charged on every lost/corrupted message.

    Backoff uses *decorrelated jitter* by default: each wait is drawn
    uniformly from [base, 3 x previous wait], capped at
    ``max_backoff_s``.  Bare ``2 ** attempt`` growth is unbounded and
    synchronizes retries across senders during a degraded window —
    every sender that lost a message at t0 would retransmit at exactly
    t0 + base, t0 + 2*base, ... in lock-step.  Set ``jitter=False`` for
    the plain (still capped) exponential schedule.  The kernel
    messaging layer and the serving engine's replays both back off
    through :meth:`backoff`.
    """

    max_retries: int = 4
    ack_timeout_s: float = 200e-6  # sender waits this long before resending
    backoff_base_s: float = 100e-6  # first wait; grows per attempt
    max_backoff_s: float = 5e-3  # cap on any single backoff wait
    jitter: bool = True  # decorrelated jitter vs. plain exponential

    def backoff(self, attempt: int, prev_backoff_s: float, u: float) -> float:
        """The wait before retry ``attempt`` (0-based), from a uniform
        draw ``u`` in [0, 1); ``u`` is read only when ``jitter`` is on."""
        if self.jitter:
            span = max(3.0 * prev_backoff_s - self.backoff_base_s, 0.0)
            backoff = self.backoff_base_s + u * span
        else:
            backoff = self.backoff_base_s * (2 ** attempt)
        return min(backoff, self.max_backoff_s)


# ------------------------------------------------------------ builders


def single_crash(
    time: float,
    node: str,
    repair_seconds: float = 120.0,
    permanent: bool = False,
) -> FaultSchedule:
    """The canonical benchmark scenario: one mid-run crash."""
    return FaultSchedule(
        [NodeCrash(time, node, permanent=permanent, repair_seconds=repair_seconds)]
    )


def random_crash_schedule(
    rng: DeterministicRng,
    nodes: Sequence[str],
    horizon_s: float,
    crashes: int = 2,
    repair_range: Tuple[float, float] = (30.0, 180.0),
    permanent_fraction: float = 0.0,
    stream: str = "faults.crash",
) -> FaultSchedule:
    """Seeded crash schedule: ``crashes`` failures uniform over the
    horizon, each hitting a uniformly drawn node."""
    if not nodes:
        raise ValueError("need at least one node name")
    events = []
    for _ in range(crashes):
        t = rng.uniform(stream, 0.0, horizon_s)
        node = rng.choice(stream, list(nodes))
        permanent = rng.uniform(stream, 0.0, 1.0) < permanent_fraction
        repair = rng.uniform(stream, *repair_range)
        events.append(
            NodeCrash(t, node, permanent=permanent, repair_seconds=repair)
        )
    return FaultSchedule(events)


def degraded_window(
    time: float,
    duration: float,
    bandwidth_factor: float = 0.5,
    latency_factor: float = 2.0,
) -> FaultSchedule:
    """One interconnect brown-out window."""
    return FaultSchedule(
        [LinkDegradation(time, duration, bandwidth_factor, latency_factor)]
    )
