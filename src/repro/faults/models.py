"""Fault models for the datacenter simulation.

The paper's value proposition — evacuating work across the ISA boundary
via live migration instead of stop-the-world checkpoint/restore — only
matters in a fleet where machines degrade and die.  These models give
the DES that fleet: node crashes (permanent, or transient with a repair
time), interconnect degradation windows, network partitions, and
per-message loss/corruption for the kernel messaging layer.

Every stochastic generator draws from a named
:class:`~repro.sim.rng.DeterministicRng` stream, so a seed plus a
schedule fully determines a run (the same discipline the arrival
generators follow).
"""

import math
from dataclasses import dataclass
from typing import ClassVar, Sequence, Tuple

from repro.faults.inject import FaultSchedule
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


@dataclass(frozen=True)
class MessageFaultModel:
    """Per-message loss/corruption probabilities for the messaging
    layer (consumed by :class:`~repro.faults.inject.FaultyMessagingLayer`).

    The defaults model today's lossless interconnect, so wiring the
    model through changes nothing until a probability is raised.
    """

    loss_probability: float = 0.0
    corruption_probability: float = 0.0

    @property
    def lossless(self) -> bool:
        return self.loss_probability <= 0.0 and self.corruption_probability <= 0.0


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
