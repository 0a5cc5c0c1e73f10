"""Serving policies: where the KV service lives, and when it moves.

At every decision epoch the engine hands the policy a
:class:`~repro.serving.engine.ServingView` (queue depth, arrival-rate
estimates, per-machine service times, SLO target, hand-off blackout
estimate, which machines are up and which breakers are open) and the
policy answers with a :class:`Decision` — migrate the service,
explicitly defer, or do nothing.

The catalog:

* ``static-x86`` / ``static-arm`` — the service is pinned; the
  baselines every dynamic policy is judged against.
* ``queue-reactive`` — naive hysteresis on instantaneous queue depth:
  burst to x86 when the queue passes a threshold, snap back to ARM the
  moment it drains.  No prediction, no cooldown — it flaps, and its
  hand-off stalls land mid-load.
* ``latency-aware`` — gates every move on *predicted tail latency*:
  upgrades to the fast machine when the predicted tail breaches the
  SLO, drains to the efficient machine only in a stable trough with
  tail headroom, and defers drains while a flash crowd is building
  (rising arrival rate), so the blackout never lands on the surge.
"""

from dataclasses import dataclass
from typing import Dict, Optional, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.serving.engine import ServingView


@dataclass(frozen=True)
class Decision:
    """One serving-policy verdict at a decision epoch.

    ``target`` names the machine to migrate the service to; ``None``
    records an *explicit deferral* (the policy wanted to move but the
    traffic gated it) — the engine emits it as a telemetry span either
    way, so traces show why a hand-off did or did not happen.
    """

    target: Optional[str]
    reason: str


def node_available(view: "ServingView", machine: str) -> bool:
    """Is ``machine`` a sane migration target right now: up (alive and
    unfenced) with its circuit breaker closed?  On a fault-free run
    every machine is."""
    return view.nodes_up[machine] and not view.breaker_open[machine]


def predicted_tail_s(view: "ServingView", machine: str) -> float:
    """Predicted tail latency if the service ran on ``machine`` now.

    A deterministic M/D/1-flavoured estimate documented in
    ``docs/serving.md``: drain the current backlog at that machine's
    service rate, then add service time plus three mean queueing waits
    (``ρs / 2(1-ρ)``) for the tail.  Saturated (``ρ >= 0.97``) predicts
    infinity.
    """
    service_s = view.service_s[machine]
    rho = view.rate * service_s
    if rho >= 0.97:
        return float("inf")
    backlog = view.queue_depth * service_s
    mean_wait = rho * service_s / (2.0 * (1.0 - rho))
    return backlog + service_s + 3.0 * mean_wait


class ServingPolicy:
    """Base serving policy: place once on the preferred machine, never move."""

    name = "serving-base"
    #: ISA the service boots on (engine resolves it to a machine name).
    preferred_isa = "x86_64"

    def start_machine(self, machines: Dict[str, str]) -> str:
        """Pick the boot machine from ``{machine_name: isa_name}``."""
        for name, isa in sorted(machines.items()):
            if isa == self.preferred_isa:
                return name
        return sorted(machines)[0]

    def decide(self, view: "ServingView") -> Optional[Decision]:
        """Called every decision epoch; static policies never move."""
        return None


class StaticX86Serving(ServingPolicy):
    """Service pinned to the big x86 core: best latency, worst energy."""

    name = "static-x86"
    preferred_isa = "x86_64"


class StaticArmServing(ServingPolicy):
    """Service pinned to the efficient ARM core: best energy, worst tail."""

    name = "static-arm"
    preferred_isa = "arm64"


class QueueReactiveServing(ServingPolicy):
    """Naive dynamic baseline: hysteresis on instantaneous queue depth."""

    name = "queue-reactive"
    preferred_isa = "arm64"
    surge_queue = 12  # burst to the fast machine past this depth
    calm_queue = 0  # snap back the moment the queue fully drains

    def decide(self, view: "ServingView") -> Optional[Decision]:
        """Burst to the fastest machine once the queue passes
        ``surge_queue``; move back to the slowest once it is down to
        ``calm_queue``.  Never mid-migration, never to a machine that
        is down or whose breaker is open."""
        if view.migrating:
            return None
        fast = min(view.service_s, key=lambda m: (view.service_s[m], m))
        slow = max(view.service_s, key=lambda m: (view.service_s[m], m))
        if (
            view.machine != fast
            and view.queue_depth > self.surge_queue
            and node_available(view, fast)
        ):
            return Decision(fast, "queue-over-threshold")
        if (
            view.machine != slow
            and view.queue_depth <= self.calm_queue
            and node_available(view, slow)
        ):
            return Decision(slow, "queue-drained")
        return None


class LatencyAwareServing(ServingPolicy):
    """Tail-predictive policy: every move gated on predicted p-tail impact."""

    name = "latency-aware"
    preferred_isa = "arm64"
    #: Predicted tail must clear the SLO by this margin before a drain.
    drain_headroom = 0.5
    #: Utilisation cap on the efficient machine after a drain.
    drain_max_rho = 0.5
    #: Rising-rate gate: defer drains while rate > factor * previous rate.
    flash_rise_factor = 1.25
    #: Seconds between hand-offs (blackouts are not free).
    cooldown_s = 1.0

    def decide(self, view: "ServingView") -> Optional[Decision]:
        """Move to the fastest machine on shed load or a predicted tail
        breach it would fix; drain to the slowest only in a stable
        trough with tail headroom, past the cooldown, and defer that
        drain while the arrival rate is rising."""
        if view.migrating:
            return None
        fast = min(view.service_s, key=lambda m: (view.service_s[m], m))
        slow = max(view.service_s, key=lambda m: (view.service_s[m], m))
        if fast == slow:
            return None
        # Shed pressure: admission control dropping requests means the
        # current machine is overloaded beyond what the queue gates can
        # absorb — move to the fast machine immediately (if it is up
        # and its breaker is closed) rather than waiting for the tail
        # prediction to catch up.
        if (
            view.shed_recent > 0
            and view.machine != fast
            and node_available(view, fast)
        ):
            return Decision(fast, "shed-overload")
        # Upgrade: the predicted tail on the current machine breaches
        # the SLO and the fast machine would actually fix it (its
        # predicted tail, plus the hand-off blackout spread over the
        # queue, comes out lower).
        if view.machine != fast and node_available(view, fast):
            here = predicted_tail_s(view, view.machine)
            there = predicted_tail_s(view, fast) + view.blackout_s
            if here > view.slo_s and there < here:
                return Decision(fast, "predicted-tail-breach")
        # Drain: move to the efficient machine for energy, but only in
        # a stable trough — queue empty, utilisation low, predicted
        # tail clears the SLO with headroom — and never while a flash
        # crowd is building (rising arrival rate defers the blackout).
        if (
            view.machine != slow
            and view.since_commit_s >= self.cooldown_s
            and node_available(view, slow)
        ):
            rho_slow = view.rate * view.service_s[slow]
            tail_ok = (
                predicted_tail_s(view, slow)
                <= view.slo_s * self.drain_headroom
            )
            trough = view.queue_depth == 0 and rho_slow <= self.drain_max_rho
            rising = view.rate > self.flash_rise_factor * view.prev_rate
            if trough and tail_ok:
                if rising:
                    return Decision(None, "defer-flash-crowd")
                return Decision(slow, "trough-drain")
        return None


#: Name -> policy class; the ``repro serve --policy`` choices.
SERVING_POLICIES = {
    policy.name: policy
    for policy in (
        StaticX86Serving,
        StaticArmServing,
        QueueReactiveServing,
        LatencyAwareServing,
    )
}


def make_serving_policy(name: str) -> ServingPolicy:
    """Instantiate the named serving policy."""
    try:
        return SERVING_POLICIES[name]()
    except KeyError:
        raise KeyError(
            f"unknown serving policy {name!r}; have {sorted(SERVING_POLICIES)}"
        ) from None
