"""Wave policies for fleet-wide ISA migration.

A *wave* moves a batch of services from the source ISA to the target
ISA.  The policy follows the playbook of warehouse-scale ISA migrations
(PAPERS.md: "Instruction Set Migration at Warehouse Scale"): a small
canary first, then a ramp schedule of growing cumulative fractions,
with a bake period between waves and an automatic pause when the SLO
signal regresses — the fleet analogue of PR-9's latency-aware
migration gate.
"""

from dataclasses import dataclass
from typing import List, Tuple


@dataclass(frozen=True)
class WavePolicy:
    """When and how much of the service population migrates.

    ``canary_fraction`` is the first wave; ``ramp`` is the *cumulative*
    migrated fraction after each subsequent wave (the last entry is
    normally 1.0).  Waves fire every ``wave_interval_s`` of simulated
    time, after an initial ``bake_s`` warm-up that establishes the SLO
    baseline.  If SLO attainment measured over the inter-wave window
    drops more than ``regression_threshold`` below the baseline, the
    wave *pauses*: no services move, and the next window must recover
    before the ramp resumes.
    """

    canary_fraction: float = 0.05
    ramp: Tuple[float, ...] = (0.25, 0.5, 1.0)
    wave_interval_s: float = 60.0
    bake_s: float = 30.0
    regression_threshold: float = 0.05

    def __post_init__(self):
        if not 0.0 < self.canary_fraction <= 1.0:
            raise ValueError("canary_fraction must be in (0, 1]")
        last = self.canary_fraction
        for frac in self.ramp:
            if frac < last:
                raise ValueError(
                    f"ramp must be non-decreasing from the canary: {self.ramp}"
                )
            last = frac
        if self.wave_interval_s <= 0:
            raise ValueError("wave_interval_s must be positive")
        if not self.bake_s >= 0:
            raise ValueError(f"bake_s must be >= 0, got {self.bake_s}")
        if not self.regression_threshold >= 0:
            raise ValueError(
                f"regression_threshold must be >= 0, got {self.regression_threshold}"
            )

    def targets(self) -> Tuple[float, ...]:
        """Cumulative migrated fraction after wave 1, 2, ..."""
        return (self.canary_fraction,) + tuple(self.ramp)

    def wave_times(self, horizon_s: float) -> List[float]:
        """Scheduled wave firing times within the horizon.

        One slot per ramp step; paused waves consume a slot without
        moving services, so the simulator keeps scheduling follow-up
        slots at the same cadence until the ramp completes or the
        horizon ends.
        """
        times = []
        t = self.bake_s
        while t < horizon_s:
            times.append(t)
            t += self.wave_interval_s
        return times


@dataclass
class WaveReport:
    """What one wave slot actually did (rendered by ``repro fleet``)."""

    index: int
    time: float
    target_fraction: float  # cumulative ramp target for this slot
    migrated: int  # services moved this slot
    cumulative_migrated: int
    paused: bool  # regression gate held the wave
    attainment_before: float  # SLO attainment over the preceding window
    baseline_attainment: float
    stall_seconds: float  # summed migration stalls paid this slot
    deferred: int = 0  # services that found no free target slot

    def describe(self) -> str:
        """One-line summary for logs and tables."""
        state = "paused" if self.paused else f"+{self.migrated}"
        return (
            f"wave {self.index} @ {self.time:.0f}s: {state} "
            f"(cum {self.cumulative_migrated}, "
            f"attain {self.attainment_before:.3f})"
        )


def plan_counts(targets: Tuple[float, ...], population: int) -> List[int]:
    """Cumulative service *counts* for each ramp target.

    Rounds half-up per target and forces the final target to cover the
    whole population when it is 1.0, so no service is stranded by
    rounding.
    """
    counts = []
    for frac in targets:
        count = min(population, int(frac * population + 0.5))
        if frac >= 1.0:
            count = population
        counts.append(count)
    return counts
