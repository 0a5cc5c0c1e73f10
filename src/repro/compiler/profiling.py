"""Valgrind-style migration-gap profiling (Section 5.2.1, Figures 3-5).

The paper built a Valgrind tool counting instructions between migration
points.  Here the execution engine reports every migration-point hit to
a :class:`GapProfile`, which attributes the instruction gap to the site
where it ended and produces the log-decade histograms of Figures 3-5.
"""

import math
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.sim.numeric import ordered_mean

HISTOGRAM_DECADES = 11  # 10^0 .. 10^10, as in the figures


@dataclass
class GapProfile:
    """Instruction gaps between consecutive migration points."""

    # site key -> list of gaps ending at that site (per thread merged).
    gaps_by_site: Dict[Tuple[str, int], List[int]] = field(
        default_factory=lambda: defaultdict(list)
    )

    def record(self, function: str, point_id: int, gap: int) -> None:
        if gap > 0:
            self.gaps_by_site[(function, point_id)].append(gap)

    def site_means(self) -> Dict[Tuple[str, int], float]:
        return {
            site: ordered_mean(gaps)
            for site, gaps in self.gaps_by_site.items()
            if gaps
        }

    def all_gaps(self) -> List[int]:
        out: List[int] = []
        for gaps in self.gaps_by_site.values():
            out.extend(gaps)
        return out

    def max_gap(self) -> int:
        gaps = self.all_gaps()
        return max(gaps) if gaps else 0

    def hot_functions(self, target_gap: float) -> List[str]:
        """Functions containing a site whose mean gap exceeds the target."""
        hot = set()
        for (function, _point), mean in self.site_means().items():
            if mean > target_gap:
                hot.add(function)
        return sorted(hot)

    def decade_histogram(self) -> List[int]:
        """Frequency of sites per log10 decade of mean gap (Figures 3-5).

        Bucket ``i`` counts sites whose mean gap lies in
        ``[10^i, 10^(i+1))``; this is the "Average # of instructions
        between function calls" axis of the paper's figures.
        """
        buckets = [0] * HISTOGRAM_DECADES
        for mean in self.site_means().values():
            if mean < 1:
                continue
            decade = min(int(math.log10(mean)), HISTOGRAM_DECADES - 1)
            buckets[decade] += 1
        return buckets

    def format_histogram(self, title: str = "") -> str:
        lines = []
        if title:
            lines.append(title)
        for decade, count in enumerate(self.decade_histogram()):
            bar = "#" * count
            lines.append(f"  10^{decade:<2} {count:4d} {bar}")
        return "\n".join(lines)


class GapRecorder:
    """Per-thread hook the execution engine drives.

    Tracks the running instruction count and, at every migration point,
    hands the gap since the previous point to the shared profile.
    """

    def __init__(self, profile: GapProfile):
        self.profile = profile
        self._last_count: Dict[int, float] = {}

    def on_migration_point(
        self, tid: int, function: str, point_id: int, cumulative_instrs: float
    ) -> None:
        last = self._last_count.get(tid, 0.0)
        gap = int(cumulative_instrs - last)
        self._last_count[tid] = cumulative_instrs
        self.profile.record(function, point_id, gap)
