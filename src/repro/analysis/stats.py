"""Summary statistics for benchmark results."""

import math
from dataclasses import dataclass
from typing import Sequence

from repro.sim.numeric import ordered_mean
from repro.telemetry.metrics import quantile as _quantile


@dataclass(frozen=True)
class FiveNumber:
    """Min / Q1 / median / Q3 / max — the Figure 10 box-plot stats."""

    minimum: float
    q1: float
    median: float
    q3: float
    maximum: float

    def __str__(self) -> str:
        return (
            f"min={self.minimum:.6g} q1={self.q1:.6g} med={self.median:.6g} "
            f"q3={self.q3:.6g} max={self.maximum:.6g}"
        )


def five_number_summary(values: Sequence[float]) -> FiveNumber:
    if not values:
        raise ValueError("no data for a five-number summary")
    data = sorted(values)
    return FiveNumber(
        minimum=data[0],
        q1=_quantile(data, 0.25),
        median=_quantile(data, 0.5),
        q3=_quantile(data, 0.75),
        maximum=data[-1],
    )


def geomean(values: Sequence[float]) -> float:
    data = [v for v in values if v > 0]
    if not data:
        return 0.0
    return math.exp(ordered_mean([math.log(v) for v in data]))
