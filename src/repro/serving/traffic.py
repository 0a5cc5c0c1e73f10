"""Deterministic open-loop arrival traces for the serving subsystem.

A trace is a fixed, sorted sequence of request arrival times drawn from
a named *shape* — the time-varying intensity profiles real KV fleets
see:

* ``steady`` — homogeneous Poisson traffic (constant intensity);
* ``diurnal`` — a sinusoid-modulated day/night cycle (troughs are when
  a latency-aware policy drains the service to the efficient ARM box);
* ``flash-crowd`` — steady base traffic with a step surge window (the
  regime that punishes a mis-timed hand-off hardest).

Every shape draws exactly ``requests`` arrivals by inverse-CDF sampling
of its cumulative intensity: one sorted batch of uniforms from a named
:class:`~repro.sim.rng.DeterministicRng` stream is mapped through
``Λ⁻¹``, so the total request count is conserved by construction (the
shape only redistributes *when* the requests land) and the same seed
reproduces the trace bit-for-bit.

A trace stores its times as packed, read-only doubles (8 bytes per
arrival, not the 32 of a tuple of floats), so the fleet's million-job
day costs 8 MiB of trace.  Consumers use sequence operations only:
``len``, indexing, slicing, iteration and :mod:`bisect`.  Each shape
sorts one list of uniforms in place and streams its transform into the
packed buffer, so no second list of floats is ever alive, and
:meth:`ArrivalTrace.checksum` hashes the formatted times a chunk at a
time instead of building one payload string.

Traces compose with the batch layer: :func:`to_job_arrivals` subsamples
a trace into ``(time, JobSpec)`` pairs drawn from the existing
``datacenter.arrivals`` job mixes, so any traffic shape can also drive
``ClusterSimulator.run_periodic`` as background batch load.
"""

import bisect
import hashlib
import math
from array import array
from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence, Tuple

from repro.datacenter.arrivals import DEFAULT_MIX
from repro.datacenter.job import JobSpec
from repro.sim.rng import DeterministicRng


#: Arrivals formatted per SHA-256 update by :meth:`ArrivalTrace.checksum`.
CHECKSUM_CHUNK = 4096


def _check_horizon(horizon_s: float) -> None:
    """Reject a horizon no trace can have: NaN passes ``<= 0``, and an
    infinite one never ends a wave schedule."""
    if not (math.isfinite(horizon_s) and horizon_s > 0):
        raise ValueError(
            f"horizon_s must be positive and finite, got {horizon_s}"
        )


@dataclass(frozen=True)
class ArrivalTrace:
    """One open-loop request trace: sorted arrival times over a horizon.

    ``times`` may be any iterable of floats; the trace keeps them as a
    read-only ``memoryview`` of packed doubles.  It compares equal to a
    trace of the same values, and it is not hashable.
    """

    shape: str
    horizon_s: float
    times: Sequence[float]

    def __post_init__(self) -> None:
        # Every trace passes here, generated or built by hand, before
        # anything loops on its horizon.
        _check_horizon(self.horizon_s)
        packed = memoryview(array("d", self.times)).toreadonly()
        object.__setattr__(self, "times", packed)

    @property
    def requests(self) -> int:
        """Total number of requests in the trace."""
        return len(self.times)

    def mean_rate(self) -> float:
        """Average arrival rate over the horizon (requests/second)."""
        return self.requests / self.horizon_s

    def checksum(self) -> str:
        """A content digest of the trace (determinism tests, baselines).

        It hashes ``shape:`` and then the times with nine decimals,
        joined by commas, fed :data:`CHECKSUM_CHUNK` times at a time:
        the same bytes and digest as hashing one payload string, without
        holding every formatted time at once.
        """
        digest = hashlib.sha256(f"{self.shape}:".encode())
        times = self.times
        for start in range(0, len(times), CHECKSUM_CHUNK):
            if start:
                digest.update(b",")
            chunk = times[start:start + CHECKSUM_CHUNK]
            digest.update(",".join([f"{t:.9f}" for t in chunk]).encode())
        return digest.hexdigest()[:16]

    def arrivals_between(self, t0: float, t1: float) -> int:
        """How many requests arrived in ``[t0, t1)`` (rate estimation)."""
        return bisect.bisect_left(self.times, t1) - bisect.bisect_left(
            self.times, t0
        )


def _check_shape(requests: int, horizon_s: float) -> None:
    """Reject a count or horizon no trace can have: arrival times must
    be non-negative and sorted."""
    if requests < 0:
        raise ValueError(f"requests must be >= 0, got {requests}")
    _check_horizon(horizon_s)


def _sorted_uniforms(rng: DeterministicRng, count: int, stream: str) -> List[float]:
    draw = rng.stream(stream).random
    uniforms = [draw() for _ in range(count)]
    uniforms.sort()
    return uniforms


def _invert_monotone(
    cumulative: Callable[[float], float],
    target: float,
    horizon_s: float,
    iterations: int = 60,
) -> float:
    """Bisection inverse of a monotone cumulative intensity on [0, H]."""
    lo, hi = 0.0, horizon_s
    for _ in range(iterations):
        mid = 0.5 * (lo + hi)
        if cumulative(mid) < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def steady(
    rng: DeterministicRng,
    requests: int = 4000,
    horizon_s: float = 20.0,
    stream: str = "traffic",
) -> ArrivalTrace:
    """Homogeneous Poisson traffic: constant intensity over the horizon.

    Conditioned on the total count, Poisson arrivals are the order
    statistics of uniforms — which is exactly what we draw.
    """
    _check_shape(requests, horizon_s)
    times = (u * horizon_s for u in _sorted_uniforms(rng, requests, stream))
    return ArrivalTrace("steady", horizon_s, times)


def diurnal(
    rng: DeterministicRng,
    requests: int = 4000,
    horizon_s: float = 20.0,
    peak_to_trough: float = 4.0,
    periods: float = 1.0,
    stream: str = "traffic",
) -> ArrivalTrace:
    """Sinusoid-modulated traffic: ``periods`` day/night cycles.

    Intensity ``λ(t) = 1 + a·sin(ωt − π/2)`` (relative units) starts at
    the trough, peaks mid-cycle; ``a`` is set so the peak:trough ratio
    equals ``peak_to_trough``.
    """
    _check_shape(requests, horizon_s)
    if peak_to_trough < 1.0:
        raise ValueError("peak_to_trough must be >= 1")
    amp = (peak_to_trough - 1.0) / (peak_to_trough + 1.0)
    omega = 2.0 * math.pi * periods / horizon_s
    phase = -math.pi / 2.0

    def cumulative(t: float) -> float:
        return t + (amp / omega) * (math.cos(phase) - math.cos(omega * t + phase))

    total = cumulative(horizon_s)
    times = (
        _invert_monotone(cumulative, u * total, horizon_s)
        for u in _sorted_uniforms(rng, requests, stream)
    )
    return ArrivalTrace("diurnal", horizon_s, times)


def flash_crowd(
    rng: DeterministicRng,
    requests: int = 4000,
    horizon_s: float = 20.0,
    surge_start_frac: float = 0.4,
    surge_duration_frac: float = 0.15,
    surge_multiplier: float = 8.0,
    stream: str = "traffic",
) -> ArrivalTrace:
    """Steady base traffic with a step surge window.

    Intensity is 1 outside ``[start, start+duration)`` and
    ``surge_multiplier`` inside; the total request count is conserved,
    so the surge *concentrates* the trace's requests rather than adding
    load — the closed-form piecewise inverse keeps sampling exact.
    """
    _check_shape(requests, horizon_s)
    if surge_multiplier < 1.0:
        raise ValueError("surge_multiplier must be >= 1")
    start = surge_start_frac * horizon_s
    duration = surge_duration_frac * horizon_s
    if start + duration > horizon_s:
        raise ValueError("surge window extends past the horizon")
    total = horizon_s + (surge_multiplier - 1.0) * duration
    at_start = start
    at_end = start + surge_multiplier * duration

    def invert(target: float) -> float:
        if target <= at_start:
            return target
        if target <= at_end:
            return start + (target - at_start) / surge_multiplier
        return start + duration + (target - at_end)

    times = (
        invert(u * total) for u in _sorted_uniforms(rng, requests, stream)
    )
    return ArrivalTrace("flash-crowd", horizon_s, times)


#: Named shape registry; the ``repro serve --traffic`` choices.
TRAFFIC_SHAPES: Dict[str, Callable[..., ArrivalTrace]] = {
    "steady": steady,
    "diurnal": diurnal,
    "flash-crowd": flash_crowd,
}


def make_trace(shape: str, rng: DeterministicRng, **kwargs) -> ArrivalTrace:
    """Build the named traffic shape (see :data:`TRAFFIC_SHAPES`)."""
    try:
        generator = TRAFFIC_SHAPES[shape]
    except KeyError:
        raise KeyError(
            f"unknown traffic shape {shape!r}; have {sorted(TRAFFIC_SHAPES)}"
        ) from None
    return generator(rng, **kwargs)


def to_job_arrivals(
    trace: ArrivalTrace,
    rng: DeterministicRng,
    mix: Sequence[JobSpec] = DEFAULT_MIX,
    every: int = 200,
) -> List[Tuple[float, JobSpec]]:
    """Subsample a traffic shape into batch-job arrivals.

    Every ``every``-th request time becomes one job drawn from the
    ``datacenter.arrivals`` mix, so the same diurnal/flash-crowd shape
    that drives the serving engine can drive
    ``ClusterSimulator.run_periodic`` as background load.
    """
    if every < 1:
        raise ValueError("every must be >= 1")
    return [
        (t, rng.choice("jobmix", list(mix)))
        for t in trace.times[::every]
    ]
