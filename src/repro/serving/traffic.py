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
reproduces the trace bit-for-bit.  ``Λ⁻¹`` is closed-form for
``steady`` and ``flash-crowd``.  For ``diurnal`` it is, bit for bit,
what a 60-halving bisection of ``[0, H]`` returns
(:func:`_invert_monotone`, kept as the fallback and the tests' oracle);
:func:`_invert_cycle` finds the root by Newton and evaluates ``Λ`` only
at the midpoints close enough to it for rounding to decide the halving:
about a tenth of the bisection's cosines on the serving sweep's trace.

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
from itertools import repeat, starmap
from typing import Callable, Dict, Iterator, List, Sequence, Tuple

from repro.datacenter.arrivals import DEFAULT_MIX
from repro.datacenter.job import JobSpec
from repro.sim.rng import DeterministicRng


#: Arrivals formatted per SHA-256 update by :meth:`ArrivalTrace.checksum`.
CHECKSUM_CHUNK = 4096

#: Halvings of ``[0, H]`` per arrival in the bisection inverse.
HALVINGS = 60

#: Newton steps an arrival's root may take before that arrival falls
#: back to :func:`_invert_monotone`.
NEWTON_STEPS = 6

#: The unit roundoff of a double: a rounded operation errs by at most
#: this much of its result.
_ROUNDOFF = 2.0 ** -53


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
    uniforms = list(starmap(draw, repeat((), count)))
    uniforms.sort()
    return uniforms


def _invert_monotone(
    cumulative: Callable[[float], float],
    target: float,
    horizon_s: float,
    iterations: int = HALVINGS,
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


def _invert_cycle(
    uniforms: List[float],
    horizon_s: float,
    amp: float,
    omega: float,
    phase: float,
) -> Iterator[float]:
    """The diurnal inverse: for each sorted uniform ``u``, yield what
    :func:`_invert_monotone` returns for the target ``u * total``, bit
    for bit, evaluating the cumulative only where it can decide a
    halving.

    The cumulative is ``Λ(t) = t + k·(cos φ − cos(ωt + φ))``, with
    ``k = amp / ω``; its slope ``1 + amp·sin(ωt + φ)`` is at least the
    intensity floor ``1 − amp``.

    * **The root.**  Newton from the previous arrival's root (targets
      are sorted) stops once a step is at most a tenth of the band.
      An arrival whose Newton has not stopped after
      :data:`NEWTON_STEPS` steps, or whose root leaves ``[0, H]``,
      falls back to :func:`_invert_monotone`.
    * **The band.**  A midpoint more than the band away from the root
      lies on the root's side whatever the cumulative's rounding, so
      ``mid < root`` decides it; only inside the band is ``Λ`` computed.
    * **The jump.**  While midpoints are exact multiples of
      ``H / 2**k``, the bracket after ``k`` halvings that each went the
      root's way is the grid cell around the root, so those halvings
      are skipped.  A grid point inside the band was a midpoint that
      ``Λ`` decided: the jump then stops at the level where it was.
    * **The fixed point.**  Once ``mid`` equals ``lo`` or ``hi``, the
      bracket cannot change again.
    """
    cos, sin = math.cos, math.sin
    horizon_s = float(horizon_s)
    scale = amp / omega
    base = cos(phase)

    def cumulative(t: float) -> float:
        return t + scale * (base - cos(omega * t + phase))

    total = cumulative(horizon_s)
    floor = 1.0 - amp
    # The cumulative's rounding error on [0, H], term by term: ω·t and
    # + φ put an error of roundoff·(2ωH + |φ|) into the argument; cos
    # errs by its last place (2 roundoffs of a value at most 1), the
    # subtraction from cos φ and the product with k by 2 roundoffs of k
    # each, all scaled by k; the final add by one roundoff of H + 2k.
    # Doubled for cos's own error bound and the second-order terms.
    err = 2 * _ROUNDOFF * (
        horizon_s + scale * (2 * omega * horizon_s + abs(phase) + 8)
    )
    if floor > 0:
        # The band is four times err / floor: one for the midpoint's own
        # rounding, one for the residual's at Newton's last iterate, two
        # for Newton's last step and the roundings of r - step and
        # r ± band.  That step is at most band / 10 and misjudges the
        # root by at most its length times `model`: the slope's rounding
        # error plus its change over the iterate's distance to the root
        # (at most `reach`), over the floor.
        band = 4 * err / floor
        reach = ((1 + amp) * band / 10 + err) / floor
        model = (
            _ROUNDOFF * (2 * omega * horizon_s + 8) + amp * omega * reach
        ) / floor
    if not (floor > 0 and model <= 1):
        # No floor, or one too low for Newton's last step to be judged.
        for u in uniforms:
            yield _invert_monotone(cumulative, u * total, horizon_s)
        return
    tol = band / 10
    # A midpoint after k halvings is an odd multiple of H / 2**k below
    # 2**k of them, so it takes at most k plus H's significant bits:
    # exact while that is at most 53.  The jump goes to the deepest such
    # level whose cell is wider than three bands (twice the band plus
    # the roundings of r ± band), so at most one grid point lies inside
    # the band.
    num = horizon_s.as_integer_ratio()[0]
    cap = 53 - (num // (num & -num)).bit_length()
    level = 0
    while level < cap and horizon_s / 2 ** (level + 1) > 3 * band:
        level += 1
    cell = horizon_s / 2 ** level
    last = 2 ** level - 1
    root, prev, slope = 0.0, 0.0, total / horizon_s  # the mean slope
    for u in uniforms:
        target = u * total
        r = root + (target - prev) / slope
        for _ in range(NEWTON_STEPS):
            theta = omega * r + phase
            slope = 1.0 + amp * sin(theta)
            step = (r + scale * (base - cos(theta)) - target) / slope
            r -= step
            if -tol <= step <= tol:
                break
        else:
            r = -1.0
        if not 0.0 <= r <= horizon_s:
            r = _invert_monotone(cumulative, target, horizon_s)
            root, prev, slope = r, target, 1.0 + amp * sin(omega * r + phase)
            yield r
            continue
        root, prev = r, target
        left, right = r - band, r + band
        i = min(int(r / cell), last)
        lo = i * cell
        # 0 and H are never midpoints, so they may lie inside the band.
        if lo and lo >= left:
            inside = i
        elif i < last and (i + 1) * cell <= right:
            inside = i + 1
        else:
            inside = 0
        if inside:
            half = inside & -inside
            done = level - half.bit_length()
            lo, hi = (inside - half) * cell, (inside + half) * cell
        else:
            done = level
            hi = (i + 1) * cell
        for _ in range(HALVINGS - done):
            mid = 0.5 * (lo + hi)
            if mid == lo or mid == hi:
                break
            if mid < left:
                lo = mid
            elif mid > right:
                hi = mid
            elif mid + scale * (base - cos(omega * mid + phase)) < target:
                lo = mid
            else:
                hi = mid
        yield 0.5 * (lo + hi)


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
    if not (math.isfinite(peak_to_trough) and peak_to_trough >= 1.0):
        raise ValueError(
            f"peak_to_trough must be finite and >= 1, got {peak_to_trough}"
        )
    if not (math.isfinite(periods) and periods > 0):
        raise ValueError(f"periods must be positive and finite, got {periods}")
    amp = (peak_to_trough - 1.0) / (peak_to_trough + 1.0)
    omega = 2.0 * math.pi * periods / horizon_s
    if not (0 < omega < math.inf and math.isfinite(amp / omega)):
        raise ValueError(
            f"periods {periods} over a {horizon_s} s horizon has no finite "
            "cycle rate"
        )
    times = _invert_cycle(
        _sorted_uniforms(rng, requests, stream),
        horizon_s, amp, omega, -math.pi / 2.0,
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
    if not (math.isfinite(surge_multiplier) and surge_multiplier >= 1.0):
        raise ValueError(
            f"surge_multiplier must be finite and >= 1, got {surge_multiplier}"
        )
    for name, frac in (
        ("surge_start_frac", surge_start_frac),
        ("surge_duration_frac", surge_duration_frac),
    ):
        if not (math.isfinite(frac) and frac >= 0):
            raise ValueError(f"{name} must be finite and >= 0, got {frac}")
    start = surge_start_frac * horizon_s
    duration = surge_duration_frac * horizon_s
    if start + duration > horizon_s:
        raise ValueError(
            "surge_start_frac + surge_duration_frac must be <= 1: "
            "the surge window extends past the horizon"
        )
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
