"""Workload generators for the scheduling experiments.

Two arrival patterns, as evaluated in the paper:

* **sustained** (Figure 12): 40 jobs drawn uniformly from the benchmark
  mix; a fixed number run concurrently and "once a job finishes,
  another job is immediately scheduled in its place" (closed system);
* **periodic** (Figure 13): 5 waves of up to 14 jobs each, waves spaced
  uniformly between 60 and 240 seconds (open system with idle gaps).
"""

from typing import List, Sequence, Tuple

from repro.datacenter.job import JobSpec
from repro.sim.rng import DeterministicRng

# The paper's mix: short- and long-running, memory-, compute- and
# branch-intensive (NPB + Verus + bzip2smp).
DEFAULT_MIX: Tuple[JobSpec, ...] = (
    JobSpec("is", "A", 2),
    JobSpec("is", "B", 4),
    JobSpec("cg", "A", 2),
    JobSpec("cg", "B", 4),
    JobSpec("ft", "A", 4),
    JobSpec("ft", "B", 4),
    JobSpec("ep", "A", 4),
    JobSpec("ep", "B", 8),
    JobSpec("mg", "A", 2),
    JobSpec("mg", "B", 4),
    JobSpec("sp", "A", 4),
    JobSpec("bt", "A", 4),
    JobSpec("bzip2smp", "A", 2),
    JobSpec("bzip2smp", "B", 4),
    JobSpec("verus", "A", 1),
    JobSpec("verus", "B", 2),
)


def uniform_job_mix(
    rng: DeterministicRng,
    count: int,
    mix: Sequence[JobSpec] = DEFAULT_MIX,
    stream: str = "jobmix",
) -> List[JobSpec]:
    """Draw ``count`` specs uniformly from ``mix``."""
    return [rng.choice(stream, list(mix)) for _ in range(count)]


def sustained_backfill(
    rng: DeterministicRng,
    total_jobs: int = 40,
    concurrency: int = 4,
    mix: Sequence[JobSpec] = DEFAULT_MIX,
) -> Tuple[List[JobSpec], int]:
    """The Figure 12 workload: job list + target concurrency.

    The cluster simulator starts ``concurrency`` jobs at t=0 and
    back-fills from the remaining list on each completion, "without
    overloading any of the machines".
    """
    return uniform_job_mix(rng, total_jobs, mix), concurrency


def heavy_tailed_trace(
    rng: DeterministicRng,
    jobs: int = 60,
    horizon_s: float = 600.0,
    mix: Sequence[JobSpec] = DEFAULT_MIX,
) -> List[Tuple[float, JobSpec]]:
    """A Google-trace-style open arrival pattern.

    The paper cites the Google cluster analysis ([57]) for its duration
    spread ("execution times ranging from milliseconds to hundreds of
    seconds"): arrivals are Poisson-like over the horizon and the class
    draw is skewed so most jobs are small with a heavy tail of large
    ones (A:B:C ≈ 70:25:5).
    """
    arrivals: List[Tuple[float, JobSpec]] = []
    stream = rng.stream("trace")
    classes = ["A"] * 70 + ["B"] * 25 + ["C"] * 5
    t = 0.0
    for _ in range(jobs):
        t += stream.expovariate(jobs / horizon_s)
        base = rng.choice("jobmix", list(mix))
        cls = stream.choice(classes)
        if cls not in base.profile().classes:
            cls = "A"
        arrivals.append((t, JobSpec(base.bench, cls, base.threads)))
    return arrivals


def periodic_waves(
    rng: DeterministicRng,
    waves: int = 5,
    max_jobs_per_wave: int = 14,
    gap_range: Tuple[float, float] = (60.0, 240.0),
    mix: Sequence[JobSpec] = DEFAULT_MIX,
) -> List[Tuple[float, JobSpec]]:
    """The Figure 13 workload: (arrival_time, spec) pairs."""
    arrivals: List[Tuple[float, JobSpec]] = []
    t = 0.0
    for _ in range(waves):
        jobs_in_wave = rng.randint("wavesize", max_jobs_per_wave // 2, max_jobs_per_wave)
        for _ in range(jobs_in_wave):
            arrivals.append((t, rng.choice("jobmix", list(mix))))
        t += rng.uniform("wavegap", *gap_range)
    return arrivals
