"""Jobs and the analytic duration model.

A job is one benchmark run (name, class, thread count).  Its duration
on a machine follows from the benchmark's instruction-class profile,
the target ISA's lowering expansion, the machine's per-class CPIs, and
Amdahl scaling over the thread count — the same quantities the
instruction-level execution engine charges, so the two models agree.
"""

import enum
import itertools
from dataclasses import dataclass
from typing import Optional

from repro.machine.interconnect import make_dolphin_pxh810
from repro.machine.machine import Machine
from repro.workloads.profiles import BenchProfile, profile_for


@dataclass(frozen=True)
class JobSpec:
    """What to run."""

    bench: str
    cls: str
    threads: int

    def profile(self) -> BenchProfile:
        return profile_for(self.bench)

    def __str__(self) -> str:
        return f"{self.bench}.{self.cls}x{self.threads}"


def job_duration(spec: JobSpec, machine: Machine, threads_granted: Optional[int] = None) -> float:
    """Seconds to run ``spec`` on ``machine`` with no co-runners."""
    profile = spec.profile()
    by_class = profile.instructions_by_class(spec.cls)
    isa = machine.isa
    cycles = 0.0
    for cls, count in by_class.items():
        cycles += count * isa.expansion(cls) * machine.cpu.cpi.get(cls, 1.0)
    serial = cycles / machine.cpu.freq_hz
    threads = threads_granted if threads_granted is not None else spec.threads
    threads = max(1, min(threads, machine.cpu.cores))
    p = profile.parallel_fraction
    speedup = 1.0 / ((1.0 - p) + p / threads)
    return serial / speedup


class JobState(enum.Enum):
    PENDING = "pending"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"  # lost to a crash with no recovery path


class Job:
    """One job instance inside a cluster simulation."""

    _ids = itertools.count(1)

    def __init__(self, spec: JobSpec, arrival: float):
        self.job_id = next(Job._ids)
        self.spec = spec
        self.arrival = arrival
        self.state = JobState.PENDING
        self.machine: Optional[str] = None
        # Fraction of total demand still to execute (1 -> 0).
        self.remaining_fraction = 1.0
        self.started_at: Optional[float] = None
        self.finished_at: Optional[float] = None
        self.migrations = 0
        # Fault-recovery accounting (repro.faults).
        self.evacuations = 0  # live-migration drains off a dying node
        self.restarts = 0  # checkpoint/restart recoveries
        self.lost_seconds = 0.0  # progress discarded by C/R rollbacks

    @property
    def threads(self) -> int:
        return self.spec.threads

    def response_time(self) -> float:
        if self.finished_at is None:
            raise ValueError(f"job {self} not finished")
        return self.finished_at - self.arrival

    def __repr__(self) -> str:
        return f"Job#{self.job_id}({self.spec}, {self.state.value})"


#: Interconnect bandwidth every simulator prices migrations at when
#: no fault degrades it: the Dolphin PXH810 link.
DEFAULT_INTERCONNECT_BW = make_dolphin_pxh810().bandwidth_bytes_per_s

# The one migration price table.  ``migration_penalty`` (cluster and
# fleet jobs) and the serving hand-off's blackout phases and warm-up
# surcharges read these components, so all three simulators price a
# move from the same numbers.
#: Reaching the next migration point: half a 50M-instruction quantum.
RESPONSE_S = 0.010
#: Stack transformation, per thread.
TRANSFORM_S = 0.0006
#: The resume-token hand-off message, per thread.
HANDOFF_S = 0.0002
#: Replicated proc-table write (serving PUBLISH).
PUBLISH_S = 0.0002
#: Destination rebind (serving COMMIT).
COMMIT_S = 0.0001
#: Share of the working set a serving TRANSFER pushes eagerly; the
#: rest is pulled on demand after COMMIT.
HOT_FRACTION = 0.1


def migration_penalty(spec: JobSpec, interconnect_bw: float) -> float:
    """Seconds a migration costs a job.

    Migration response (reaching the next migration point, one
    scheduling quantum at worst — take half), stack transformation for
    every thread, the kernel hand-off, and the post-migration DSM
    working-set pull at interconnect bandwidth.
    """
    response = RESPONSE_S
    transform = TRANSFORM_S * spec.threads
    handoff = HANDOFF_S * spec.threads
    footprint = spec.profile().params(spec.cls).footprint_bytes
    dsm_pull = footprint / interconnect_bw
    return response + transform + handoff + dsm_pull
