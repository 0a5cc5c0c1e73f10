"""Benchmark workloads (Section 6, "Benchmarks").

The paper evaluates with the NAS Parallel Benchmarks (classes A/B/C,
1-8 threads), plus bzip2smp, the Verus model checker, and Redis (for
the emulation comparison).  Each workload here is a real program in the
repro IR: it performs a scaled-down *verifiable* computation (the
checksum must survive migration bit-for-bit) while calibrated ``work``
bursts carry the full-size instruction counts and memory footprints of
the original benchmark classes.
"""

from repro.workloads.base import BenchProfile, ClassParams
from repro.workloads.registry import (
    REGISTRY,
    build_workload,
    profile_for,
    workload_names,
)

__all__ = [
    "BenchProfile",
    "ClassParams",
    "REGISTRY",
    "build_workload",
    "profile_for",
    "workload_names",
]
