"""Benchmark workloads (Section 6, "Benchmarks").

The paper evaluates with the NAS Parallel Benchmarks (classes A/B/C,
1-8 threads), plus bzip2smp, the Verus model checker, and Redis (for
the emulation comparison).  Each workload here is a real program in the
repro IR: it performs a scaled-down *verifiable* computation (the
checksum must survive migration bit-for-bit) while calibrated ``work``
bursts carry the full-size instruction counts and memory footprints of
the original benchmark classes.
"""

from repro._lazy import lazy_exports

__getattr__ = lazy_exports(__name__, {
    ".profiles": "profile_for",
    ".registry": "REGISTRY build_workload workload_names",
})
