"""Main-memory model: capacity plus stream bandwidth/latency.

Used for charging the time of bulk page transfers (hDSM) and of
memory-class ``work`` bursts; per-access latency is already folded into
the LOAD/STORE CPIs of the CPU model.
"""

from dataclasses import dataclass


@dataclass(frozen=True)
class MemoryModel:
    name: str
    capacity_bytes: int
    bandwidth_bytes_per_s: float
    latency_s: float = 90e-9


def make_xeon_memory() -> MemoryModel:
    return MemoryModel(
        name="DDR3-1866 x4 (Xeon)",
        capacity_bytes=16 * 1024**3,
        bandwidth_bytes_per_s=40e9,
        latency_s=80e-9,
    )


def make_xgene_memory() -> MemoryModel:
    return MemoryModel(
        name="DDR3-1600 x4 (X-Gene)",
        capacity_bytes=32 * 1024**3,
        bandwidth_bytes_per_s=25e9,
        latency_s=110e-9,
    )
