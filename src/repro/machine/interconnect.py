"""The inter-server interconnect (Dolphin ICS PXH810).

A point-to-point PCIe non-transparent bridge: 64 Gb/s peak, ~1 us
one-way message latency.  The kernels' messaging layer and the hDSM
page-transfer path both charge time through this model.
"""

from dataclasses import dataclass


@dataclass
class Interconnect:
    name: str
    bandwidth_bytes_per_s: float
    latency_s: float
    per_message_cpu_s: float = 2e-6  # marshalling + doorbell cost

    # --- accounting -------------------------------------------------
    messages_sent: int = 0
    bytes_sent: int = 0

    def transfer_time(self, nbytes: int) -> float:
        """One-way time for a message of ``nbytes``."""
        return self.latency_s + nbytes / self.bandwidth_bytes_per_s

    def record(self, nbytes: int) -> None:
        self.messages_sent += 1
        self.bytes_sent += nbytes

    def reset_stats(self) -> None:
        self.messages_sent = 0
        self.bytes_sent = 0


def make_dolphin_pxh810() -> Interconnect:
    return Interconnect(
        name="Dolphin ICS PXH810",
        bandwidth_bytes_per_s=64e9 / 8,  # 64 Gb/s
        latency_s=1.0e-6,
    )


def make_10gbe() -> Interconnect:
    """A commodity alternative ("our prototype supports any other NIC")."""
    return Interconnect(
        name="10GbE",
        bandwidth_bytes_per_s=10e9 / 8,
        latency_s=20e-6,
        per_message_cpu_s=8e-6,
    )
