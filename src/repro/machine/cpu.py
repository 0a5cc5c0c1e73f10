"""CPU timing model.

Time is charged per machine instruction by :class:`InstrClass` CPI.
The numbers are calibrated so the per-core native performance ratio
between the Xeon and the X-Gene matches the published characterisation
studies the paper cites ([8], [38]): roughly 3-4x in favour of x86 on
compute-bound code, less on memory-bound code.
"""

from dataclasses import dataclass, field
from typing import Dict

from repro.isa.isa import InstrClass


@dataclass(frozen=True)
class CpuModel:
    """Per-core timing for one microarchitecture."""

    name: str
    isa_name: str
    cores: int
    freq_hz: float
    cpi: Dict[InstrClass, float] = field(default_factory=dict)
    syscall_cycles: float = 1500.0

    def cycles_for(self, counts: Dict[InstrClass, float]) -> float:
        """Cycles to retire ``counts`` machine instructions."""
        total = 0.0
        for cls, n in counts.items():
            total += n * self.cpi.get(cls, 1.0)
        return total

    def seconds_for(self, counts: Dict[InstrClass, float]) -> float:
        return self.cycles_for(counts) / self.freq_hz


# Intel Xeon E5-1650 v2 (Ivy Bridge-EP): wide out-of-order core.
XEON_CPI = {
    InstrClass.INT_ALU: 0.40,
    InstrClass.FP_ALU: 0.55,
    InstrClass.LOAD: 0.55,
    InstrClass.STORE: 0.60,
    InstrClass.BRANCH: 0.50,
    InstrClass.CALL: 1.20,
    InstrClass.RET: 1.20,
    InstrClass.MOV: 0.35,
    InstrClass.ATOMIC: 12.0,
    InstrClass.SYSCALL: 150.0,
    InstrClass.NOP: 0.25,
}

# APM X-Gene 1 (first-generation custom ARMv8): a modest out-of-order
# core that the IISWC'15 / E2SC'15 characterisations the paper cites
# ([8], [38]) place at roughly 4-6x slower than an Ivy Bridge Xeon core
# on server workloads once clock difference is included.
XGENE_CPI = {
    InstrClass.INT_ALU: 1.70,
    InstrClass.FP_ALU: 2.70,
    InstrClass.LOAD: 2.20,
    InstrClass.STORE: 2.20,
    InstrClass.BRANCH: 1.85,
    InstrClass.CALL: 3.40,
    InstrClass.RET: 3.40,
    InstrClass.MOV: 1.35,
    InstrClass.ATOMIC: 40.0,
    InstrClass.SYSCALL: 650.0,
    InstrClass.NOP: 0.85,
}


def make_xeon_cpu() -> CpuModel:
    return CpuModel(
        name="Xeon E5-1650 v2",
        isa_name="x86_64",
        cores=6,  # hyper-threading disabled in the evaluation
        freq_hz=3.5e9,
        cpi=dict(XEON_CPI),
        syscall_cycles=1200.0,
    )


def make_xgene_cpu() -> CpuModel:
    return CpuModel(
        name="APM X-Gene 1",
        isa_name="arm64",
        cores=8,
        freq_hz=2.4e9,
        cpi=dict(XGENE_CPI),
        syscall_cycles=2000.0,
    )
