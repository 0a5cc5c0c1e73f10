"""A server: CPU + memory + caches + power, with live load tracking.

The kernel (repro.kernel) marks threads running/blocked on a machine;
the power sensors and the Figure 11 load traces read the resulting
core occupancy.
"""

from typing import Optional

from repro.isa import Isa, get_isa
from repro.machine.cache import CacheModel, make_l1d, make_l1i
from repro.machine.cpu import CpuModel, make_xeon_cpu, make_xgene_cpu
from repro.machine.memory import MemoryModel, make_xeon_memory, make_xgene_memory
from repro.machine.power import (
    PowerModel,
    PowerSensors,
    make_xeon_power,
    make_xgene_power,
)
from repro.sim.clock import Clock


class Machine:
    """One physical server in the testbed."""

    def __init__(
        self,
        name: str,
        isa: Isa,
        cpu: CpuModel,
        memory: MemoryModel,
        power: PowerModel,
        clock: Optional[Clock] = None,
    ):
        self.name = name
        self.isa = isa
        self.cpu = cpu
        self.memory = memory
        self.power = power
        self.l1i: CacheModel = make_l1i()
        self.l1d: CacheModel = make_l1d()
        self.clock = clock if clock is not None else Clock()
        # Live load: number of runnable/running threads placed here.
        self._running_threads = 0
        self._io_busy_until = 0.0
        # Lifetime counters.
        self.instructions_retired = 0.0
        self.busy_core_seconds = 0.0

    # ------------------------------------------------------------- load

    @property
    def running_threads(self) -> int:
        return self._running_threads

    def thread_started(self) -> None:
        self._running_threads += 1

    def thread_stopped(self) -> None:
        if self._running_threads <= 0:
            raise RuntimeError(f"{self.name}: thread count underflow")
        self._running_threads -= 1

    def active_cores(self) -> float:
        return float(min(self._running_threads, self.cpu.cores))

    def utilization(self) -> float:
        """Fraction of cores busy, 0..1 (Figure 11's 'Load %' / 100)."""
        return self.active_cores() / self.cpu.cores

    # --------------------------------------------------------------- io

    def note_io_activity(self, duration_s: float) -> None:
        """Mark the interconnect/DSM path busy for ``duration_s``."""
        end = self.clock.now + duration_s
        self._io_busy_until = max(self._io_busy_until, end)

    def io_active(self) -> bool:
        return self.clock.now < self._io_busy_until

    # ------------------------------------------------------- accounting

    def charge_execution(self, instret: float, seconds: float) -> None:
        """Commit one engine slice's retired work in a single batch.

        Both the exact interpreter and the fast-forward engine charge
        lifetime counters only here, once per slice, so the two engines
        update machine state at the same commit points with the same
        floating-point additions.
        """
        self.instructions_retired += instret
        self.busy_core_seconds += seconds

    # ------------------------------------------------------------ power

    @property
    def sensors(self) -> PowerSensors:
        return PowerSensors(self.power, self.active_cores, self.io_active)

    def cpu_power(self) -> float:
        return self.sensors.cpu_power()

    def system_power(self) -> float:
        return self.sensors.system_power()

    # ------------------------------------------------------------ misc

    def __repr__(self) -> str:
        return f"Machine({self.name}, {self.isa.name}, {self.cpu.cores} cores)"


def make_xgene1(name: str = "arm-server", clock: Optional[Clock] = None) -> Machine:
    """The ARM development board of the evaluation (Section 6)."""
    return Machine(
        name=name,
        isa=get_isa("arm64"),
        cpu=make_xgene_cpu(),
        memory=make_xgene_memory(),
        power=make_xgene_power(),
        clock=clock,
    )


def make_xeon_e5_1650v2(
    name: str = "x86-server", clock: Optional[Clock] = None
) -> Machine:
    """The x86 server of the evaluation (Section 6)."""
    return Machine(
        name=name,
        isa=get_isa("x86_64"),
        cpu=make_xeon_cpu(),
        memory=make_xeon_memory(),
        power=make_xeon_power(),
        clock=clock,
    )


def machine_for_isa(isa: str, name: str, clock: Optional[Clock] = None) -> Machine:
    """Build the reference machine model for an ISA name.

    ``x86`` (or ``x86-64``) maps to the Xeon E5-1650 v2; ``arm`` (or
    ``arm64``) to the X-Gene 1 — the two servers of the paper's testbed.
    """
    key = isa.lower()
    if key in ("x86", "x86-64", "x86_64"):
        return make_xeon_e5_1650v2(name, clock)
    if key in ("arm", "arm64", "aarch64"):
        return make_xgene1(name, clock)
    raise ValueError(f"no reference machine for ISA {isa!r}")
