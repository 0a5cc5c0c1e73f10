"""Recording power and load traces from a running system.

One :class:`PowerRecorder` per experiment: it attaches a 100 Hz sampler
to every machine's sensors (CPU power, system power, load) and exposes
per-machine :class:`MachineTraces` plus energy integration helpers.
"""

from dataclasses import dataclass
from typing import Dict, Optional

from repro.sim.numeric import ordered_sum
from repro.sim.trace import Sampler, TimeSeries


@dataclass
class MachineTraces:
    """The three traces Figure 11 shows per machine."""

    machine: str
    cpu_power: TimeSeries
    system_power: TimeSeries
    load: TimeSeries

    def cpu_energy(self, t0: Optional[float] = None, t1: Optional[float] = None) -> float:
        """Integrated CPU (internal) energy in joules over [t0, t1]."""
        return self.cpu_power.integrate(t0, t1)

    def system_energy(self, t0: Optional[float] = None, t1: Optional[float] = None) -> float:
        """Integrated wall-socket energy in joules over [t0, t1]."""
        return self.system_power.integrate(t0, t1)


class PowerRecorder:
    """Samples every machine of a system at a fixed rate."""

    def __init__(self, system, rate_hz: float = 100.0):
        self.system = system
        self.sampler = Sampler(rate_hz)
        self.traces: Dict[str, MachineTraces] = {}
        for name, machine in system.machines.items():
            cpu = self.sampler.add_probe(f"{name}.cpu_w", machine.cpu_power)
            sys_p = self.sampler.add_probe(f"{name}.sys_w", machine.system_power)
            load = self.sampler.add_probe(
                f"{name}.load", lambda m=machine: m.utilization() * 100.0
            )
            self.traces[name] = MachineTraces(name, cpu, sys_p, load)

    def finish(self) -> None:
        """Record any ticks up to the current simulated time."""
        self.sampler.sample_until(self.system.clock.now)

    def total_cpu_energy(self) -> float:
        """Summed CPU energy over every machine."""
        return ordered_sum(t.cpu_energy() for t in self.traces.values())

    def total_system_energy(self) -> float:
        """Summed wall-socket energy over every machine."""
        return ordered_sum(t.system_energy() for t in self.traces.values())

    def machine(self, name: str) -> MachineTraces:
        """The recorded traces for machine ``name``."""
        return self.traces[name]
