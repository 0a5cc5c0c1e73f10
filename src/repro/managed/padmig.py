"""The PadMig execution model.

PadMig (Gehweiler & Thies) migrates a running Java application by
serialising its reachable object graph, shipping it over the network,
and deserialising on the destination JVM — during which the application
makes no progress.  :class:`PadMigRuntime` simulates that timeline on a
:class:`~repro.kernel.kernel.PopcornSystem`, driving the machines' load
counters so the power recorder captures Figure 11-style traces.

Managed execution itself runs at ``java_slowdown`` relative to the
native binary (interpreter/JIT + bounds checks + GC), defaulting to the
~2x the paper observed for NPB IS (23 s vs 11 s end-to-end).
"""

from dataclasses import dataclass, field
from typing import List, Optional

from repro.managed.objects import ObjectGraph
from repro.managed.serializer import ReflectionSerializer
from repro.sim.numeric import ordered_sum

DEFAULT_JAVA_SLOWDOWN = 2.0


@dataclass
class PadMigPhase:
    name: str  # 'compute' | 'serialize' | 'transfer' | 'deserialize'
    machine: str
    start: float
    seconds: float

    @property
    def end(self) -> float:
        return self.start + self.seconds


@dataclass
class PadMigRun:
    phases: List[PadMigPhase] = field(default_factory=list)
    payload_bytes: int = 0
    objects: int = 0

    @property
    def total_seconds(self) -> float:
        return self.phases[-1].end - self.phases[0].start if self.phases else 0.0

    def migration_blackout_seconds(self) -> float:
        """Time the application makes no progress (serialise->deserialise)."""
        return ordered_sum(
            p.seconds
            for p in self.phases
            if p.name in ("serialize", "transfer", "deserialize")
        )

    def phase(self, name: str) -> PadMigPhase:
        for p in self.phases:
            if p.name == name:
                return p
        raise KeyError(name)


class PadMigRuntime:
    """Simulates PadMig migrations on the testbed."""

    def __init__(
        self,
        system,
        serializer: Optional[ReflectionSerializer] = None,
        java_slowdown: float = DEFAULT_JAVA_SLOWDOWN,
        tracer=None,
    ):
        self.system = system
        self.serializer = serializer or ReflectionSerializer()
        self.java_slowdown = java_slowdown
        # Inherit the hosting system's tracer (clock already bound), so
        # PadMig timelines land on the same trace as everything else.
        self.tracer = tracer if tracer is not None else getattr(
            system, "tracer", None
        )

    def _busy(self, machine_name: str, seconds: float, sampler=None) -> None:
        """Advance time with one core of ``machine_name`` busy."""
        machine = self.system.machines[machine_name]
        machine.thread_started()
        self._advance(seconds, sampler)
        machine.thread_stopped()

    def _advance(self, seconds: float, sampler=None) -> None:
        clock = self.system.clock
        clock.advance_by(seconds)
        if sampler is not None:
            sampler.sample_until(clock.now)

    def run_with_migration(
        self,
        graph: ObjectGraph,
        src_machine: str,
        dst_machine: str,
        native_compute_before_s: float,
        native_compute_after_s: float,
        dst_native_ratio: float = 1.0,
        sampler=None,
    ) -> PadMigRun:
        """Execute compute -> serialise -> transfer -> deserialise -> compute.

        ``native_compute_*`` are the native-binary durations of each
        half; managed execution multiplies them by ``java_slowdown``,
        and the destination half additionally by ``dst_native_ratio``
        (the destination machine's native slowdown for this code).
        """
        run = PadMigRun()
        clock = self.system.clock
        phases = run.phases

        before = native_compute_before_s * self.java_slowdown
        phases.append(PadMigPhase("compute", src_machine, clock.now, before))
        self._busy(src_machine, before, sampler)

        ser = self.serializer.serialize(graph, self.system.machines[src_machine])
        run.payload_bytes = ser.payload_bytes
        run.objects = ser.objects
        phases.append(PadMigPhase("serialize", src_machine, clock.now, ser.seconds))
        self._busy(src_machine, ser.seconds, sampler)

        transfer = self.system.messaging.interconnect.transfer_time(
            ser.payload_bytes
        )
        self.system.machines[src_machine].note_io_activity(transfer)
        self.system.machines[dst_machine].note_io_activity(transfer)
        phases.append(PadMigPhase("transfer", src_machine, clock.now, transfer))
        self._advance(transfer, sampler)

        deser = self.serializer.deserialize(
            ser, self.system.machines[dst_machine]
        )
        phases.append(
            PadMigPhase("deserialize", dst_machine, clock.now, deser.seconds)
        )
        self._busy(dst_machine, deser.seconds, sampler)

        after = (
            native_compute_after_s * self.java_slowdown * dst_native_ratio
        )
        phases.append(PadMigPhase("compute", dst_machine, clock.now, after))
        self._busy(dst_machine, after, sampler)

        if self.tracer is not None:
            self._emit_spans(run, src_machine, dst_machine)
        return run

    def _emit_spans(self, run: PadMigRun, src_machine: str, dst_machine: str) -> None:
        """One ``managed.run`` span with a child per PadMig phase."""
        tracer = self.tracer
        first = run.phases[0]
        parent = tracer.complete(
            "managed.run", "managed", first.start, run.total_seconds,
            track=src_machine, src=src_machine, dst=dst_machine,
            payload_bytes=run.payload_bytes, objects=run.objects,
            blackout_s=round(run.migration_blackout_seconds(), 9),
        )
        for phase in run.phases:
            tracer.complete(
                f"managed.{phase.name}", "managed", phase.start,
                phase.seconds, track=phase.machine, parent=parent,
            )
        tracer.metrics.counter("managed.migrations").inc()
        tracer.metrics.counter("managed.payload_bytes").inc(run.payload_bytes)
        tracer.metrics.histogram("managed.blackout_s").observe(
            run.migration_blackout_seconds()
        )
