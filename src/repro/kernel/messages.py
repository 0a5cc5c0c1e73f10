"""The inter-kernel messaging layer.

"Kernels do not share any data structures, but interact via messages."
Every cross-kernel interaction — DSM page requests, thread migration,
replicated service updates — charges time through this layer, which in
turn charges the interconnect model.
"""

from collections import Counter
from dataclasses import dataclass
from typing import Dict, Set

from repro.machine.interconnect import Interconnect

HEADER_BYTES = 64


class KernelFencedError(RuntimeError):
    """A message named a fenced (crashed/ostracised) kernel.

    Raised by :meth:`MessagingLayer.send` when either endpoint has been
    fenced by :meth:`~repro.kernel.kernel.PopcornSystem.crash_kernel`.
    Reaching this error means some service kept a stale route to a dead
    kernel — the crash-recovery scrub should have removed it — so tests
    and the chaos harness treat it as a protocol bug, not a fault.
    """

    def __init__(self, kind: str, src: str, dst: str, fenced: str):
        super().__init__(
            f"message {kind!r} {src}->{dst} routed at fenced kernel {fenced!r}"
        )
        self.kind = kind
        self.src = src
        self.dst = dst
        self.fenced_kernel = fenced


@dataclass(frozen=True)
class Message:
    """One inter-kernel message (for accounting and tests)."""

    kind: str
    src: str
    dst: str
    payload_bytes: int

    @property
    def wire_bytes(self) -> int:
        return HEADER_BYTES + self.payload_bytes


class MessagingLayer:
    """Synchronous RPC between kernels over the interconnect."""

    def __init__(self, interconnect: Interconnect):
        self.interconnect = interconnect
        self.counts: Counter = Counter()
        self.bytes_by_kind: Counter = Counter()
        # Kernels fenced off by crash recovery: any message naming one
        # raises KernelFencedError (a dead kernel neither sends nor
        # receives — lease-based fencing made that a hard guarantee).
        self.fenced: Set[str] = set()
        # Optional chaos injector (repro.faults.chaos); None in normal
        # runs so the hook costs one attribute read per protocol step.
        self.chaos = None
        # Optional span tracer (repro.telemetry.spans); None in normal
        # runs so tracing costs one attribute read per message.
        self.tracer = None

    def chaos_step(self, step: str, **roles: str) -> bool:
        """Announce a crashable protocol step; True if a crash fired.

        ``roles`` names the kernels participating in the step (e.g.
        ``src=.../dst=...`` for a migration hand-off).  The chaos
        injector uses the announcement stream both to enumerate crash
        points and to trigger the scheduled crash.
        """
        chaos = self.chaos
        if chaos is None:
            return False
        fired = chaos.at_step(step, roles)
        if fired and self.tracer is not None:
            # Annotate whichever protocol span is open (the migration
            # hand-off, a DSM pull) and drop a marker on the timeline.
            self.tracer.annotate_current(chaos_crash=step)
            self.tracer.instant(
                "chaos.crash", "fault", track="net", step=step, **roles
            )
        return fired

    def send(self, kind: str, src: str, dst: str, payload_bytes: int) -> float:
        """One-way message; returns the transfer time in seconds."""
        if src == dst:
            return 0.0  # local service invocation, no wire crossing
        if self.fenced:
            if src in self.fenced:
                raise KernelFencedError(kind, src, dst, src)
            if dst in self.fenced:
                raise KernelFencedError(kind, src, dst, dst)
        msg = Message(kind, src, dst, payload_bytes)
        self.counts[kind] += 1
        self.bytes_by_kind[kind] += msg.wire_bytes
        self.interconnect.record(msg.wire_bytes)
        seconds = (
            self.interconnect.transfer_time(msg.wire_bytes)
            + self.interconnect.per_message_cpu_s
        )
        tracer = self.tracer
        if tracer is not None:
            tracer.complete(
                f"msg.{kind}", "msg", tracer.now(), seconds, track="net",
                src=src, dst=dst, wire_bytes=msg.wire_bytes,
            )
            tracer.metrics.counter("msg.sends").inc()
            tracer.metrics.counter("msg.wire_bytes").inc(msg.wire_bytes)
        return seconds

    def rpc(
        self,
        kind: str,
        src: str,
        dst: str,
        request_bytes: int,
        reply_bytes: int = 0,
    ) -> float:
        """Request/reply round trip; returns total time in seconds."""
        if src == dst:
            return 0.0
        out = self.send(kind + ".req", src, dst, request_bytes)
        back = self.send(kind + ".rep", dst, src, reply_bytes)
        return out + back

    def broadcast(
        self, kind: str, src: str, others, payload_bytes: int
    ) -> float:
        """Send to every other kernel; returns completion time.

        The copies fly concurrently, but the sender marshals each one
        serially, so completion is the slowest arrival plus the
        aggregate per-message sender CPU beyond the first copy (each
        ``send`` already charges one).
        """
        worst = 0.0
        fanout = 0
        for dst in others:
            t = self.send(kind, src, dst, payload_bytes)
            if t > 0.0:
                fanout += 1
            worst = max(worst, t)
        if fanout > 1:
            worst += (fanout - 1) * self.interconnect.per_message_cpu_s
        return worst

    def record_bulk(self, kind: str, count: int, bytes_each: int) -> float:
        """Account a pipelined bulk transfer of ``count`` messages.

        The hDSM bulk page-pull path computes its own (bandwidth-limited,
        pipelined) timing, so this only keeps the byte/message counters
        coherent: everything the interconnect records is attributable to
        a message kind.  Returns 0.0 — no latency is charged here.
        """
        if count <= 0:
            return 0.0
        self.counts[kind] += count
        self.bytes_by_kind[kind] += count * bytes_each
        self.interconnect.record(count * bytes_each)
        if self.tracer is not None:
            self.tracer.metrics.counter("msg.sends").inc(count)
            self.tracer.metrics.counter("msg.wire_bytes").inc(
                count * bytes_each
            )
        return 0.0

    def stats(self) -> Dict[str, int]:
        return dict(self.counts)
