"""Fault injection into the kernel: the lossy messaging layer.

:class:`FaultyMessagingLayer` wraps the inter-kernel
:class:`~repro.kernel.messages.MessagingLayer` with per-message loss and
corruption.  A lost or corrupted message charges an ACK timeout plus a
:class:`~repro.faults.models.RetryPolicy` backoff before the
retransmission; the wire cost of every attempt (including failed ones)
is charged to the interconnect, exactly as a real reliable-delivery
layer would burn bandwidth.  With both
probabilities at zero it takes the wrapped layer's exact code path, so
all seed numbers are unchanged.
"""

from repro.faults.models import RetryPolicy
from repro.kernel.messages import MessagingLayer
from repro.sim.rng import DeterministicRng


class DeliveryTimeout(RuntimeError):
    """A message was lost on every attempt the retry policy allows."""


class FaultyMessagingLayer(MessagingLayer):
    """A lossy wrapper over an existing :class:`MessagingLayer`.

    Shares the wrapped layer's interconnect and per-kind accounting, so
    the rest of the kernel stack observes one coherent set of counters.
    ``rpc`` and ``broadcast`` are inherited and compose with the lossy
    ``send`` automatically.
    """

    def __init__(
        self,
        inner: MessagingLayer,
        rng: DeterministicRng,
        loss_probability: float = 0.0,
        corruption_probability: float = 0.0,
        retry: RetryPolicy = RetryPolicy(),
        stream: str = "faults.messages",
    ):
        if not 0.0 <= loss_probability <= 1.0:
            raise ValueError(f"loss probability {loss_probability} not in [0, 1]")
        if not 0.0 <= corruption_probability <= 1.0:
            raise ValueError(
                f"corruption probability {corruption_probability} not in [0, 1]"
            )
        super().__init__(inner.interconnect)
        self.inner = inner
        # Alias the wrapped layer's counters: wire traffic (retries
        # included) shows up in one place regardless of which handle
        # the caller holds.  Fencing and the chaos hook are likewise
        # shared — a kernel fenced through either handle is fenced on
        # both.
        self.counts = inner.counts
        self.bytes_by_kind = inner.bytes_by_kind
        self.fenced = inner.fenced
        self.rng = rng
        self.loss_probability = loss_probability
        self.corruption_probability = corruption_probability
        self.retry = retry
        self.stream_name = stream
        self.dropped = 0
        self.corrupted = 0
        self.retries = 0

    def send(self, kind: str, src: str, dst: str, payload_bytes: int) -> float:
        total = MessagingLayer.send(self, kind, src, dst, payload_bytes)
        if src == dst:
            return total  # local invocation, nothing can be lost
        if self.loss_probability <= 0.0 and self.corruption_probability <= 0.0:
            return total  # lossless default: bit-identical to the seed path
        stream = self.rng.stream(self.stream_name)
        retry = self.retry
        attempt = 0
        prev_backoff = retry.backoff_base_s
        while True:
            lost = stream.random() < self.loss_probability
            corrupt = (
                not lost
                and self.corruption_probability > 0.0
                and stream.random() < self.corruption_probability
            )
            if not lost and not corrupt:
                return total
            if lost:
                self.dropped += 1
            else:
                self.corrupted += 1  # checksum failure: treat as a loss
            if attempt >= retry.max_retries:
                raise DeliveryTimeout(
                    f"{kind} {src}->{dst} undeliverable after "
                    f"{attempt + 1} attempts"
                )
            # The jitter draw comes from the same RNG stream as the
            # loss decisions, so runs stay seed-deterministic.
            u = stream.random() if retry.jitter else 0.0
            prev_backoff = retry.backoff(attempt, prev_backoff, u)
            total += retry.ack_timeout_s + prev_backoff
            total += MessagingLayer.send(self, kind, src, dst, payload_bytes)
            self.retries += 1
            attempt += 1

    # The chaos injector lives on the wrapped layer so both handles see
    # the same hook.  (The base __init__ assigns the None default before
    # ``inner`` exists; the setter ignores that assignment.)
    @property
    def chaos(self):
        return self.inner.chaos

    @chaos.setter
    def chaos(self, value):
        inner = getattr(self, "inner", None)
        if inner is not None:
            inner.chaos = value

    def fault_stats(self) -> dict:
        return {
            "dropped": self.dropped,
            "corrupted": self.corrupted,
            "retries": self.retries,
        }
