"""Replicated operating-system services (Sections 3-4).

The paper's model splits each OS service O_x into a kernel-wide state
K_x, hardware state W_x, and per-process states P^K_{j,x} which must be
"kept consistent among kernels: every time the state of a service is
updated on one kernel, it must be updated on all other kernels
(different services require different consistency levels)".

:class:`ReplicatedService` implements that contract: updates to
per-process state are applied locally and propagated to every other
kernel through the messaging layer under one of three consistency
levels, with full message/byte accounting.  Concrete services:

* :class:`ProcessTableService` — the distributed pid/tid table that
  lets any kernel resolve any thread (eager consistency);
* :class:`CredentialsService` — uid/gid per process (lazy: shipped
  with the first use on a kernel);
* :class:`SysInfoService` — hostname/uptime per container (eventual).
"""

import enum
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.sim.numeric import ordered_sum


class Consistency(enum.Enum):
    """How quickly a replica must observe an update."""

    EAGER = "eager"  # synchronous broadcast before the update returns
    LAZY = "lazy"  # shipped on first remote use
    EVENTUAL = "eventual"  # piggybacked, modelled as deferred batches


@dataclass
class ServiceStats:
    updates: int = 0
    broadcasts: int = 0
    lazy_pulls: int = 0
    bytes_replicated: int = 0


class ReplicatedService:
    """Base class: named per-process state replicated across kernels."""

    #: service name (the paper's x in O_x)
    name = "service"
    consistency = Consistency.EAGER
    #: bytes a single state record costs on the wire
    record_bytes = 128

    def __init__(self, messaging, kernel_names: List[str]):
        self.messaging = messaging
        self.kernels = list(kernel_names)
        # P^K_{j,x}: (process id, key) -> value, the authoritative copy.
        self._state: Dict[Tuple[int, Any], Any] = {}
        # Which kernels hold a current replica of each record.
        self._replicated_to: Dict[Tuple[int, Any], Set[str]] = {}
        self.stats = ServiceStats()

    # ----------------------------------------------------------- update

    def update(self, origin_kernel: str, pid: int, key, value) -> float:
        """Apply an update at ``origin_kernel``; returns service time."""
        record = (pid, key)
        self._state[record] = value
        self.stats.updates += 1
        cost = 0.0
        if self.consistency is Consistency.EAGER:
            others = [k for k in self.kernels if k != origin_kernel]
            if others:
                cost = self.messaging.broadcast(
                    f"svc.{self.name}", origin_kernel, others, self.record_bytes
                )
                self.stats.broadcasts += 1
                self.stats.bytes_replicated += self.record_bytes * len(others)
            self._replicated_to[record] = set(self.kernels)
        else:
            self._replicated_to[record] = {origin_kernel}
        return cost

    def read(self, kernel: str, pid: int, key, default=None) -> Tuple[Any, float]:
        """Read a record from ``kernel``; lazy replicas fault it over."""
        record = (pid, key)
        if record not in self._state:
            return default, 0.0
        cost = 0.0
        holders = self._replicated_to.setdefault(record, set(self.kernels))
        if kernel not in holders:
            if not holders:
                # Every replica died with its kernel; the record is
                # unrecoverable — behave as if it never existed.
                del self._state[record]
                del self._replicated_to[record]
                return default, 0.0
            source = min(holders)
            cost = self.messaging.rpc(
                f"svc.{self.name}.pull", kernel, source, 64, self.record_bytes
            )
            holders.add(kernel)
            self.stats.lazy_pulls += 1
            self.stats.bytes_replicated += self.record_bytes
        return self._state[record], cost

    def forget_process(self, pid: int) -> int:
        """Drop all of one process's records (at exit); returns count."""
        doomed = [record for record in self._state if record[0] == pid]
        for record in doomed:
            del self._state[record]
            self._replicated_to.pop(record, None)
        return len(doomed)

    def scrub_kernel(self, dead: str) -> int:
        """Drop a dead kernel as replica holder and broadcast target.

        Returns the number of records whose last replica died (those
        records are dropped — the state is unrecoverable).
        """
        if dead in self.kernels:
            self.kernels.remove(dead)
        lost = 0
        for record in list(self._replicated_to):
            holders = self._replicated_to[record]
            holders.discard(dead)
            if not holders:
                del self._replicated_to[record]
                self._state.pop(record, None)
                lost += 1
        return lost

    def records_for(self, pid: int) -> Dict[Any, Any]:
        return {key: v for (p, key), v in self._state.items() if p == pid}


class ProcessTableService(ReplicatedService):
    """The distributed process/thread table.

    Keeps (tid -> home kernel, state) replicated eagerly so that any
    kernel can route signals, joins and migration requests without a
    directory lookup — the service behind "thread and process migration
    and resource sharing among kernels".
    """

    name = "proctable"
    consistency = Consistency.EAGER
    record_bytes = 96

    def register_thread(
        self, origin_kernel: str, pid: int, tid: int, machine: str
    ) -> float:
        return self.update(origin_kernel, pid, ("thread", tid), machine)

    def thread_home(self, kernel: str, pid: int, tid: int) -> Tuple[Optional[str], float]:
        return self.read(kernel, pid, ("thread", tid))

    def note_migration(
        self, origin_kernel: str, pid: int, tid: int, new_machine: str
    ) -> float:
        return self.update(origin_kernel, pid, ("thread", tid), new_machine)

    def threads_of(self, pid: int) -> Dict[int, str]:
        return {
            key[1]: machine
            for key, machine in self.records_for(pid).items()
            if isinstance(key, tuple) and key[0] == "thread"
        }


class CredentialsService(ReplicatedService):
    """uid/gid/capabilities — immutable after exec, so lazily shipped."""

    name = "creds"
    consistency = Consistency.LAZY
    record_bytes = 64

    def set_identity(self, origin_kernel: str, pid: int, uid: int, gid: int) -> float:
        return self.update(origin_kernel, pid, "identity", (uid, gid))

    def identity(self, kernel: str, pid: int) -> Tuple[Tuple[int, int], float]:
        return self.read(kernel, pid, "identity", default=(0, 0))


class SysInfoService(ReplicatedService):
    """Container-visible uname/uptime — eventual consistency suffices."""

    name = "sysinfo"
    consistency = Consistency.EVENTUAL
    record_bytes = 256

    def hostname(self, kernel: str, pid: int) -> Tuple[str, float]:
        return self.read(kernel, pid, "hostname", default="localhost")


class ServiceRegistry:
    """All replicated services of one PopcornSystem."""

    def __init__(self, messaging, kernel_names: List[str]):
        self.proctable = ProcessTableService(messaging, kernel_names)
        self.creds = CredentialsService(messaging, kernel_names)
        self.sysinfo = SysInfoService(messaging, kernel_names)

    def all(self) -> List[ReplicatedService]:
        return [self.proctable, self.creds, self.sysinfo]

    def forget_process(self, pid: int) -> int:
        return ordered_sum(svc.forget_process(pid) for svc in self.all())

    def scrub_kernel(self, dead: str) -> int:
        """Drop a dead kernel from every replicated service."""
        return ordered_sum(svc.scrub_kernel(dead) for svc in self.all())
