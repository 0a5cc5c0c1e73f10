"""Per-machine kernels and the replicated-kernel system facade.

A :class:`Kernel` is one natively-compiled OS instance on one machine.
:class:`PopcornSystem` is the testbed driver experiments interact with:
the set of kernels, the interconnect between them, the shared simulated
clock, and the process/migration services that span kernels.

``PopcornSystem`` used to implement everything inline; it is now a thin
facade over three components so per-node state stays a small struct
when fleet simulations instantiate systems by the thousand:

* :class:`repro.kernel.lifecycle.ProcessLifecycle` — pid/tid
  allocation, exec, thread spawn, migration requests, reaping;
* :class:`repro.kernel.recovery.CrashRecovery` — kernel crashes,
  thread failure, migration-service resume tokens;
* :mod:`repro.kernel.testbed` — boot helpers (:func:`boot_testbed`
  and ``boot_single``).

Every pre-split method and attribute (``exec_process``, ``processes``,
``crash_kernel``, …) keeps working through delegation.
"""

from typing import Dict, List, Optional

from repro.compiler.toolchain import MultiIsaBinary
from repro.kernel.filesystem import VirtualFileSystem
from repro.kernel.lifecycle import ProcessLifecycle
from repro.kernel.messages import MessagingLayer
from repro.kernel.namespaces import HeterogeneousContainer
from repro.kernel.process import Process, Thread, ThreadState
from repro.kernel.recovery import CrashRecovery
from repro.kernel.services import ServiceRegistry
from repro.machine.interconnect import Interconnect, make_dolphin_pxh810
from repro.machine.machine import Machine
from repro.sim.clock import Clock


class KernelCrashed(RuntimeError):
    """A thread's kernel died under it (or mid-operation).

    Raised on the execution path of a thread whose kernel crashed while
    it ran; the engine turns it into a loud, recorded thread failure.
    """

    def __init__(self, kernel: str):
        super().__init__(f"kernel {kernel} crashed")
        self.kernel = kernel


class Kernel:
    """One OS instance, natively compiled for its machine's ISA."""

    def __init__(self, machine: Machine, system: "PopcornSystem"):
        self.machine = machine
        self.system = system
        self.name = machine.name
        # False once crash_kernel has fenced this kernel off.
        self.alive = True
        # Threads currently homed on this kernel.
        self.threads: Dict[int, Thread] = {}

    @property
    def isa_name(self) -> str:
        return self.machine.isa.name

    def adopt_thread(self, thread: Thread) -> None:
        self.threads[thread.tid] = thread
        if thread.state == ThreadState.RUNNABLE:
            self.machine.thread_started()

    def release_thread(self, thread: Thread) -> None:
        self.threads.pop(thread.tid, None)
        if thread.state == ThreadState.RUNNABLE:
            self.machine.thread_stopped()

    def __repr__(self) -> str:
        return f"Kernel({self.name}/{self.isa_name}, threads={len(self.threads)})"


class PopcornSystem:
    """The multi-machine testbed: kernels + interconnect + clock."""

    def __init__(
        self,
        machines: List[Machine],
        interconnect: Optional[Interconnect] = None,
        clock: Optional[Clock] = None,
        tracer=None,
    ):
        if not machines:
            raise ValueError("a system needs at least one machine")
        self.clock = clock if clock is not None else Clock()
        for machine in machines:
            machine.clock = self.clock
        self.machines: Dict[str, Machine] = {m.name: m for m in machines}
        self.machine_order = [m.name for m in machines]
        self.interconnect = (
            interconnect if interconnect is not None else make_dolphin_pxh810()
        )
        self.messaging = MessagingLayer(self.interconnect)
        # Opt-in span tracer (repro.telemetry.spans.Tracer); every
        # protocol site reaches it through the messaging layer.
        self.tracer = tracer
        if tracer is not None:
            self.messaging.tracer = tracer
            tracer.bind_clock(self.clock)
        self.kernels: Dict[str, Kernel] = {
            m.name: Kernel(m, self) for m in machines
        }
        self.vfs = VirtualFileSystem(self.messaging, self.machine_order[0])
        self.services = ServiceRegistry(self.messaging, self.machine_order)
        self.lifecycle = ProcessLifecycle(self)
        self.recovery = CrashRecovery(self)
        # Opt-in dirty-page backup replication for new processes.
        self.dsm_backup = False

    # --------------------------------------------- component delegation
    #
    # Pre-split attribute names, preserved so existing callers (and
    # pickled checkpoints) keep working without knowing about the split.

    @property
    def processes(self) -> Dict[int, Process]:
        """The live process table (owned by the lifecycle component)."""
        return self.lifecycle.processes

    # ----------------------------------------------------------- lookup

    def isa_of(self, machine_name: str) -> str:
        return self.machines[machine_name].isa.name

    # ------------------------------------------------------------- exec

    def exec_process(
        self,
        binary: MultiIsaBinary,
        machine_name: str,
        container: Optional[HeterogeneousContainer] = None,
        argv: Optional[List[float]] = None,
    ) -> Process:
        """Load a multi-ISA binary and create its main thread."""
        return self.lifecycle.exec_process(binary, machine_name, container, argv)

    def spawn_thread(
        self,
        process: Process,
        machine_name: str,
        function: str,
        args: List[float],
    ) -> Thread:
        """Create a thread parked at ``function``'s entry."""
        return self.lifecycle.spawn_thread(process, machine_name, function, args)

    # -------------------------------------------------------- migration

    def request_migration(self, process: Process, machine_name: str) -> None:
        """Set the vDSO flag for every thread of ``process``.

        Threads notice at their next migration point and migrate
        themselves — there is no stop-the-world.
        """
        self.lifecycle.request_migration(process, machine_name)

    def request_thread_migration(self, thread: Thread, machine_name: str) -> None:
        self.lifecycle.request_thread_migration(thread, machine_name)

    # ----------------------------------------------------- crash recovery

    def crash_kernel(self, name: str) -> Dict[int, object]:
        """Kill kernel ``name``: fence it, kill its threads, scrub state.

        See :meth:`repro.kernel.recovery.CrashRecovery.crash_kernel`.
        """
        return self.recovery.crash_kernel(name)

    def fail_thread(self, thread: Thread, reason: str) -> None:
        """Kill one thread loudly: record the failure, wake joiners."""
        self.recovery.fail_thread(thread, reason)

    # ---------------------------------------------------------- teardown

    def reap_process(self, process: Process) -> None:
        self.lifecycle.reap_process(process)
