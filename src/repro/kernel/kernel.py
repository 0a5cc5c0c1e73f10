"""Per-machine kernels and the replicated-kernel system.

A :class:`Kernel` is one natively-compiled OS instance on one machine.
:class:`PopcornSystem` is the testbed driver experiments interact with:
the set of kernels, the interconnect between them, the shared simulated
clock, and the services that span kernels (messaging, the replicated
services, the VFS and the one thread-migration service every engine
on the system uses).  It owns the process lifecycle (pid/tid
allocation, exec, thread spawn, migration requests, reaping) and
crash recovery (fencing a dead kernel, failing its threads, scrubbing
hDSM directories and replicated services).
:mod:`repro.kernel.testbed` boots systems (:func:`boot_testbed` and
``boot_single``).
"""

from typing import Dict, List, Optional

from repro.compiler.toolchain import MultiIsaBinary
from repro.kernel.filesystem import VirtualFileSystem
from repro.kernel.loader import init_thread_tls, load_binary, thread_pointer_for
from repro.kernel.messages import MessagingLayer
from repro.kernel.migration import MigrationService
from repro.kernel.namespaces import HeterogeneousContainer
from repro.kernel.process import Process, Thread, ThreadState
from repro.kernel.services import ServiceRegistry
from repro.machine.interconnect import Interconnect, make_dolphin_pxh810
from repro.machine.machine import Machine
from repro.runtime.stack import Frame, UserStack
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

    def __init__(self, machine: Machine):
        self.machine = machine
        self.name = machine.name
        # False once crash_kernel has fenced this kernel off.
        self.alive = True
        # Threads currently homed on this kernel.
        self.threads: Dict[int, Thread] = {}

    @property
    def isa_name(self) -> str:
        """The ISA this kernel is compiled for."""
        return self.machine.isa.name

    def adopt_thread(self, thread: Thread) -> None:
        """Home ``thread`` here; a runnable one counts as running."""
        self.threads[thread.tid] = thread
        if thread.state == ThreadState.RUNNABLE:
            self.machine.thread_started()

    def release_thread(self, thread: Thread) -> None:
        """Unhome ``thread``; a runnable one stops counting as running."""
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
        self.kernels: Dict[str, Kernel] = {m.name: Kernel(m) for m in machines}
        self.vfs = VirtualFileSystem(self.messaging, self.machine_order[0])
        self.services = ServiceRegistry(self.messaging, self.machine_order)
        # Every engine on this system migrates threads through it.
        self.migration = MigrationService(self)
        self.processes: Dict[int, Process] = {}
        self._next_pid = 1
        self._next_tid = 1
        # Opt-in dirty-page backup replication for new processes.
        self.dsm_backup = False

    def reserve_ids(self, next_pid: int, next_tid: int) -> None:
        """Bump the id allocators to at least the given values.

        Used by checkpoint restore: a restored process carries pids and
        tids minted by an earlier system, and later allocations must
        not collide with them.
        """
        self._next_pid = max(self._next_pid, next_pid)
        self._next_tid = max(self._next_tid, next_tid)

    # ----------------------------------------------------------- lookup

    def isa_of(self, machine_name: str) -> str:
        """The ISA of machine ``machine_name``."""
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
        if machine_name not in self.machines:
            raise KeyError(f"unknown machine {machine_name}")
        if self.isa_of(machine_name) not in binary.binaries:
            raise ValueError(
                f"binary lacks code for {self.isa_of(machine_name)}"
            )
        pid = self._next_pid
        self._next_pid += 1
        process = load_binary(
            binary,
            pid,
            machine_name,
            self.messaging,
            self.machine_order,
            dsm_backup=self.dsm_backup,
        )
        process.container = container or HeterogeneousContainer(
            f"ctr-{binary.module.name}-{pid}"
        )
        process.container.span_to(machine_name)
        process.container.adopt(pid)
        self.processes[pid] = process
        self.spawn_thread(
            process,
            machine_name,
            function=binary.module.entry,
            args=list(argv or []),
        )
        return process

    def spawn_thread(
        self,
        process: Process,
        machine_name: str,
        function: str,
        args: List[float],
    ) -> Thread:
        """Create a thread parked at ``function``'s entry."""
        binary = process.binary
        if function not in binary.module.functions:
            raise KeyError(f"no function {function} in {binary.module.name}")
        tid = self._next_tid
        self._next_tid += 1
        stack_index = process.next_stack_index()
        low, high = binary.vm_map.stack_region(stack_index)
        stack = UserStack(low, high)
        tp = thread_pointer_for(binary, stack_index)
        init_thread_tls(process.space, binary, tp)

        thread = Thread(tid, process, machine_name, stack, tp, stack_index)
        thread.start_function = function
        thread.start_args = list(args)
        isa_name = self.isa_of(machine_name)
        mf = binary.machine_function(isa_name, function)
        cfa = stack.top
        thread.frames = [Frame(mf=mf, cfa=cfa)]
        thread.pc = (mf.fn.entry, 0)
        # Seed the register file for the current ISA.
        thread.regs = {r.name: 0 for r in mf.isa.regfile.all()}
        thread.regs[mf.isa.regfile.sp] = cfa - mf.frame.frame_size
        thread.regs[mf.isa.regfile.fp] = cfa
        # Bind start arguments into the entry function's parameter
        # locations (register or frame slot), as the clone trampoline
        # would.
        for (pname, _vt), value in zip(mf.fn.params, args):
            reg = mf.alloc.reg_assignment.get(pname)
            if reg is not None:
                thread.regs[reg] = value
            else:
                process.space.write(
                    cfa - mf.frame.slot_depths[pname], value
                )

        process.threads[tid] = thread
        self.kernels[machine_name].adopt_thread(thread)
        # Publish the thread in the replicated process table so every
        # kernel can resolve it; the registration cost is charged to
        # the spawn syscall by the caller.
        thread.spawn_service_cost = self.services.proctable.register_thread(
            machine_name, process.pid, tid, machine_name
        )
        return thread

    # -------------------------------------------------------- migration

    def request_migration(self, process: Process, machine_name: str) -> None:
        """Set the vDSO migration flag for every thread of ``process``.

        Threads notice at their next migration point and migrate
        themselves — there is no stop-the-world.
        """
        if machine_name not in self.machines:
            raise KeyError(f"unknown machine {machine_name}")
        for thread in process.alive_threads:
            process.vdso.request_migration(thread.slot, machine_name)

    def request_thread_migration(
        self, thread: Thread, machine_name: str
    ) -> None:
        """Set the vDSO migration flag for one thread."""
        if machine_name not in self.machines:
            raise KeyError(f"unknown machine {machine_name}")
        thread.process.vdso.request_migration(thread.slot, machine_name)

    # ----------------------------------------------------- crash recovery

    def crash_kernel(self, name: str) -> Dict[int, object]:
        """Kill kernel ``name``: fence it, kill its threads, scrub state.

        Mirrors what a confirmed failure-detector verdict triggers: the
        dead kernel is fenced off the messaging layer (it neither sends
        nor receives), resident threads die — except those whose
        migration transaction already shipped their context to a live
        destination (the two-phase hand-off's resume token keeps exactly
        one live copy) — every process's hDSM directory is scrubbed,
        and the replicated services drop the dead replica so no later
        RPC routes at it.  Returns the per-pid scrub reports.
        """
        kernel = self.kernels.get(name)
        if kernel is None:
            raise KeyError(f"unknown machine {name}")
        if not kernel.alive:
            return {}
        kernel.alive = False
        self.messaging.fenced.add(name)
        if self.tracer is not None:
            self.tracer.instant(
                "kernel.crash", "fault", track=name, kernel=name
            )
            self.tracer.metrics.counter("fault.kernel_crashes").inc()
        saved = self.migration.threads_with_surviving_copy(name)
        for thread in list(kernel.threads.values()):
            if thread.tid in saved or thread.state == ThreadState.DONE:
                continue
            self.fail_thread(thread, f"kernel {name} crashed")
        scrubs: Dict[int, object] = {}
        for pid in sorted(self.processes):
            process = self.processes[pid]
            if process.dsm is not None:
                scrubs[pid] = process.dsm.scrub_dead_kernel(name)
        self.services.scrub_kernel(name)
        if self.vfs.home == name:
            # The replicated VFS fails over to the next live kernel.
            survivors = [
                m for m in self.machine_order if self.kernels[m].alive
            ]
            if survivors:
                self.vfs.home = survivors[0]
        return scrubs

    def fail_thread(self, thread: Thread, reason: str) -> None:
        """Kill one thread loudly: record the failure, wake joiners."""
        if thread.state == ThreadState.DONE:
            return
        self.kernels[thread.machine_name].release_thread(thread)
        thread.state = ThreadState.DONE
        thread.blocked_on = None
        if thread.exit_value is None:
            thread.exit_value = 0.0
        process = thread.process
        process.failed_threads[thread.tid] = reason
        # Joiners observe the death (join returns) instead of hanging.
        for other in process.threads.values():
            if other.blocked_on == ("join", thread.tid):
                other.wake(max(other.vtime, thread.vtime))
                if self.kernels[other.machine_name].alive:
                    self.machines[other.machine_name].thread_started()

    # ---------------------------------------------------------- teardown

    def reap_process(self, process: Process) -> None:
        """Release a finished process's threads and replicated state."""
        for thread in process.threads.values():
            if thread.state != ThreadState.DONE:
                self.kernels[thread.machine_name].release_thread(thread)
                thread.state = ThreadState.DONE
        self.services.forget_process(process.pid)
        self.processes.pop(process.pid, None)
