"""The syscall interface — the narrow boundary between application and
replicated kernel ("applications interact with the operating system via
a narrow interface: the syscall, and in *NIX operating systems, the
filesystem").

Every handler returns a :class:`SyscallResult`; the execution engine
charges the base syscall cost (mode switch) plus the handler's service
time, then acts on the result's action.
"""

from dataclasses import dataclass, field
from typing import List

from repro.kernel.process import Barrier, CondVar, Mutex, Process, Thread


@dataclass
class SyscallResult:
    value: float = 0
    seconds: float = 0.0
    # 'continue' | 'block' | 'exit_process'
    action: str = "continue"
    # Threads to wake (barrier release / join completion).
    wake: List[int] = field(default_factory=list)


class SyscallError(Exception):
    pass


class SyscallHandler:
    """Dispatches syscalls for one system."""

    def __init__(self, system):
        self.system = system

    def handle(self, thread: Thread, name: str, args: List[float]) -> SyscallResult:
        method = getattr(self, f"_sys_{name}", None)
        if method is None:
            raise SyscallError(f"unimplemented syscall {name}")
        result = method(thread, args)
        tracer = self.system.messaging.tracer
        if tracer is not None:
            tracer.complete(
                f"sys.{name}", "sys", thread.vtime, result.seconds,
                track=thread.machine_name, tid=thread.tid,
                action=result.action,
            )
            tracer.metrics.counter("sys.calls").inc()
            tracer.metrics.histogram("sys.service_s").observe(result.seconds)
        return result

    # ------------------------------------------------------------ basic

    def _sys_exit(self, thread: Thread, args) -> SyscallResult:
        code = int(args[0]) if args else 0
        thread.process.exit_code = code
        return SyscallResult(value=0, action="exit_process")

    def _sys_print(self, thread: Thread, args) -> SyscallResult:
        thread.process.output.append(args[0] if args else 0)
        return SyscallResult()

    def _sys_gettid(self, thread: Thread, args) -> SyscallResult:
        return SyscallResult(value=thread.tid)

    def _sys_getcpu(self, thread: Thread, args) -> SyscallResult:
        index = self.system.machine_order.index(thread.machine_name)
        return SyscallResult(value=index)

    def _sys_time_ns(self, thread: Thread, args) -> SyscallResult:
        return SyscallResult(value=int(thread.vtime * 1e9))

    def _sys_migrate_hint(self, thread: Thread, args) -> SyscallResult:
        """Application-directed migration (used to place one function on
        the other machine, as in the Figure 11 experiment)."""
        index = int(args[0])
        order = self.system.machine_order
        if not 0 <= index < len(order):
            raise SyscallError(
                f"migrate_hint to machine {index}; valid indexes are "
                f"0..{len(order) - 1}"
            )
        target = order[index]
        if target != thread.machine_name:
            thread.process.vdso.request_migration(thread.slot, target)
        return SyscallResult()

    # ----------------------------------------------------------- memory

    def _sys_sbrk(self, thread: Thread, args) -> SyscallResult:
        size = int(args[0])
        addr = thread.process.heap.alloc(size)
        return SyscallResult(value=addr, seconds=1e-6)

    def _sys_free(self, thread: Thread, args) -> SyscallResult:
        thread.process.heap.free(int(args[0]))
        return SyscallResult(seconds=0.5e-6)

    # ---------------------------------------------------------- threads

    def _sys_spawn(self, thread: Thread, args) -> SyscallResult:
        fn_addr = int(args[0])
        arg = args[1] if len(args) > 1 else 0
        isa = self.system.isa_of(thread.machine_name)
        mf = thread.process.binary.function_containing(isa, fn_addr)
        child = self.system.spawn_thread(
            thread.process, thread.machine_name, mf.name, [arg]
        )
        child.vtime = thread.vtime  # starts now
        service_cost = getattr(child, "spawn_service_cost", 0.0)
        return SyscallResult(value=child.tid, seconds=15e-6 + service_cost)

    def _sys_join(self, thread: Thread, args) -> SyscallResult:
        tid = int(args[0])
        target = thread.process.threads.get(tid)
        if target is None:
            raise SyscallError(f"join on unknown tid {tid}")
        if target.exit_value is not None or target.state.value == "done":
            return SyscallResult(value=target.exit_value or 0)
        thread.block("join", tid)
        return SyscallResult(action="block")

    def _sys_barrier_init(self, thread: Thread, args) -> SyscallResult:
        barrier_id, parties = int(args[0]), int(args[1])
        thread.process.barriers[barrier_id] = Barrier(barrier_id, parties)
        return SyscallResult()

    def _sys_barrier_wait(self, thread: Thread, args) -> SyscallResult:
        barrier_id = int(args[0])
        barrier = thread.process.barriers.get(barrier_id)
        if barrier is None:
            raise SyscallError(f"wait on uninitialised barrier {barrier_id}")
        barrier.waiting.append(thread.tid)
        if len(barrier.waiting) >= barrier.parties:
            woken = [t for t in barrier.waiting if t != thread.tid]
            barrier.waiting = []
            barrier.generation += 1
            return SyscallResult(value=1, wake=woken)  # serial thread
        thread.block("barrier", barrier_id)
        return SyscallResult(action="block")

    def _sys_mutex_init(self, thread: Thread, args) -> SyscallResult:
        mutex_id = int(args[0])
        thread.process.mutexes[mutex_id] = Mutex(mutex_id)
        return SyscallResult()

    def _sys_mutex_lock(self, thread: Thread, args) -> SyscallResult:
        mutex_id = int(args[0])
        mutex = thread.process.mutexes.get(mutex_id)
        if mutex is None:
            raise SyscallError(f"lock on uninitialised mutex {mutex_id}")
        if mutex.owner is None:
            mutex.owner = thread.tid
            mutex.acquisitions += 1
            return SyscallResult(value=0)
        if mutex.owner == thread.tid:
            raise SyscallError(f"recursive lock of mutex {mutex_id}")
        mutex.waiters.append(thread.tid)
        thread.block("mutex", mutex_id)
        return SyscallResult(action="block")

    def _sys_mutex_unlock(self, thread: Thread, args) -> SyscallResult:
        mutex_id = int(args[0])
        mutex = thread.process.mutexes.get(mutex_id)
        if mutex is None:
            raise SyscallError(f"unlock of uninitialised mutex {mutex_id}")
        if mutex.owner != thread.tid:
            raise SyscallError(
                f"unlock of mutex {mutex_id} by non-owner tid {thread.tid}"
            )
        if mutex.waiters:
            # Direct hand-off: ownership passes to the first waiter.
            next_tid = mutex.waiters.pop(0)
            mutex.owner = next_tid
            mutex.acquisitions += 1
            return SyscallResult(value=0, wake=[next_tid])
        mutex.owner = None
        return SyscallResult(value=0)

    # ------------------------------------------------- condition variables

    def _cond(self, thread: Thread, cond_id: int) -> CondVar:
        cond = thread.process.condvars.get(cond_id)
        if cond is None:
            raise SyscallError(f"use of uninitialised condvar {cond_id}")
        return cond

    def _grant_or_queue(self, process: Process, mutex: Mutex, tid: int) -> List[int]:
        """Hand ``mutex`` to ``tid`` if free, else queue them; returns
        the tids to wake now."""
        if mutex.owner is None:
            mutex.owner = tid
            mutex.acquisitions += 1
            return [tid]
        mutex.waiters.append(tid)
        # Stays blocked, now on the mutex rather than the condvar.
        process.threads[tid].blocked_on = ("mutex", mutex.mutex_id)
        return []

    def _sys_cond_init(self, thread: Thread, args) -> SyscallResult:
        cond_id = int(args[0])
        thread.process.condvars[cond_id] = CondVar(cond_id)
        return SyscallResult()

    def _sys_cond_wait(self, thread: Thread, args) -> SyscallResult:
        """Atomically release the mutex and sleep on the condition; the
        woken thread returns only once it holds the mutex again."""
        cond_id, mutex_id = int(args[0]), int(args[1])
        cond = self._cond(thread, cond_id)
        mutex = thread.process.mutexes.get(mutex_id)
        if mutex is None:
            raise SyscallError(f"cond_wait with uninitialised mutex {mutex_id}")
        if mutex.owner != thread.tid:
            raise SyscallError(
                f"cond_wait on mutex {mutex_id} not held by tid {thread.tid}"
            )
        wake: List[int] = []
        if mutex.waiters:
            next_tid = mutex.waiters.pop(0)
            mutex.owner = next_tid
            mutex.acquisitions += 1
            wake.append(next_tid)
        else:
            mutex.owner = None
        cond.waiters.append((thread.tid, mutex_id))
        thread.block("cond", cond_id)
        return SyscallResult(action="block", wake=wake)

    def _sys_cond_signal(self, thread: Thread, args) -> SyscallResult:
        cond = self._cond(thread, int(args[0]))
        cond.signals += 1
        if not cond.waiters:
            return SyscallResult(value=0)
        tid, mutex_id = cond.waiters.pop(0)
        mutex = thread.process.mutexes[mutex_id]
        wake = self._grant_or_queue(thread.process, mutex, tid)
        return SyscallResult(value=1, wake=wake)

    def _sys_cond_broadcast(self, thread: Thread, args) -> SyscallResult:
        cond = self._cond(thread, int(args[0]))
        cond.signals += 1
        wake: List[int] = []
        woken = 0
        while cond.waiters:
            tid, mutex_id = cond.waiters.pop(0)
            mutex = thread.process.mutexes[mutex_id]
            wake.extend(self._grant_or_queue(thread.process, mutex, tid))
            woken += 1
        return SyscallResult(value=woken, wake=wake)

    # -------------------------------------------------------------- vfs

    def _sys_open(self, thread: Thread, args) -> SyscallResult:
        path = f"/data/{int(args[0])}"
        fd, cost = self.system.vfs.open(
            path, thread.machine_name, create=True
        )
        return SyscallResult(value=fd, seconds=cost + 2e-6)

    def _sys_close(self, thread: Thread, args) -> SyscallResult:
        cost = self.system.vfs.close(int(args[0]))
        return SyscallResult(seconds=cost + 0.5e-6)

    def _sys_read(self, thread: Thread, args) -> SyscallResult:
        fd, buf, count = int(args[0]), int(args[1]), int(args[2])
        data, cost = self.system.vfs.read(fd, count, thread.machine_name)
        space = thread.process.space
        for i, value in enumerate(data):
            space.write(buf + i * 8, value)
        return SyscallResult(value=len(data), seconds=cost + 2e-6)

    def _sys_write(self, thread: Thread, args) -> SyscallResult:
        fd, buf, count = int(args[0]), int(args[1]), int(args[2])
        space = thread.process.space
        values = [space.read(buf + i * 8) for i in range(count)]
        written, cost = self.system.vfs.write(fd, values, thread.machine_name)
        return SyscallResult(value=written, seconds=cost + 2e-6)
