"""Processes and threads.

Implements the paper's software-state model (Section 3): per-thread
state T_i = <L_i, S_i, R_i> (TLS block, user stack, register file) and
per-process state P (address space, heap, globals).  The kernel-side
per-thread state T^K_i (kernel stack, thread control block) is the
:class:`KernelThreadState` continuation, one per ISA the thread has
visited — the "heterogeneous continuations" of Section 5.1.
"""

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.compiler.toolchain import MultiIsaBinary
from repro.runtime.address_space import AddressSpace
from repro.runtime.heap import HeapAllocator
from repro.runtime.stack import Frame, UserStack


class ThreadState(enum.Enum):
    RUNNABLE = "runnable"
    BLOCKED = "blocked"
    MIGRATING = "migrating"
    DONE = "done"


@dataclass
class KernelThreadState:
    """T^K_i on one kernel: the kernel stack + TCB continuation.

    An application thread "has a per-ISA kernel-space stack"; we track
    its existence and creation cost rather than its contents.
    """

    kernel: str
    kernel_stack_bytes: int = 16 * 1024
    created_at: float = 0.0


@dataclass
class Barrier:
    """A pthread-style barrier, kernel-mediated."""

    barrier_id: int
    parties: int
    waiting: List[int] = field(default_factory=list)
    generation: int = 0


@dataclass
class CondVar:
    """A pthread-style condition variable bound to a mutex at wait time."""

    cond_id: int
    # (tid, mutex_id) pairs parked on this condition.
    waiters: List[Tuple[int, int]] = field(default_factory=list)
    signals: int = 0


@dataclass
class Mutex:
    """A pthread-style mutex, kernel-mediated (futex slow path).

    Ownership survives migration: the lock state lives in the
    replicated kernel service layer, not on either machine.
    """

    mutex_id: int
    owner: Optional[int] = None  # tid
    waiters: List[int] = field(default_factory=list)
    acquisitions: int = 0


class Thread:
    """One application thread."""

    def __init__(
        self,
        tid: int,
        process: "Process",
        machine_name: str,
        stack: UserStack,
        thread_pointer: int,
    ):
        self.tid = tid
        self.process = process
        self.machine_name = machine_name
        self.stack = stack
        self.thread_pointer = thread_pointer  # TLS base (R_i's tp register)
        self.state = ThreadState.RUNNABLE
        # R_i: the user-visible register file on the current ISA.
        self.regs: Dict[str, float] = {}
        # Activation frames, outermost first; engine-managed.
        self.frames: List[Frame] = []
        # Program counter: (block label, instruction index) in frames[-1].
        self.pc: Tuple[str, int] = ("", 0)
        # vDSO migration flag: target machine name, or None.
        self.migrate_target: Optional[str] = None
        # Why we are blocked: ('join', tid) or ('barrier', id).
        self.blocked_on: Optional[Tuple[str, int]] = None
        # Heterogeneous continuations, one per kernel visited.
        self.kernel_state: Dict[str, KernelThreadState] = {
            machine_name: KernelThreadState(machine_name)
        }
        # Accounting.
        self.vtime = 0.0  # per-thread virtual time (seconds)
        self.instructions = 0.0
        self.migrations = 0
        self.exit_value: Optional[float] = None
        self.start_function: str = ""
        self.start_args: List[float] = []

    def block(self, reason: str, token: int) -> None:
        self.state = ThreadState.BLOCKED
        self.blocked_on = (reason, token)

    def wake(self, at_time: float) -> None:
        self.state = ThreadState.RUNNABLE
        self.blocked_on = None
        self.vtime = max(self.vtime, at_time)

    def __repr__(self) -> str:
        return (
            f"Thread(tid={self.tid}, on={self.machine_name}, "
            f"{self.state.value}, f={len(self.frames)})"
        )


class Process:
    """One application instance inside a heterogeneous OS-container."""

    def __init__(
        self,
        pid: int,
        binary: MultiIsaBinary,
        space: AddressSpace,
        heap: HeapAllocator,
        home_kernel: str,
    ):
        self.pid = pid
        self.binary = binary
        self.space = space
        self.heap = heap
        self.home_kernel = home_kernel
        self.threads: Dict[int, Thread] = {}
        self.barriers: Dict[int, Barrier] = {}
        self.mutexes: Dict[int, Mutex] = {}
        self.condvars: Dict[int, "CondVar"] = {}
        self.output: List[float] = []
        self.exit_code: Optional[int] = None
        self.container = None  # set by the kernel when placed
        self.dsm = None  # set by the loader
        # tid -> reason, for threads killed by crash recovery.  A
        # process with failed threads finished *loudly*: its output and
        # exit code are not trustworthy and callers must check
        # ``failure`` before believing either.
        self.failed_threads: Dict[int, str] = {}
        self._next_stack_index = 0

    @property
    def alive_threads(self) -> List[Thread]:
        return [t for t in self.threads.values() if t.state != ThreadState.DONE]

    @property
    def failure(self) -> Optional[str]:
        """First recorded failure reason, or None if the run was clean."""
        if not self.failed_threads:
            return None
        tid = min(self.failed_threads)
        return f"tid {tid}: {self.failed_threads[tid]}"

    def next_stack_index(self) -> int:
        index = self._next_stack_index
        self._next_stack_index += 1
        return index

    def __repr__(self) -> str:
        return f"Process(pid={self.pid}, {self.binary.module.name}, threads={len(self.threads)})"
