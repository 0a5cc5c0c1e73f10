"""Checkpoint/restore — the homogeneous-ISA migration baseline.

The paper positions itself against CRIU-style migration: "Linux
applications can be migrated among homogeneous machines using
checkpoint/restore functionality [5] ... Our work contributes seamless
thread migration among heterogeneous-ISA machines without the
overheads of checkpoint/restore mechanisms."

This module implements that baseline faithfully enough to compare:

* :func:`checkpoint_process` freezes a process and captures its full
  image — memory words, heap allocator state, every thread's registers,
  activation frames, program counter and synchronisation state;
* :func:`restore_process` rebuilds the process on another kernel of the
  **same ISA** (restoring onto a different ISA raises
  :class:`CrossIsaRestoreError` — precisely the limitation that
  motivates multi-ISA binaries);
* :func:`checkpoint_transfer_seconds` models the downtime: the entire
  image crosses the wire up front, unlike the hDSM's on-demand pull.
"""

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.kernel.process import Barrier, CondVar, KernelThreadState, Mutex, Process, Thread, ThreadState
from repro.linker.layout import PAGE_SIZE, THREAD_CONTEXT_BYTES, page_of
from repro.runtime.stack import Frame, UserStack
from repro.sim.numeric import ordered_sum

PER_PAGE_OVERHEAD_S = 0.4e-6  # freeze/dump bookkeeping per page


class CheckpointError(Exception):
    pass


class CrossIsaRestoreError(CheckpointError):
    """A checkpoint image is ISA-specific; it cannot cross the boundary."""


@dataclass
class ThreadImage:
    tid: int
    slot: int
    thread_pointer: int
    stack_low: int
    stack_high: int
    stack_half: int
    regs: Dict[str, float]
    # (function name, cfa, resume position, pending call site id)
    frames: List[Tuple[str, int, Optional[Tuple[str, int]], int]]
    pc: Tuple[str, int]
    state: str
    blocked_on: Optional[Tuple[str, int]]
    vtime: float
    instructions: float
    exit_value: Optional[float]


@dataclass
class Checkpoint:
    """A frozen process image."""

    module_name: str
    isa_name: str
    pid: int
    memory: Dict[int, float]
    heap_brk: int
    heap_free: List[Tuple[int, int]]
    heap_allocated: Dict[int, int]
    threads: List[ThreadImage]
    barriers: Dict[int, Tuple[int, List[int], int]]
    mutexes: Dict[int, Tuple[Optional[int], List[int], int]]
    condvars: Dict[int, Tuple[List[Tuple[int, int]], int]]
    output: List[float]
    next_stack_index: int

    @property
    def image_bytes(self) -> int:
        """Dump size: every allocated heap byte (a real C/R tool ships
        resident pages whether or not they hold interesting values),
        plus touched non-heap words and per-thread contexts."""
        return (
            ordered_sum(self.heap_allocated.values())
            + 8 * len(self.memory)
            + THREAD_CONTEXT_BYTES * len(self.threads)
        )

    @property
    def pages(self) -> int:
        heap_pages = ordered_sum(self.heap_allocated.values()) // PAGE_SIZE
        return heap_pages + len({page_of(addr) for addr in self.memory})


def checkpoint_process(process: Process, system) -> Checkpoint:
    """Capture a quiescent process (no thread mid-kernel-operation)."""
    for thread in process.alive_threads:
        if thread.state == ThreadState.MIGRATING:
            raise CheckpointError(f"thread {thread.tid} is mid-migration")
    isa_name = system.isa_of(process.alive_threads[0].machine_name)
    images = []
    for thread in process.threads.values():
        images.append(
            ThreadImage(
                tid=thread.tid,
                slot=thread.slot,
                thread_pointer=thread.thread_pointer,
                stack_low=thread.stack.low,
                stack_high=thread.stack.high,
                stack_half=thread.stack.half,
                regs=dict(thread.regs),
                frames=[
                    (f.mf.name, f.cfa, f.resume, f.call_site_id)
                    for f in thread.frames
                ],
                pc=thread.pc,
                state=thread.state.value,
                blocked_on=thread.blocked_on,
                vtime=thread.vtime,
                instructions=thread.instructions,
                exit_value=thread.exit_value,
            )
        )
    return Checkpoint(
        module_name=process.binary.module.name,
        isa_name=isa_name,
        pid=process.pid,
        memory=dict(process.space._mem),
        heap_brk=process.heap._brk,
        heap_free=list(process.heap._free),
        heap_allocated=dict(process.heap._allocated),
        threads=images,
        barriers={
            bid: (b.parties, list(b.waiting), b.generation)
            for bid, b in process.barriers.items()
        },
        mutexes={
            mid: (m.owner, list(m.waiters), m.acquisitions)
            for mid, m in process.mutexes.items()
        },
        condvars={
            cid: (list(c.waiters), c.signals)
            for cid, c in process.condvars.items()
        },
        output=list(process.output),
        next_stack_index=process._next_stack_index,
    )


def checkpoint_transfer_seconds(ckpt: Checkpoint, interconnect) -> float:
    """Downtime to ship the whole image before the restore can begin."""
    return (
        interconnect.transfer_time(ckpt.image_bytes)
        + ckpt.pages * PER_PAGE_OVERHEAD_S
    )


def restore_process(system, binary, ckpt: Checkpoint, machine_name: str) -> Process:
    """Materialise a checkpoint on ``machine_name`` (same ISA only)."""
    target_isa = system.isa_of(machine_name)
    if target_isa != ckpt.isa_name:
        raise CrossIsaRestoreError(
            f"checkpoint is {ckpt.isa_name} machine state; cannot restore "
            f"on {machine_name} ({target_isa}) — register files, stack "
            f"frames and code addresses do not translate. Use multi-ISA "
            f"binaries and live migration instead."
        )
    if binary.module.name != ckpt.module_name:
        raise CheckpointError(
            f"checkpoint of {ckpt.module_name!r} cannot restore binary "
            f"{binary.module.name!r}"
        )

    from repro.kernel.loader import load_binary

    process = load_binary(
        binary, ckpt.pid, machine_name, system.messaging, system.machine_order
    )
    process.container = None
    from repro.kernel.namespaces import HeterogeneousContainer

    process.container = HeterogeneousContainer(f"restored-{ckpt.pid}")
    process.container.span_to(machine_name)
    process.container.adopt(ckpt.pid)

    # Memory image and heap allocator state.
    process.space._mem = dict(ckpt.memory)
    process.heap._brk = ckpt.heap_brk
    process.heap._free = list(ckpt.heap_free)
    process.heap._allocated = dict(ckpt.heap_allocated)
    process._next_stack_index = ckpt.next_stack_index

    # Threads.
    kernel = system.kernels[machine_name]
    mfs = binary.binary_for(target_isa).machine_functions
    for image in ckpt.threads:
        stack = UserStack(image.stack_low, image.stack_high)
        stack.half = image.stack_half
        thread = Thread(
            image.tid, process, machine_name, stack, image.thread_pointer,
            image.slot,
        )
        thread.regs = dict(image.regs)
        thread.frames = [
            Frame(mf=mfs[name], cfa=cfa, resume=resume, call_site_id=site)
            for name, cfa, resume, site in image.frames
        ]
        thread.pc = image.pc
        thread.state = ThreadState(image.state)
        thread.blocked_on = image.blocked_on
        thread.vtime = image.vtime
        thread.instructions = image.instructions
        thread.exit_value = image.exit_value
        thread.kernel_state = {machine_name: KernelThreadState(machine_name)}
        process.threads[image.tid] = thread
        kernel.adopt_thread(thread)
        system.services.proctable.register_thread(
            machine_name, ckpt.pid, image.tid, machine_name
        )

    for bid, (parties, waiting, generation) in ckpt.barriers.items():
        barrier = Barrier(bid, parties)
        barrier.waiting = list(waiting)
        barrier.generation = generation
        process.barriers[bid] = barrier
    for mid, (owner, waiters, acquisitions) in ckpt.mutexes.items():
        mutex = Mutex(mid, owner=owner)
        mutex.waiters = list(waiters)
        mutex.acquisitions = acquisitions
        process.mutexes[mid] = mutex
    for cid, (cwaiters, signals) in ckpt.condvars.items():
        cond = CondVar(cid)
        cond.waiters = [tuple(w) for w in cwaiters]
        cond.signals = signals
        process.condvars[cid] = cond
    process.output = list(ckpt.output)

    system.processes[ckpt.pid] = process
    tids = [t.tid for t in process.threads.values()]
    system.reserve_ids(ckpt.pid + 1, max(tids, default=0) + 1)
    return process
