"""The execution engine.

Interprets machine functions (the lowered IR) against the simulated
machines: every instruction charges its per-ISA machine-instruction
cost through the current machine's CPU model, memory accesses are
checked against the hDSM, syscalls enter the local kernel, and
migration points poll the vDSO flag and trigger the full migration
path (stack transformation + kernel hand-off).

Threads are interleaved by a min-virtual-time scheduler: the runnable
thread with the smallest accumulated time executes the next slice, so
the interleaving converges to what parallel hardware would produce.
When a machine has more runnable threads than cores, compute time is
stretched by the oversubscription factor.
"""

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.ir.instructions import (
    AddrOf,
    BinOp,
    Br,
    CBr,
    Call,
    Const,
    InlineAsm,
    Load,
    MigPoint,
    Ret,
    StackAlloc,
    Store,
    Syscall,
    UnOp,
    Work,
)
from repro.isa.isa import InstrClass
from repro.kernel.dsm import LostPageError
from repro.kernel.kernel import KernelCrashed
from repro.kernel.process import Process, Thread, ThreadState
from repro.kernel.syscall import SyscallHandler


class ExecutionError(Exception):
    pass


class ProcessExit(Exception):
    """Raised internally to unwind a slice on process exit."""


@dataclass
class EngineHooks:
    """Optional instrumentation callbacks."""

    # (thread, function_name, point_id, cumulative_instructions)
    on_migration_point: Optional[Callable] = None
    # (thread, outcome: MigrationOutcome)
    on_migration: Optional[Callable] = None


from repro.ir.semantics import FLOAT_BIN as _FLOAT_BIN
from repro.ir.semantics import INT_BIN as _INT_BIN
from repro.ir.semantics import apply_unop as _apply_unop


class ExecutionEngine:
    """Runs one process to completion on a PopcornSystem."""

    def __init__(
        self,
        system,
        process: Process,
        hooks: Optional[EngineHooks] = None,
        sampler=None,
        batch: int = 256,
    ):
        self.system = system
        self.process = process
        self.hooks = hooks or EngineHooks()
        self.sampler = sampler
        self.batch = batch
        self.syscalls = SyscallHandler(system)
        self.migration = system.migration
        # Per-thread DSM residency caches: tid -> (epoch, readable, writable)
        self._page_cache: Dict[int, list] = {}
        # Work-range residency cache: (tid, id(instr)) -> (epoch, base)
        self._range_cache: Dict[Tuple[int, int], Tuple[int, int]] = {}
        # tid -> span id of the thread's last migration: spans emitted
        # afterwards (the post-migration page-pull burst of Fig. 11)
        # carry a ``flow`` causal link back to it.
        self._mig_flow: Dict[int, int] = {}
        self._wake_values: Dict[int, float] = {}
        self._pause_requested = False
        self.paused = False
        self.steps = 0
        # Optional dynamic-sharing observer (repro.validate.race_checker).
        # Notified only on DSM miss paths, so attaching one perturbs
        # neither timing nor the per-thread residency caches.
        self.sharing_observer = None

    def request_pause(self) -> None:
        """Stop at the next slice boundary (a CRIU-style freeze point).

        All thread program counters are persisted at slice boundaries,
        so a paused process can be checkpointed, restored, and resumed
        with a fresh engine.
        """
        self._pause_requested = True

    # ------------------------------------------------------------ driver

    def run(self, max_slices: int = 50_000_000) -> Process:
        """Run until the process exits or every thread is done."""
        process = self.process
        self.paused = False
        for _ in range(max_slices):
            if process.exit_code is not None:
                self._finalize_clock()
                self.system.reap_process(process)
                return process
            runnable = [
                t
                for t in process.threads.values()
                if t.state == ThreadState.RUNNABLE
            ]
            if not runnable:
                if all(
                    t.state == ThreadState.DONE for t in process.threads.values()
                ):
                    self._finalize_clock()
                    return process
                blocked = [
                    t
                    for t in process.threads.values()
                    if t.state == ThreadState.BLOCKED
                ]
                if process.failed_threads:
                    # A crash killed a peer these threads were waiting
                    # on (barrier party, mutex holder, ...): they can
                    # never be woken.  Cascade the failure loudly
                    # instead of reporting an inexplicable deadlock.
                    why = process.failure
                    for t in blocked:
                        self.system.fail_thread(
                            t, f"blocked forever after crash ({why})"
                        )
                    continue
                raise ExecutionError(
                    "deadlock: all threads blocked: "
                    f"{ {t.tid: t.blocked_on for t in blocked} }"
                )
            if self._pause_requested:
                # A finished process cannot pause (handled above); here
                # every live thread is parked at a slice boundary.
                self._pause_requested = False
                self.paused = True
                # Flush pending blocking-syscall completions so every
                # thread's state is self-contained for a checkpoint.
                for tid, value in list(self._wake_values.items()):
                    del self._wake_values[tid]
                    self._complete_blocking_syscall(
                        process.threads[tid], value
                    )
                return process
            thread = min(runnable, key=lambda t: (t.vtime, t.tid))
            if thread.vtime > self.system.clock.now:
                self.system.clock.advance_to(thread.vtime)
                if self.sampler is not None:
                    self.sampler.sample_until(self.system.clock.now)
            try:
                self._run_slice(thread)
            except ProcessExit:
                pass
            except (KernelCrashed, LostPageError) as exc:
                self._fail_thread(thread, exc)
        raise ExecutionError("slice budget exhausted (runaway program?)")

    def _finalize_clock(self) -> None:
        """Advance the shared clock to the end of the process's work.

        The engine only moves the clock when it switches between
        threads; the final slice's time (and a single-slice program's
        entire runtime) is committed here.
        """
        vtimes = [t.vtime for t in self.process.threads.values()]
        end = max([self.system.clock.now] + vtimes)
        if end > self.system.clock.now:
            self.system.clock.advance_to(end)
        if self.sampler is not None:
            self.sampler.sample_until(self.system.clock.now)

    # ---------------------------------------------------------- memory

    def _cache_for(self, tid: int, epoch: int) -> list:
        cache = self._page_cache.get(tid)
        if cache is None:
            cache = [epoch, set(), set()]
            self._page_cache[tid] = cache
        elif cache[0] != epoch:
            # Mutate in place: the engine's hot-path closures hold a
            # reference to this very list.
            cache[0] = epoch
            cache[1].clear()
            cache[2].clear()
        return cache

    def _dsm_charge(self, thread: Thread, addr: int, write: bool) -> float:
        dsm = self.process.dsm
        cache = self._cache_for(thread.tid, dsm.epoch)
        page = addr >> 12
        valid = cache[2] if write else cache[1]
        if page in valid:
            return 0.0
        cost = dsm.access(thread.machine_name, addr, write)
        if self.sharing_observer is not None:
            self.sharing_observer.note_access(thread.tid, page, write, cost)
        cache = self._cache_for(thread.tid, dsm.epoch)
        cache[1].add(page)
        if write:
            cache[2].add(page)
        if cost:
            self._mark_io(thread, cost)
        return cost

    def _mark_io(self, thread: Thread, duration: float) -> None:
        """Note DSM wire activity on the machines of the transfer path.

        Only the machines that actually took part in the last DSM
        operation (requester, page owner, invalidated sharers, backup
        home — reported by ``dsm.last_parties``) see their interconnect
        busy; marking every machine in the system would inflate the
        idle-power IO component of uninvolved servers.
        """
        machines = self.system.machines
        parties = self.process.dsm.last_parties or (thread.machine_name,)
        for name in parties:
            machine = machines.get(name)
            if machine is not None:
                machine.note_io_activity(duration)

    # ------------------------------------------------------------ slice

    def _slice_preamble(self, thread: Thread):
        """Per-slice setup shared by every engine: tracer context and
        completion of the blocking syscall the thread woke from.
        Returns the machine the slice runs on."""
        system = self.system
        tracer = system.messaging.tracer
        if tracer is not None:
            # Ambient identity for every span emitted from this slice
            # (DSM faults, syscalls, messages) — deep call sites only
            # see kernels, not threads.
            tracer.set_context(
                tid=thread.tid,
                machine=thread.machine_name,
                flow=self._mig_flow.get(thread.tid),
            )

        pending = self._wake_values.pop(thread.tid, None)
        if pending is not None:
            self._complete_blocking_syscall(thread, pending)

        return system.machines[thread.machine_name]

    def _run_slice(self, thread: Thread) -> None:
        machine = self._slice_preamble(thread)
        self._interp_slice(thread, machine, self.batch, 0.0, 0.0, 0.0)

    def _interp_slice(
        self,
        thread: Thread,
        machine,
        budget: int,
        cycles: float,
        instret: float,
        extra: float,
    ) -> None:
        """Interpret up to ``budget`` instructions, one at a time.

        ``cycles``/``instret``/``extra`` seed the slice accumulators so
        the fast engine can hand over a partially executed slice (its
        trampoline stops at a syscall and this loop executes it and
        finishes the slice exactly).
        """
        system = self.system
        process = self.process
        space = process.space
        mem = space._mem  # hot path: direct store access
        cpu = machine.cpu
        regs = thread.regs
        frame = thread.frames[-1]
        mf = frame.mf
        loc = self._locations(mf)
        block, idx = thread.pc
        instrs = mf.fn.blocks[block].instrs
        cycles_tab = self._cycles(mf, cpu)[block]

        dsm = process.dsm
        cache = self._cache_for(thread.tid, dsm.epoch)

        def read(op):
            nonlocal extra
            if type(op) is str:
                where = loc[op]
                if where[0] == "r":
                    return regs[where[1]]
                slot_addr = frame.cfa - where[1]
                # Stack slots live in DSM-managed memory too: after a
                # migration the first touch of each stack page faults.
                if (slot_addr >> 12) not in cache[1]:
                    extra += self._dsm_charge(thread, slot_addr, False)
                return mem.get(slot_addr, 0)
            return op

        def write_var(name, value):
            nonlocal extra
            where = loc[name]
            if where[0] == "r":
                regs[where[1]] = value
            else:
                slot_addr = frame.cfa - where[1]
                if (slot_addr >> 12) not in cache[2]:
                    extra += self._dsm_charge(thread, slot_addr, True)
                mem[slot_addr] = value

        while budget > 0:
            budget -= 1
            instr = instrs[idx]
            cycles += cycles_tab[idx]
            cls = instr.__class__

            if cls is BinOp:
                ops = _FLOAT_BIN if instr.vt.is_float else _INT_BIN
                write_var(instr.dst, ops[instr.op](read(instr.a), read(instr.b)))
                instret += 1
                idx += 1
            elif cls is Load:
                addr = int(read(instr.addr)) + instr.offset
                extra += self._dsm_charge(thread, addr, False)
                write_var(instr.dst, mem.get(addr, 0))
                instret += 1
                idx += 1
            elif cls is Store:
                addr = int(read(instr.addr)) + instr.offset
                extra += self._dsm_charge(thread, addr, True)
                mem[addr] = read(instr.src)
                instret += 1
                idx += 1
            elif cls is Const:
                write_var(instr.dst, instr.value)
                instret += 1
                idx += 1
            elif cls is UnOp:
                value = self._unop(instr, read(instr.a))
                write_var(instr.dst, value)
                instret += 1
                idx += 1
            elif cls is Work:
                amount = read(instr.amount)
                wcls = InstrClass(instr.kind)
                expanded = amount * mf.isa.expansion(wcls)
                cycles += expanded * cpu.cpi.get(wcls, 1.0)
                instret += expanded
                if instr.pages is not None:
                    extra += self._touch_range(thread, instr, int(read(instr.pages)))
                idx += 1
            elif cls is CBr:
                taken = read(instr.cond)
                block = instr.if_true if taken else instr.if_false
                idx = 0
                instrs = mf.fn.blocks[block].instrs
                cycles_tab = self._cycles(mf, cpu)[block]
                instret += 2
            elif cls is Br:
                block = instr.target
                idx = 0
                instrs = mf.fn.blocks[block].instrs
                cycles_tab = self._cycles(mf, cpu)[block]
                instret += 1
            elif cls is MigPoint:
                instret += 5
                target = process.vdso.read_target(thread.slot)
                if self.hooks.on_migration_point is not None:
                    self.hooks.on_migration_point(
                        thread, mf.name, instr.point_id,
                        thread.instructions + instret,
                    )
                if target is not None and target != thread.machine_name:
                    thread.pc = (block, idx + 1)
                    self._commit(thread, machine, cycles, instret, extra)
                    self._do_migration(thread, target, instr.site_id)
                    return
                idx += 1
            elif cls is Call:
                args = [read(a) for a in instr.args]
                frame.resume = (block, idx)
                frame.call_site_id = instr.site_id
                thread.pc = (block, idx)
                callee = self._push_frame(thread, mf, frame, instr, args, mem)
                # Rebind hot locals to the callee.
                frame = thread.frames[-1]
                mf = callee
                loc = self._locations(mf)
                block, idx = thread.pc
                instrs = mf.fn.blocks[block].instrs
                all_cycles = self._cycles(mf, cpu)
                cycles_tab = all_cycles[block]
                cycles += cpu.cycles_for(mf.prologue_counts)
                instret += mf.prologue_instret
            elif cls is Ret:
                value = read(instr.value) if instr.value is not None else 0
                epilogue = len(mf.frame.saved_reg_depths) + 2
                cycles += epilogue * cpu.cpi.get(InstrClass.LOAD, 1.0)
                instret += 3 + epilogue
                done = self._pop_frame(thread, value, mem, cpu)
                if done:
                    self._commit(thread, machine, cycles, instret, extra)
                    self._thread_finished(thread, value)
                    return
                frame = thread.frames[-1]
                mf = frame.mf
                loc = self._locations(mf)
                block, idx = thread.pc
                instrs = mf.fn.blocks[block].instrs
                cycles_tab = self._cycles(mf, cpu)[block]
            elif cls is AddrOf:
                write_var(instr.dst, self._resolve_symbol(thread, mf, frame, instr.symbol))
                instret += 1
                idx += 1
            elif cls is StackAlloc:
                depth, _size = mf.frame.buffer_depths[instr.name]
                write_var(instr.dst, frame.cfa - depth)
                instret += 1
                idx += 1
            elif cls is InlineAsm:
                # Opaque native burst; costs already in the cycle table.
                instret += instr.instr_estimate
                idx += 1
            elif cls is Syscall:
                args = [read(a) for a in instr.args]
                cycles += cpu.syscall_cycles
                instret += 2
                result = self.syscalls.handle(thread, instr.name, args)
                extra += result.seconds
                if result.wake:
                    cycles, instret, extra = self._release_wakes(
                        thread, machine, result, cycles, instret, extra
                    )
                if result.action == "exit_process":
                    thread.pc = (block, idx)
                    self._commit(thread, machine, cycles, instret, extra)
                    self._exit_process(thread)
                    return
                if result.action == "block":
                    thread.pc = (block, idx)  # resume AT the syscall
                    self._commit(thread, machine, cycles, instret, extra)
                    machine.thread_stopped()
                    return
                if instr.dst:
                    write_var(instr.dst, result.value)
                idx += 1
            else:  # pragma: no cover
                raise ExecutionError(f"unknown instruction {cls.__name__}")

        thread.pc = (block, idx)
        self._commit(thread, machine, cycles, instret, extra)

    # --------------------------------------------------------- helpers

    @staticmethod
    def _unop(instr: UnOp, a):
        try:
            return _apply_unop(instr.op, a)
        except ValueError as exc:
            raise ExecutionError(str(exc)) from None

    def _commit(
        self,
        thread: Thread,
        machine,
        cycles: float,
        instret: float,
        extra: float,
        count_step: bool = True,
    ) -> None:
        contention = max(
            1.0, machine.running_threads / machine.cpu.cores
        )
        seconds = (cycles / machine.cpu.freq_hz) * contention + extra
        thread.vtime += seconds
        thread.instructions += instret
        machine.charge_execution(instret, seconds)
        if count_step:
            self.steps += 1

    def _release_wakes(
        self,
        thread: Thread,
        machine,
        result,
        cycles: float,
        instret: float,
        extra: float,
    ) -> Tuple[float, float, float]:
        """Wake the threads released by a syscall (barrier, unlock, ...).

        The slice's accrued time is committed *first*: ``wake_at`` must
        be computed from the releasing thread's true arrival time,
        which includes the cycles and DSM service time accrued earlier
        in this very slice.  (Before this commit existed, barrier
        waiters could leave earlier than the thread that released
        them.)  The commit also happens before the woken threads bump
        the machine's run queue, so the pre-wake work is charged at
        pre-wake contention.  Returns the zeroed slice accumulators.
        """
        process = self.process
        self._commit(thread, machine, cycles, instret, extra, count_step=False)
        # Barrier release: everyone leaves at the latest arrival time,
        # including the releasing thread.
        wake_at = max(
            [thread.vtime]
            + [process.threads[t].vtime for t in result.wake]
        )
        thread.vtime = wake_at
        for woken_tid in result.wake:
            self._wake(process.threads[woken_tid], wake_at, 0)
        return 0.0, 0.0, 0.0

    def _locations(self, mf) -> Dict[str, tuple]:
        cached = getattr(mf, "_loc_cache", None)
        if cached is None:
            cached = {}
            for var in mf.fn.var_types:
                reg = mf.alloc.reg_assignment.get(var)
                if reg is not None:
                    cached[var] = ("r", reg)
                else:
                    cached[var] = ("s", mf.frame.slot_depths[var])
            mf._loc_cache = cached
        return cached

    def _cycles(self, mf, cpu) -> Dict[str, List[float]]:
        caches = getattr(mf, "_cycles_cache", None)
        if caches is None:
            caches = {}
            mf._cycles_cache = caches
        table = caches.get(cpu.name)
        if table is None:
            table = {
                label: [cpu.cycles_for(mi.counts) for mi in mis]
                for label, mis in mf.blocks.items()
            }
            caches[cpu.name] = table
        return table

    def _touch_range(self, thread: Thread, instr: Work, base: int) -> float:
        dsm = self.process.dsm
        key = (thread.tid, id(instr))
        # The cache entry is only valid while the DSM state is untouched
        # AND the thread is still on the same machine — a migration
        # must re-establish residency even if no fault bumped the epoch.
        state = (dsm.epoch, base, thread.machine_name)
        if self._range_cache.get(key) == state:
            return 0.0
        cost, _pages = dsm.ensure_range(
            thread.machine_name, base, instr.span, write=True
        )
        if self.sharing_observer is not None:
            self.sharing_observer.note_range(
                thread.tid, base, instr.span, cost, _pages
            )
        self._range_cache[key] = (dsm.epoch, base, thread.machine_name)
        if cost:
            self._mark_io(thread, cost)
        return cost

    def _resolve_symbol(self, thread: Thread, mf, frame, symbol: str) -> int:
        binary = self.process.binary
        if symbol in mf.frame.buffer_depths:
            depth, _ = mf.frame.buffer_depths[symbol]
            return frame.cfa - depth
        if symbol in mf.frame.slot_depths:
            return frame.cfa - mf.frame.slot_depths[symbol]
        if symbol in binary.tls.offsets:
            return thread.thread_pointer + binary.tls.offsets[symbol]
        if symbol in binary.global_addresses:
            return binary.global_addresses[symbol]
        if symbol in binary.module.functions:
            return binary.layout.address_of(symbol)
        raise ExecutionError(f"cannot resolve symbol {symbol!r}")

    # ----------------------------------------------------- call / return

    def _push_frame(self, thread: Thread, caller_mf, caller_frame, instr: Call,
                    args: List[float], mem) -> object:
        from repro.runtime.stack import Frame  # local: avoid import cycle

        isa_name = caller_mf.isa.name
        callee_mf = self.process.binary.machine_function(isa_name, instr.callee)
        new_cfa = caller_frame.cfa - caller_mf.frame.frame_size
        low, _high = thread.stack.active_bounds()
        if new_cfa - callee_mf.frame.frame_size < low:
            raise ExecutionError(
                f"stack overflow calling {instr.callee} (tid {thread.tid})"
            )
        regs = thread.regs
        isa = callee_mf.isa
        ra = caller_mf.return_address(instr.site_id)
        cfr = callee_mf.frame
        if cfr.return_addr_depth:
            mem[new_cfa - cfr.return_addr_depth] = ra
        if isa.cc.link_register:
            regs[isa.cc.link_register] = ra
        if cfr.saved_lr_depth:
            mem[new_cfa - cfr.saved_lr_depth] = ra
        if cfr.saved_fp_depth:
            mem[new_cfa - cfr.saved_fp_depth] = regs[isa.regfile.fp]
        for reg, depth in cfr.saved_reg_depths.items():
            mem[new_cfa - depth] = regs[reg]
        regs[isa.regfile.fp] = new_cfa
        regs[isa.regfile.sp] = new_cfa - cfr.frame_size

        frame = Frame(mf=callee_mf, cfa=new_cfa)
        thread.frames.append(frame)
        loc = self._locations(callee_mf)
        for (pname, _vt), value in zip(callee_mf.fn.params, args):
            where = loc[pname]
            if where[0] == "r":
                regs[where[1]] = value
            else:
                mem[new_cfa - where[1]] = value
        thread.pc = (callee_mf.fn.entry, 0)
        return callee_mf

    def _pop_frame(self, thread: Thread, value, mem, cpu) -> bool:
        """Unwind one frame; True when the thread has no caller left."""
        frame = thread.frames.pop()
        mf = frame.mf
        regs = thread.regs
        isa = mf.isa
        for reg, depth in mf.frame.saved_reg_depths.items():
            regs[reg] = mem.get(frame.cfa - depth, 0)
        if mf.frame.saved_fp_depth:
            regs[isa.regfile.fp] = mem.get(
                frame.cfa - mf.frame.saved_fp_depth, 0
            )
        if not thread.frames:
            return True
        caller = thread.frames[-1]
        block, idx = caller.resume
        call_instr = caller.mf.fn.blocks[block].instrs[idx]
        if call_instr.dst:
            loc = self._locations(caller.mf)[call_instr.dst]
            if loc[0] == "r":
                regs[loc[1]] = value
            else:
                mem[caller.cfa - loc[1]] = value
        regs[isa.regfile.sp] = caller.cfa - caller.mf.frame.frame_size
        thread.pc = (block, idx + 1)
        caller.resume = None
        return False

    # ------------------------------------------------- thread lifecycle

    def _evict_thread_caches(self, tid: int, flow: bool = True) -> None:
        """Drop per-thread engine caches for a finished/failed thread.

        Long serving runs execute many short-lived threads through one
        engine; without eviction ``_page_cache``/``_range_cache`` (and
        the migration flow map) grow monotonically with every thread
        that ever ran.
        """
        self._page_cache.pop(tid, None)
        if self._range_cache:
            stale = [key for key in self._range_cache if key[0] == tid]
            for key in stale:
                del self._range_cache[key]
        if flow:
            self._mig_flow.pop(tid, None)

    def _thread_finished(self, thread: Thread, value) -> None:
        thread.exit_value = value
        kernel = self.system.kernels[thread.machine_name]
        kernel.release_thread(thread)
        thread.state = ThreadState.DONE
        self._evict_thread_caches(thread.tid)
        main_tid = min(self.process.threads)
        if thread.tid == main_tid and self.process.exit_code is None:
            self.process.exit_code = int(value)
        # Wake joiners.
        for other in self.process.threads.values():
            if other.blocked_on == ("join", thread.tid):
                self._wake(other, max(other.vtime, thread.vtime), value)

    def _wake(self, thread: Thread, at_time: float, value) -> None:
        if thread.state != ThreadState.BLOCKED:
            return
        thread.wake(at_time)
        self.system.machines[thread.machine_name].thread_started()
        self._wake_values[thread.tid] = value

    def _complete_blocking_syscall(self, thread: Thread, value) -> None:
        """Finish the syscall the thread blocked in (pc is still at it)."""
        frame = thread.frames[-1]
        block, idx = thread.pc
        instr = frame.mf.fn.blocks[block].instrs[idx]
        if not isinstance(instr, Syscall):
            raise ExecutionError("woken thread not parked at a syscall")
        if instr.dst:
            loc = self._locations(frame.mf)[instr.dst]
            if loc[0] == "r":
                thread.regs[loc[1]] = value
            else:
                self.process.space._mem[frame.cfa - loc[1]] = value
        thread.pc = (block, idx + 1)

    def _exit_process(self, thread: Thread) -> None:
        self.system.reap_process(self.process)
        raise ProcessExit()

    def _fail_thread(self, thread: Thread, exc: Exception) -> None:
        """A crash (or a lost page) killed this thread mid-slice."""
        if thread.state != ThreadState.DONE:
            self.system.fail_thread(thread, str(exc))
        self._evict_thread_caches(thread.tid)

    # -------------------------------------------------------- migration

    def _do_migration(self, thread: Thread, target: str, site_id: int) -> None:
        outcome = self.migration.migrate_thread(thread, target, site_id)
        thread.vtime += outcome.total_seconds
        if outcome.span is not None:
            self._mig_flow[thread.tid] = outcome.span.span_id
        # Residency caches are stale on the new machine (the range
        # cache's machine-name check would catch it, but the dead
        # entries would pin memory until the thread exits).
        self._evict_thread_caches(thread.tid, flow=False)
        if self.hooks.on_migration is not None:
            self.hooks.on_migration(thread, outcome)


# ------------------------------------------------------------- factory

ENGINE_KINDS = ("exact", "fast")


def make_engine(
    system,
    process: Process,
    hooks: Optional[EngineHooks] = None,
    sampler=None,
    batch: int = 256,
    engine: str = "exact",
) -> ExecutionEngine:
    """Build an execution engine: ``engine="exact"`` steps instruction
    by instruction, ``engine="fast"`` fast-forwards compiled regions
    (:mod:`repro.runtime.fastforward`) with bit-identical results.
    """
    if engine == "exact":
        return ExecutionEngine(system, process, hooks, sampler=sampler, batch=batch)
    if engine == "fast":
        from repro.runtime.fastforward import FastExecutionEngine

        return FastExecutionEngine(
            system, process, hooks, sampler=sampler, batch=batch
        )
    raise ValueError(f"unknown engine kind {engine!r}; choose one of {ENGINE_KINDS}")
