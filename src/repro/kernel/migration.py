"""The thread migration service.

Migration sequence at a migration point (Sections 5.1 and 5.3):

1. the user-space runtime transforms the stack into the inactive half
   (:class:`repro.runtime.transform.StackTransformer`) and maps the
   register state (r_AB) — charged to the thread at the *source*
   machine's speed;
2. the thread "makes a system call to the thread migration service":
   the source kernel ships the thread context (registers + metadata) to
   the destination kernel over the messaging layer;
3. the destination kernel materialises a heterogeneous continuation
   (fresh per-ISA kernel stack + TCB) and the container's namespaces
   span to it if they had not already;
4. execution resumes immediately; memory follows on demand through the
   hDSM (no stop-the-world) — visible as the post-migration page-pull
   spike of Figure 11.

Homogeneous-ISA migration (the dynamic policies may also move work
between identical x86 boxes) skips the transformation but pays the
kernel-level hand-off.

Crash consistency.  The hand-off is a two-phase protocol:

    PREPARE   stack transformed + claimed at the source; nothing has
              left the source yet — a crash of either side aborts
              (destination death) or kills the thread (source death).
    TRANSFER  the thread context (the *resume token*) now exists at the
              destination; from here a source crash is survivable — the
              destination promotes its copy (idempotent: the token is
              applied at most once).
    PUBLISH   the replicated process table names the destination; an
              abort must revert it.
    COMMIT    the thread is rebound to the destination kernel; the
              source copy is dead.

Every step announces itself through ``MessagingLayer.chaos_step`` so
the chaos harness can enumerate and trigger crashes at each one.  After
each step the service re-checks both endpoints and either proceeds,
aborts back to the source, or promotes the destination copy — so a
crash at any step leaves exactly one live copy of the thread.
"""

import enum
from dataclasses import dataclass
from typing import Dict, Optional, Set

from repro import validate
from repro.kernel.process import KernelThreadState, Thread, ThreadState
from repro.runtime.transform import TransformStats

THREAD_CONTEXT_BYTES = 2048  # register file + unwound-metadata summary
CONTINUATION_SETUP_S = 12e-6  # kernel stack + TCB creation on the target
NAMESPACE_REPLICA_BYTES = 512


class TxnPhase(enum.Enum):
    PREPARING = "preparing"
    PREPARED = "prepared"
    TRANSFERRED = "transferred"
    COMMITTED = "committed"
    ABORTED = "aborted"


@dataclass
class MigrationTxn:
    """One in-flight migration hand-off (the resume token's record)."""

    token: str
    pid: int
    tid: int
    src: str
    dst: str
    site: int
    phase: TxnPhase = TxnPhase.PREPARING
    # Whether the process table already names the destination.
    published: bool = False
    thread: Optional[Thread] = None
    # Span bookkeeping for this hand-off; None when tracing is off.
    trace: Optional["_HandoffTrace"] = None


class _HandoffTrace:
    """Span bookkeeping for one traced migration hand-off.

    The root ``migrate`` span is opened when the protocol starts (at
    the thread's virtual time) and decomposed into phase children —
    ``migrate.transform`` / ``migrate.dsm`` / ``migrate.transfer`` /
    ``migrate.publish`` / ``migrate.commit`` (or ``migrate.abort`` /
    ``migrate.promote`` on the crash paths) — whose intervals tile the
    root exactly, so the critical-path analyzer can re-derive the
    paper's transform / DSM / hand-off latency decomposition from the
    trace alone.
    """

    def __init__(self, tracer, t0: float, track: str, **attrs):
        self.tracer = tracer
        self.t0 = t0
        self.cursor = t0
        self.root = tracer.begin(
            "migrate", "migrate", start_s=t0, track=track, **attrs
        )

    def child(self, name: str, end_s: float, **attrs):
        """Emit a phase child covering [cursor, end_s], advance cursor."""
        end_s = max(end_s, self.cursor)
        self.tracer.complete(
            name, "migrate", self.cursor, end_s - self.cursor,
            track=self.root.track, parent=self.root, **attrs
        )
        self.cursor = end_s

    def close(self, total_seconds: float, **attrs) -> None:
        """Close the root span ``total_seconds`` after its start."""
        self.tracer.end(self.root, end_s=self.t0 + total_seconds, **attrs)

    def abandon(self, **attrs) -> None:
        """Close a root left open by a mid-protocol KernelCrashed."""
        if self.root.end_s is None:
            self.tracer.end(self.root, end_s=self.cursor, **attrs)


@dataclass
class MigrationOutcome:
    """What one migration cost and produced."""

    src_machine: str
    dst_machine: str
    cross_isa: bool
    transform: Optional[TransformStats]
    transform_seconds: float
    handoff_seconds: float
    #: True if the hand-off rolled back and the thread stayed at the source.
    aborted: bool = False
    #: True if the destination promoted its resume token after the
    #: source died mid-hand-off.
    resumed_from_token: bool = False
    #: The root ``migrate`` span when tracing is on (else None); the
    #: engine uses its id to flow-link the post-migration page pulls.
    span: Optional[object] = None

    @property
    def total_seconds(self) -> float:
        return self.transform_seconds + self.handoff_seconds


class MigrationService:
    """Kernel-level half of execution migration."""

    def __init__(self, system):
        self.system = system
        self.migrations = 0
        self.cross_isa_migrations = 0
        self.aborted_migrations = 0
        self.resumed_migrations = 0
        self._active: Dict[str, MigrationTxn] = {}
        self._next_token = 1
        system.migration_services.append(self)

    # ------------------------------------------------- crash-recovery API

    def threads_with_surviving_copy(self, dead_kernel: str) -> Set[int]:
        """Tids whose context already reached a live destination.

        Consulted by ``PopcornSystem.crash_kernel``: these threads are
        *not* killed with their source kernel — the in-flight hand-off
        promotes the destination copy instead (the resume token).
        """
        saved: Set[int] = set()
        for txn in self._active.values():
            if (
                txn.phase is TxnPhase.TRANSFERRED
                and txn.src == dead_kernel
                and self.system.kernels[txn.dst].alive
            ):
                saved.add(txn.tid)
        return saved

    # ---------------------------------------------------------- migrate

    def migrate_thread(
        self, thread: Thread, dst_machine: str, migpoint_site: int
    ) -> MigrationOutcome:
        """Move ``thread`` to ``dst_machine``; returns the outcome.

        The caller (execution engine) is responsible for charging
        ``outcome.total_seconds`` to the thread's virtual time.  If the
        outcome is ``aborted`` the thread is still at the source.
        """
        system = self.system
        src_machine = thread.machine_name
        if dst_machine == src_machine:
            raise ValueError("migration to the current machine")
        src_isa = system.isa_of(src_machine)
        dst_isa = system.isa_of(dst_machine)
        process = thread.process
        cross = src_isa != dst_isa

        tracer = system.messaging.tracer
        if not system.kernels[dst_machine].alive:
            # Destination already confirmed dead: refuse before doing
            # any work — the thread keeps running at the source.
            self.aborted_migrations += 1
            process.vdso.clear(thread.tid)
            if tracer is not None:
                tracer.instant(
                    "migrate.refused", "migrate", ts=thread.vtime,
                    track=src_machine, tid=thread.tid, dst=dst_machine,
                )
                tracer.metrics.counter("migrate.refused").inc()
            return MigrationOutcome(
                src_machine, dst_machine, cross, None, 0.0, 0.0, aborted=True
            )

        txn = MigrationTxn(
            token=f"mig-{self._next_token}",
            pid=process.pid,
            tid=thread.tid,
            src=src_machine,
            dst=dst_machine,
            site=migpoint_site,
            thread=thread,
        )
        self._next_token += 1
        self._active[txn.token] = txn
        if tracer is not None:
            txn.trace = _HandoffTrace(
                tracer, thread.vtime, src_machine,
                token=txn.token, pid=process.pid, tid=thread.tid,
                src=src_machine, dst=dst_machine, cross_isa=cross,
                site=migpoint_site,
            )
        try:
            outcome = self._run_protocol(
                txn, thread, process, src_isa, dst_isa, migpoint_site
            )
        finally:
            if txn.trace is not None:
                txn.trace.abandon(crashed=True)
            del self._active[txn.token]
        if tracer is not None:
            outcome.span = txn.trace.root
            metrics = tracer.metrics
            metrics.counter("migrate.count").inc()
            if cross:
                metrics.counter("migrate.cross_isa").inc()
            if outcome.aborted:
                metrics.counter("migrate.aborted").inc()
            if outcome.resumed_from_token:
                metrics.counter("migrate.resumed").inc()
            metrics.histogram("migrate.transform_s").observe(
                outcome.transform_seconds
            )
            metrics.histogram("migrate.handoff_s").observe(
                outcome.handoff_seconds
            )
            metrics.histogram("migrate.total_s").observe(
                outcome.total_seconds
            )
        return outcome

    def _run_protocol(
        self, txn, thread, process, src_isa, dst_isa, migpoint_site
    ) -> MigrationOutcome:
        system = self.system
        src_machine, dst_machine = txn.src, txn.dst
        cross = src_isa != dst_isa

        # ---- PREPARE: user-space state transformation (cross-ISA only).
        transform_stats = None
        transform_seconds = 0.0
        claim_pages = 0
        if cross:
            transformer = validate.make_stack_transformer(
                process.binary, process.space
            )
            transform_stats = transformer.transform(
                thread, dst_isa, migpoint_site
            )
            transform_seconds = transform_stats.latency_seconds(src_isa)
            # The rewritten stack was produced on the *source* machine:
            # claim its pages for the source kernel so the destination
            # faults them over on demand (no stop-the-world, Fig. 11).
            innermost = thread.frames[-1]
            low = innermost.cfa - innermost.mf.frame.frame_size
            _, claim_pages = process.dsm.ensure_range(
                src_machine, low, thread.stack.top - low, write=True
            )
        txn.phase = TxnPhase.PREPARED
        trace = txn.trace
        if trace is not None:
            trace.child(
                "migrate.transform", trace.t0 + transform_seconds,
                cross_isa=cross,
            )
            # The stack claim costs no hand-off latency (served locally
            # at the source), so its child is an instant in the tiling.
            trace.child(
                "migrate.dsm", trace.t0 + transform_seconds,
                claim_pages=claim_pages,
            )
        if system.messaging.chaos_step(
            "migrate.prepare", src=src_machine, dst=dst_machine
        ):
            outcome = self._after_crash(
                txn, thread, process, transform_stats, transform_seconds, 0.0,
                src_isa, dst_isa, migpoint_site,
            )
            if outcome is not None:
                return outcome

        # ---- TRANSFER: the context (resume token) ships to the target.
        handoff = system.messaging.rpc(
            "migrate.thread",
            src_machine,
            dst_machine,
            request_bytes=THREAD_CONTEXT_BYTES,
            reply_bytes=64,
        )
        txn.phase = TxnPhase.TRANSFERRED
        if trace is not None:
            trace.child(
                "migrate.transfer",
                trace.t0 + transform_seconds + handoff,
                context_bytes=THREAD_CONTEXT_BYTES,
            )
        if system.messaging.chaos_step(
            "migrate.transfer", src=src_machine, dst=dst_machine
        ):
            outcome = self._after_crash(
                txn, thread, process, transform_stats, transform_seconds,
                handoff, src_isa, dst_isa, migpoint_site,
            )
            if outcome is not None:
                return outcome

        # Container namespaces span to the destination kernel.
        created = process.container.span_to(dst_machine)
        if created:
            handoff += system.messaging.rpc(
                "ns.replicate",
                src_machine,
                dst_machine,
                request_bytes=created * NAMESPACE_REPLICA_BYTES,
                reply_bytes=64,
            )

        # ---- PUBLISH: the replicated process table observes the move,
        # so every kernel can still route signals/joins to the thread.
        handoff += system.services.proctable.note_migration(
            src_machine, process.pid, thread.tid, dst_machine
        )
        txn.published = True
        if trace is not None:
            trace.child(
                "migrate.publish",
                trace.t0 + transform_seconds + handoff,
                namespaces=created,
            )
        if system.messaging.chaos_step(
            "migrate.publish", src=src_machine, dst=dst_machine
        ):
            outcome = self._after_crash(
                txn, thread, process, transform_stats, transform_seconds,
                handoff, src_isa, dst_isa, migpoint_site,
            )
            if outcome is not None:
                return outcome

        # Heterogeneous continuation on the destination kernel.
        if dst_machine not in thread.kernel_state:
            thread.kernel_state[dst_machine] = KernelThreadState(
                dst_machine, created_at=system.clock.now
            )
            handoff += CONTINUATION_SETUP_S

        # ---- COMMIT: rebind the thread.
        src_kernel = system.kernels[src_machine]
        dst_kernel = system.kernels[dst_machine]
        src_kernel.release_thread(thread)
        thread.machine_name = dst_machine
        dst_kernel.adopt_thread(thread)

        process.vdso.clear(thread.tid)
        thread.migrations += 1
        self.migrations += 1
        if cross:
            self.cross_isa_migrations += 1
        txn.phase = TxnPhase.COMMITTED
        if system.messaging.chaos_step(
            "migrate.commit", src=src_machine, dst=dst_machine
        ):
            outcome = self._after_crash(
                txn, thread, process, transform_stats, transform_seconds,
                handoff, src_isa, dst_isa, migpoint_site,
            )
            if outcome is not None:
                return outcome

        # The transfer shows up on both machines' I/O power rails.
        duration = transform_seconds + handoff
        if trace is not None:
            trace.child("migrate.commit", trace.t0 + duration)
            trace.close(duration)
        system.machines[src_machine].note_io_activity(duration)
        system.machines[dst_machine].note_io_activity(duration)

        # Source pages become residual state, pulled over on demand.
        return MigrationOutcome(
            src_machine=src_machine,
            dst_machine=dst_machine,
            cross_isa=cross,
            transform=transform_stats,
            transform_seconds=transform_seconds,
            handoff_seconds=handoff,
        )

    # -------------------------------------------------- crash handling

    def _after_crash(
        self,
        txn,
        thread,
        process,
        transform_stats,
        transform_seconds,
        handoff,
        src_isa,
        dst_isa,
        migpoint_site,
    ) -> Optional[MigrationOutcome]:
        """Decide the fate of the hand-off after a crash fired.

        Returns an outcome (abort / promote) or None to proceed —
        raises ``KernelCrashed`` when the thread itself died with its
        kernel (crash recovery already marked it DONE).
        """
        from repro.kernel.kernel import KernelCrashed

        system = self.system
        if thread.state is ThreadState.DONE:
            # The thread's only copy died with its kernel: before
            # TRANSFER nothing left the source; after COMMIT the source
            # copy was already gone.  Exactly zero-survivor cases are
            # real deaths, recorded loudly by crash_kernel.
            raise KernelCrashed(thread.machine_name)

        dst_alive = system.kernels[txn.dst].alive
        src_alive = system.kernels[txn.src].alive
        if txn.phase is TxnPhase.COMMITTED:
            # Already committed; the source's death is irrelevant now.
            return None
        if not dst_alive:
            return self._abort(
                txn, thread, process, transform_stats, transform_seconds,
                handoff, src_isa, dst_isa, migpoint_site,
            )
        if not src_alive:
            return self._promote(
                txn, thread, process, transform_stats, transform_seconds,
                handoff, src_isa,
            )
        # Some third kernel died; the hand-off itself is unaffected.
        return None

    def _abort(
        self,
        txn,
        thread,
        process,
        transform_stats,
        transform_seconds,
        handoff,
        src_isa,
        dst_isa,
        migpoint_site,
    ) -> MigrationOutcome:
        """Destination died mid-hand-off: roll back to the source."""
        system = self.system
        cross = src_isa != dst_isa
        if cross and transform_stats is not None:
            # The stack was rewritten for the destination ISA; rewrite
            # it back so the thread can resume at the source.
            transformer = validate.make_stack_transformer(
                process.binary, process.space
            )
            back = transformer.transform(thread, src_isa, migpoint_site)
            transform_seconds += back.latency_seconds(src_isa)
        if txn.published:
            # Revert the process table to name the source again.  The
            # dead destination was already scrubbed from the broadcast
            # set by crash recovery.
            handoff += system.services.proctable.note_migration(
                txn.src, process.pid, thread.tid, txn.src
            )
        process.vdso.clear(thread.tid)
        txn.phase = TxnPhase.ABORTED
        self.aborted_migrations += 1
        duration = transform_seconds + handoff
        if txn.trace is not None:
            txn.trace.child(
                "migrate.abort", txn.trace.t0 + duration, dst_dead=True
            )
            txn.trace.close(duration, aborted=True)
        system.machines[txn.src].note_io_activity(duration)
        return MigrationOutcome(
            src_machine=txn.src,
            dst_machine=txn.dst,
            cross_isa=cross,
            transform=transform_stats,
            transform_seconds=transform_seconds,
            handoff_seconds=handoff,
            aborted=True,
        )

    def _promote(
        self,
        txn,
        thread,
        process,
        transform_stats,
        transform_seconds,
        handoff,
        src_isa,
    ) -> MigrationOutcome:
        """Source died after TRANSFER: the destination applies its token.

        Idempotent by construction — the token is consumed here and the
        transaction retires, so it can never be applied twice; the
        source copy is fenced and can never run again.
        """
        system = self.system
        dst_isa = system.isa_of(txn.dst)
        cross = src_isa != dst_isa
        # Namespaces span locally (their config is re-derivable from the
        # replicated services; the dead source cannot ship a replica).
        process.container.span_to(txn.dst)
        if not txn.published:
            # The destination publishes the move itself, as origin.
            handoff += system.services.proctable.note_migration(
                txn.dst, process.pid, thread.tid, txn.dst
            )
            txn.published = True
        if txn.dst not in thread.kernel_state:
            thread.kernel_state[txn.dst] = KernelThreadState(
                txn.dst, created_at=system.clock.now
            )
            handoff += CONTINUATION_SETUP_S
        system.kernels[txn.src].release_thread(thread)
        thread.machine_name = txn.dst
        system.kernels[txn.dst].adopt_thread(thread)
        process.vdso.clear(thread.tid)
        thread.migrations += 1
        self.migrations += 1
        if cross:
            self.cross_isa_migrations += 1
        self.resumed_migrations += 1
        txn.phase = TxnPhase.COMMITTED
        duration = transform_seconds + handoff
        if txn.trace is not None:
            txn.trace.child(
                "migrate.promote", txn.trace.t0 + duration, src_dead=True
            )
            txn.trace.close(duration, resumed=True)
        system.machines[txn.dst].note_io_activity(duration)
        return MigrationOutcome(
            src_machine=txn.src,
            dst_machine=txn.dst,
            cross_isa=cross,
            transform=transform_stats,
            transform_seconds=transform_seconds,
            handoff_seconds=handoff,
            resumed_from_token=True,
        )
