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

Each system owns one migration service (``PopcornSystem.migration``),
built at boot beside the messaging layer, the replicated services and
the VFS; every execution engine on the system migrates through it.

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

One :class:`MigrationTxn` record holds the whole hand-off: the thread,
both ISAs, the migration-point site, the transform's stats and cost,
the hand-off cost so far, the phase and whether the process table
already names the destination.  Every step announces itself through
``MessagingLayer.chaos_step`` so the chaos harness can enumerate and
trigger crashes at each one.  After each step the service re-checks
both endpoints and, reading only the record, either proceeds, aborts
back to the source, or promotes the destination copy — so a crash at
any step leaves exactly one live copy of the thread.
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
    """How far a hand-off got; crash recovery is a function of it."""

    PREPARING = "preparing"
    PREPARED = "prepared"
    TRANSFERRED = "transferred"
    COMMITTED = "committed"
    ABORTED = "aborted"


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
        """Transform plus hand-off: what the thread is charged."""
        return self.transform_seconds + self.handoff_seconds


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
class MigrationTxn:
    """One in-flight migration hand-off (the resume token's record)."""

    token: str
    thread: Thread
    src: str
    dst: str
    src_isa: str
    dst_isa: str
    # The migration point's site: the stack is transformed there, and
    # transformed back there on an abort.
    site: int
    transform: Optional[TransformStats] = None
    transform_seconds: float = 0.0
    # Context RPC, namespace replication, publish, continuation setup
    # and an abort's proc-table revert, added in that order.
    handoff_seconds: float = 0.0
    phase: TxnPhase = TxnPhase.PREPARING
    # Whether the process table already names the destination.
    published: bool = False
    # Span bookkeeping for this hand-off; None when tracing is off.
    trace: Optional[_HandoffTrace] = None

    @property
    def cross_isa(self) -> bool:
        """Whether the hand-off transforms the stack to another ISA."""
        return self.src_isa != self.dst_isa

    def outcome(self, aborted=False, resumed=False) -> MigrationOutcome:
        """The hand-off's outcome as the record stands now."""
        return MigrationOutcome(
            self.src, self.dst, self.cross_isa, self.transform,
            self.transform_seconds, self.handoff_seconds,
            aborted=aborted, resumed_from_token=resumed,
        )


class MigrationService:
    """Kernel-level half of execution migration, one per system."""

    def __init__(self, system):
        self.system = system
        self.migrations = 0
        self.cross_isa_migrations = 0
        self.aborted_migrations = 0
        self.resumed_migrations = 0
        self._active: Dict[str, MigrationTxn] = {}
        self._next_token = 1

    # ------------------------------------------------- crash-recovery API

    def threads_with_surviving_copy(self, dead_kernel: str) -> Set[int]:
        """Tids whose context already reached a live destination.

        Consulted by ``PopcornSystem.crash_kernel``: these threads are
        *not* killed with their source kernel — the in-flight hand-off
        promotes the destination copy instead (the resume token).
        """
        return {
            txn.thread.tid
            for txn in self._active.values()
            if txn.phase is TxnPhase.TRANSFERRED
            and txn.src == dead_kernel
            and self.system.kernels[txn.dst].alive
        }

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

        tracer = system.messaging.tracer
        if not system.kernels[dst_machine].alive:
            # Destination already confirmed dead: refuse before doing
            # any work (and before drawing a token) — the thread keeps
            # running at the source.
            self.aborted_migrations += 1
            thread.process.vdso.clear(thread.slot)
            if tracer is not None:
                tracer.instant(
                    "migrate.refused", "migrate", ts=thread.vtime,
                    track=src_machine, tid=thread.tid, dst=dst_machine,
                )
                tracer.metrics.counter("migrate.refused").inc()
            return MigrationOutcome(
                src_machine, dst_machine, src_isa != dst_isa, None, 0.0, 0.0,
                aborted=True,
            )

        txn = MigrationTxn(
            f"mig-{self._next_token}", thread, src_machine, dst_machine,
            src_isa, dst_isa, migpoint_site,
        )
        self._next_token += 1
        self._active[txn.token] = txn
        if tracer is not None:
            txn.trace = _HandoffTrace(
                tracer, thread.vtime, src_machine,
                token=txn.token, pid=thread.process.pid, tid=thread.tid,
                src=src_machine, dst=dst_machine, cross_isa=txn.cross_isa,
                site=migpoint_site,
            )
        try:
            outcome = self._run_protocol(txn)
        finally:
            if txn.trace is not None:
                txn.trace.abandon(crashed=True)
            del self._active[txn.token]
        if tracer is not None:
            outcome.span = txn.trace.root
            metrics = tracer.metrics
            metrics.counter("migrate.count").inc()
            if txn.cross_isa:
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

    def _run_protocol(self, txn) -> MigrationOutcome:
        system = self.system
        thread = txn.thread
        process = thread.process
        trace = txn.trace

        # ---- PREPARE: user-space state transformation (cross-ISA only).
        claim_pages = 0
        if txn.cross_isa:
            txn.transform = validate.make_stack_transformer(
                process.binary, process.space
            ).transform(thread, txn.dst_isa, txn.site)
            txn.transform_seconds = txn.transform.latency_seconds(txn.src_isa)
            # The rewritten stack was produced on the *source* machine:
            # claim its pages for the source kernel so the destination
            # faults them over on demand (no stop-the-world, Fig. 11).
            innermost = thread.frames[-1]
            low = innermost.cfa - innermost.mf.frame.frame_size
            _, claim_pages = process.dsm.ensure_range(
                txn.src, low, thread.stack.top - low, write=True
            )
        txn.phase = TxnPhase.PREPARED
        if trace is not None:
            trace.child(
                "migrate.transform", trace.t0 + txn.transform_seconds,
                cross_isa=txn.cross_isa,
            )
            # The stack claim costs no hand-off latency (served locally
            # at the source), so its child is an instant in the tiling.
            trace.child(
                "migrate.dsm", trace.t0 + txn.transform_seconds,
                claim_pages=claim_pages,
            )
        outcome = self._step(txn, "migrate.prepare")
        if outcome is not None:
            return outcome

        # ---- TRANSFER: the context (resume token) ships to the target.
        txn.handoff_seconds += system.messaging.rpc(
            "migrate.thread", txn.src, txn.dst,
            request_bytes=THREAD_CONTEXT_BYTES, reply_bytes=64,
        )
        txn.phase = TxnPhase.TRANSFERRED
        if trace is not None:
            trace.child(
                "migrate.transfer",
                trace.t0 + txn.transform_seconds + txn.handoff_seconds,
                context_bytes=THREAD_CONTEXT_BYTES,
            )
        outcome = self._step(txn, "migrate.transfer")
        if outcome is not None:
            return outcome

        # Container namespaces span to the destination kernel.
        created = process.container.span_to(txn.dst)
        if created:
            txn.handoff_seconds += system.messaging.rpc(
                "ns.replicate", txn.src, txn.dst,
                request_bytes=created * NAMESPACE_REPLICA_BYTES,
                reply_bytes=64,
            )

        # ---- PUBLISH: the replicated process table observes the move,
        # so every kernel can still route signals/joins to the thread.
        txn.handoff_seconds += system.services.proctable.note_migration(
            txn.src, process.pid, thread.tid, txn.dst
        )
        txn.published = True
        if trace is not None:
            trace.child(
                "migrate.publish",
                trace.t0 + txn.transform_seconds + txn.handoff_seconds,
                namespaces=created,
            )
        outcome = self._step(txn, "migrate.publish")
        if outcome is not None:
            return outcome

        # ---- COMMIT: rebind the thread.  A crash from here on either
        # takes the thread with the destination or no longer matters.
        self._rebind(txn)
        self._step(txn, "migrate.commit")

        # The transfer shows up on both machines' I/O power rails.
        # Source pages become residual state, pulled over on demand.
        outcome = txn.outcome()
        if trace is not None:
            trace.child("migrate.commit", trace.t0 + outcome.total_seconds)
            trace.close(outcome.total_seconds)
        system.machines[txn.src].note_io_activity(outcome.total_seconds)
        system.machines[txn.dst].note_io_activity(outcome.total_seconds)
        return outcome

    def _rebind(self, txn) -> None:
        """Commit: continue the thread on the destination kernel."""
        system = self.system
        thread = txn.thread
        # Heterogeneous continuation on the destination kernel.
        if txn.dst not in thread.kernel_state:
            thread.kernel_state[txn.dst] = KernelThreadState(
                txn.dst, created_at=system.clock.now
            )
            txn.handoff_seconds += CONTINUATION_SETUP_S
        system.kernels[txn.src].release_thread(thread)
        thread.machine_name = txn.dst
        system.kernels[txn.dst].adopt_thread(thread)
        thread.process.vdso.clear(thread.slot)
        thread.migrations += 1
        self.migrations += 1
        if txn.cross_isa:
            self.cross_isa_migrations += 1
        txn.phase = TxnPhase.COMMITTED

    # -------------------------------------------------- crash handling

    def _step(self, txn, step: str) -> Optional[MigrationOutcome]:
        """Announce ``step`` to the chaos hook; settle a crash it fired.

        Returns an outcome (abort / promote) or None to proceed —
        raises ``KernelCrashed`` when the thread itself died with its
        kernel (crash recovery already marked it DONE).
        """
        system = self.system
        if not system.messaging.chaos_step(step, src=txn.src, dst=txn.dst):
            return None
        from repro.kernel.kernel import KernelCrashed

        if txn.thread.state is ThreadState.DONE:
            # The thread's only copy died with its kernel: before
            # TRANSFER nothing left the source; after COMMIT the source
            # copy was already gone.  Exactly zero-survivor cases are
            # real deaths, recorded loudly by crash_kernel.
            raise KernelCrashed(txn.thread.machine_name)
        if txn.phase is TxnPhase.COMMITTED:
            # Already committed; the source's death is irrelevant now.
            return None
        if not system.kernels[txn.dst].alive:
            return self._abort(txn)
        if not system.kernels[txn.src].alive:
            return self._promote(txn)
        # Some third kernel died; the hand-off itself is unaffected.
        return None

    def _abort(self, txn) -> MigrationOutcome:
        """Destination died mid-hand-off: roll back to the source."""
        system = self.system
        thread = txn.thread
        process = thread.process
        if txn.transform is not None:
            # The stack was rewritten for the destination ISA; rewrite
            # it back so the thread can resume at the source.
            back = validate.make_stack_transformer(
                process.binary, process.space
            ).transform(thread, txn.src_isa, txn.site)
            txn.transform_seconds += back.latency_seconds(txn.src_isa)
        if txn.published:
            # Revert the process table to name the source again.  The
            # dead destination was already scrubbed from the broadcast
            # set by crash recovery.
            txn.handoff_seconds += system.services.proctable.note_migration(
                txn.src, process.pid, thread.tid, txn.src
            )
        process.vdso.clear(thread.slot)
        txn.phase = TxnPhase.ABORTED
        self.aborted_migrations += 1
        outcome = txn.outcome(aborted=True)
        if txn.trace is not None:
            txn.trace.child(
                "migrate.abort", txn.trace.t0 + outcome.total_seconds,
                dst_dead=True,
            )
            txn.trace.close(outcome.total_seconds, aborted=True)
        system.machines[txn.src].note_io_activity(outcome.total_seconds)
        return outcome

    def _promote(self, txn) -> MigrationOutcome:
        """Source died after TRANSFER: the destination applies its token.

        Idempotent by construction — the token is consumed here and the
        transaction retires, so it can never be applied twice; the
        source copy is fenced and can never run again.
        """
        system = self.system
        thread = txn.thread
        process = thread.process
        # Namespaces span locally (their config is re-derivable from the
        # replicated services; the dead source cannot ship a replica).
        process.container.span_to(txn.dst)
        if not txn.published:
            # The destination publishes the move itself, as origin.
            txn.handoff_seconds += system.services.proctable.note_migration(
                txn.dst, process.pid, thread.tid, txn.dst
            )
            txn.published = True
        self._rebind(txn)
        self.resumed_migrations += 1
        outcome = txn.outcome(resumed=True)
        if txn.trace is not None:
            txn.trace.child(
                "migrate.promote", txn.trace.t0 + outcome.total_seconds,
                src_dead=True,
            )
            txn.trace.close(outcome.total_seconds, resumed=True)
        system.machines[txn.dst].note_io_activity(outcome.total_seconds)
        return outcome
