"""Whole-system crash-consistency invariants (chaos-harness checks).

These functions audit a :class:`~repro.kernel.kernel.PopcornSystem`
*after* a run that may have included injected kernel crashes:

* :func:`check_thread_conservation` — the exactly-one-copy guarantee:
  every live thread is homed on exactly one *alive* kernel (never zero
  after a survivable crash, never two after a resumed hand-off), and
  finished threads are homed nowhere;
* :func:`check_directory_scrubbed` — no hDSM directory entry, backup
  record, or process-table route still names a fenced (dead) kernel.

Each call counts one ``system`` check in the default validation log.
Both fail through :func:`~repro.validate.errors.fail` with a state
dump and return quietly otherwise.
"""

from typing import Dict, Iterable, List

from repro.kernel.process import ThreadState
from repro.telemetry.validation import default_log
from repro.validate.errors import fail

CHECKER = "system"


def check_thread_conservation(system, processes: Iterable) -> None:
    """Every live thread has exactly one copy, on an alive kernel."""
    default_log().note_check(CHECKER)
    homes: Dict[int, List[str]] = {}
    for kernel in system.kernels.values():
        for tid in kernel.threads:
            homes.setdefault(tid, []).append(kernel.name)
    for process in processes:
        for thread in process.threads.values():
            hosted = homes.get(thread.tid, [])
            if thread.state is ThreadState.DONE:
                if hosted:
                    fail(
                        CHECKER, "done-thread-homed-nowhere",
                        f"finished tid {thread.tid} still homed on "
                        f"{hosted} (a dead thread's copy survived)",
                        {"tid": thread.tid, "hosted": hosted},
                    )
                continue
            if len(hosted) != 1:
                fail(
                    CHECKER, "exactly-one-copy",
                    f"live tid {thread.tid} homed on {len(hosted)} kernels "
                    f"{hosted} — a crash left "
                    + ("zero" if not hosted else "multiple")
                    + " live copies",
                    {"tid": thread.tid, "hosted": hosted,
                     "state": thread.state.value},
                )
            if hosted[0] != thread.machine_name:
                fail(
                    CHECKER, "home-matches-thread",
                    f"live tid {thread.tid} believes it is on "
                    f"{thread.machine_name} but kernel {hosted[0]} hosts it",
                    {"tid": thread.tid, "hosted": hosted,
                     "machine_name": thread.machine_name},
                )
            if not system.kernels[hosted[0]].alive:
                fail(
                    CHECKER, "live-copy-on-alive-kernel",
                    f"live tid {thread.tid} homed on dead kernel "
                    f"{hosted[0]} (crash recovery missed it)",
                    {"tid": thread.tid, "kernel": hosted[0]},
                )


def check_directory_scrubbed(system, processes: Iterable) -> None:
    """No surviving route (DSM, backup, proctable) names a dead kernel."""
    default_log().note_check(CHECKER)
    dead = set(system.messaging.fenced)
    if not dead:
        return
    for process in processes:
        dsm = process.dsm
        if dsm is not None:
            for kernel in dead:
                if dsm.references_kernel(kernel):
                    fail(
                        CHECKER, "dsm-directory-scrubbed",
                        f"pid {process.pid}: hDSM directory still routes at "
                        f"dead kernel {kernel}",
                        {"pid": process.pid, "kernel": kernel,
                         "owner": dsm.owner_map()},
                    )
            stale_backups = {
                page: holder
                for page, holder in dsm.backup_map().items()
                if holder in dead
            }
            if stale_backups:
                fail(
                    CHECKER, "backups-scrubbed",
                    f"pid {process.pid}: backup copies still recorded on "
                    f"dead kernels: {stale_backups}",
                    {"pid": process.pid, "stale": stale_backups},
                )
        routes = system.services.proctable.threads_of(process.pid)
        for tid, machine in routes.items():
            thread = process.threads.get(tid)
            if thread is None or thread.state is ThreadState.DONE:
                continue
            if machine in dead:
                fail(
                    CHECKER, "proctable-scrubbed",
                    f"pid {process.pid}: process table routes live tid "
                    f"{tid} at dead kernel {machine}",
                    {"pid": process.pid, "tid": tid, "machine": machine},
                )
            if machine != thread.machine_name:
                fail(
                    CHECKER, "proctable-current",
                    f"pid {process.pid}: process table routes tid {tid} at "
                    f"{machine} but the thread runs on "
                    f"{thread.machine_name}",
                    {"pid": process.pid, "tid": tid, "machine": machine,
                     "actual": thread.machine_name},
                )
