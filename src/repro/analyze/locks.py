"""Static lock-order lint (RACE050/RACE051).

Complements the runtime deadlock reporter in
:mod:`repro.runtime.execution`: instead of detecting a deadlock that
already happened, this pass finds the *potential* — a cycle in the
static lock-acquisition-order graph (RACE050), or a mutex held across
a blocking synchronisation operation (RACE051), which turns an
unrelated slow thread into every lock waiter's problem and is the
classic shape of barrier/join deadlocks.

Lock identities are constant mutex ids resolved through the shared
concurrency model; a dynamically computed id cannot be tracked and
simply contributes no edges (the sound direction — this pass only ever
*adds* findings, never suppresses the races pass).
"""

from typing import Dict, Set

from repro.analyze.concurrency import get_model
from repro.analyze.diagnostics import Severity
from repro.ir.analysis import strongly_connected
from repro.ir.instructions import Syscall

PASS_NAME = "locks"

_LOCK_SYSCALLS = {
    "mutex_init", "mutex_lock", "mutex_unlock",
    "cond_init", "cond_wait", "cond_signal", "cond_broadcast",
}


def run_locks(ctx, report) -> None:
    """Emit RACE050 (lock-order cycles) and RACE051 (blocking while
    holding a mutex)."""
    model = get_model(ctx.module)

    lock_sites = sum(
        1
        for fn in ctx.module.functions.values()
        for _, _, instr in fn.instructions()
        if isinstance(instr, Syscall) and instr.name in _LOCK_SYSCALLS
    )
    checks = lock_sites + len(model.lock_edges) + len(model.blocking_sites)
    report.note_checks(PASS_NAME, max(checks, 1))

    graph: Dict[int, Set[int]] = {}
    for edge in model.lock_edges:
        graph.setdefault(edge.first, set()).add(edge.second)
        graph.setdefault(edge.second, set())

    cyclic: Set[int] = set()
    ordered = {lock: sorted(nxt) for lock, nxt in graph.items()}
    for scc in map(sorted, strongly_connected(sorted(graph), ordered)):
        if len(scc) > 1 or (len(scc) == 1 and scc[0] in graph.get(scc[0], ())):
            cyclic.update(scc)
            # Anchor the finding at the first edge inside the cycle.
            members = set(scc)
            inside = [
                e for e in model.lock_edges
                if e.first in members and e.second in members
            ]
            rep = min(inside, key=lambda e: (e.fn, e.ordinal))
            order = "->".join(str(lock) for lock in scc + [scc[0]])
            sites = ", ".join(
                f"{e.first}->{e.second} at {e.fn}:{e.block}:{e.index} "
                f"[{e.role}]"
                for e in sorted(inside, key=lambda e: (e.fn, e.ordinal))
            )
            report.emit(
                "RACE050",
                Severity.ERROR,
                f"lock-acquisition cycle {order}: threads taking these "
                f"mutexes in different orders can deadlock ({sites})",
                pass_name=PASS_NAME,
                function=rep.fn,
                site=rep.ordinal,
                symbol=f"locks:{order}",
            )

    for site in sorted(
        model.blocking_sites, key=lambda s: (s.fn, s.ordinal, s.role)
    ):
        held = ", ".join(str(lock) for lock in sorted(site.held))
        report.emit(
            "RACE051",
            Severity.WARNING,
            f"mutex {held} held across blocking {site.syscall} at "
            f"{site.fn}:{site.block}:{site.index} [{site.role}]: every "
            "other waiter on the mutex now also waits for the "
            f"{site.syscall} to complete (deadlock-prone)",
            pass_name=PASS_NAME,
            function=site.fn,
            site=site.ordinal,
            symbol=f"lock:{held}",
        )
