"""The lint pass manager.

A :class:`LintPass` is a named check over a :class:`LintContext`; the
driver runs every applicable pass and collects one
:class:`~repro.analyze.diagnostics.LintReport`.  Passes that need a
linked binary are skipped (not failed) when linting a bare IR module,
so ``repro lint`` can still report ``MIG001`` structural problems for
modules the toolchain would refuse to build.
"""

from dataclasses import dataclass
from typing import Callable, List, Optional

from repro.analyze.binary_checks import (
    run_layout_lint,
    run_migration_coverage,
    run_stackmap_soundness,
    run_unwind_consistency,
)
from repro.analyze.diagnostics import LintReport
from repro.analyze.ir_checks import run_ir_validity, run_stack_escape
from repro.analyze.locks import run_locks
from repro.analyze.races import run_races
from repro.analyze.sharing import run_sharing
from repro.compiler.migration_points import DEFAULT_TARGET_GAP


@dataclass
class LintContext:
    """Everything a pass may inspect."""

    module: object                      # repro.ir.function.Module
    binary: Optional[object] = None     # repro.compiler.toolchain.MultiIsaBinary
    target_gap: int = DEFAULT_TARGET_GAP
    point_mode: str = "profiled"


@dataclass(frozen=True)
class LintPass:
    """One registered analysis pass."""

    name: str
    run: Callable[[LintContext, LintReport], None]
    needs_binary: bool = True
    description: str = ""


LINT_PASSES: List[LintPass] = [
    LintPass("ir", run_ir_validity, needs_binary=False,
             description="IR structural validity (MIG001)"),
    LintPass("escape", run_stack_escape, needs_binary=False,
             description="stack-pointer escape (MIG050/MIG051)"),
    LintPass("races", run_races, needs_binary=False,
             description="static data races (RACE001/RACE002)"),
    LintPass("locks", run_locks, needs_binary=False,
             description="lock order / blocking (RACE050/RACE051)"),
    LintPass("sharing", run_sharing, needs_binary=False,
             description="DSM page-sharing prediction (SHR001-SHR003)"),
    LintPass("stackmap", run_stackmap_soundness,
             description="stackmap liveness soundness (MIG010-MIG015)"),
    LintPass("unwind", run_unwind_consistency,
             description="unwind/frame consistency (MIG020-MIG023)"),
    LintPass("layout", run_layout_lint,
             description="common address-space layout (MIG030-MIG034)"),
    LintPass("coverage", run_migration_coverage,
             description="migration-point coverage (MIG002/MIG040-MIG042)"),
]


def pass_names() -> List[str]:
    return [p.name for p in LINT_PASSES]


def run_lint(
    target,
    passes: Optional[List[str]] = None,
    target_gap: Optional[int] = None,
    subject: str = "",
) -> LintReport:
    """Lint ``target`` — a ``Module`` or a ``MultiIsaBinary``.

    ``passes`` restricts the run to the named passes; ``target_gap``
    overrides the responsiveness target recorded on the binary.
    Returns the populated :class:`LintReport`; nothing is raised — the
    caller decides what severities are fatal.
    """
    from repro.compiler.toolchain import MultiIsaBinary

    if isinstance(target, MultiIsaBinary):
        ctx = LintContext(
            module=target.module,
            binary=target,
            target_gap=target_gap or target.target_gap,
            point_mode=target.point_mode,
        )
        subject = subject or target.module.name
    else:
        ctx = LintContext(module=target, target_gap=target_gap or DEFAULT_TARGET_GAP)
        subject = subject or getattr(target, "name", "")

    selected = LINT_PASSES
    if passes is not None:
        known = {p.name: p for p in LINT_PASSES}
        unknown = sorted(set(passes) - set(known))
        if unknown:
            raise ValueError(f"unknown lint passes {unknown}; have {pass_names()}")
        selected = [known[name] for name in passes]

    report = LintReport(subject=subject)
    structurally_valid = True
    for lint_pass in selected:
        if lint_pass.needs_binary and ctx.binary is None:
            continue
        if lint_pass.name != "ir" and not structurally_valid:
            # Downstream passes assume a well-formed CFG; all MIG001
            # problems were already reported at once by the ir pass.
            continue
        lint_pass.run(ctx, report)
        if lint_pass.name == "ir" and any(
            d.code == "MIG001" for d in report.diagnostics
        ):
            structurally_valid = False
    return report


class LintError(Exception):
    """Raised by fail-on-error lint integration (``Toolchain(lint=True)``)."""

    def __init__(self, report: LintReport):
        self.report = report
        errors = report.errors
        preview = "; ".join(d.format() for d in errors[:3])
        more = f" (+{len(errors) - 3} more)" if len(errors) > 3 else ""
        super().__init__(
            f"migration-safety lint failed with {len(errors)} error(s): "
            f"{preview}{more}"
        )
