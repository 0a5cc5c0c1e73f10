"""NPB MG — multigrid V-cycle (memory-bandwidth bound)."""

from repro.ir import Module
from repro.workloads.stencil import build_stencil


def build(cls: str = "A", threads: int = 1, scale: float = 1.0) -> Module:
    return build_stencil(
        "mg",
        cls,
        threads,
        scale,
        phases=["psinv", "resid", "rprj3", "interp"],
        phase_kind="load",
    )
