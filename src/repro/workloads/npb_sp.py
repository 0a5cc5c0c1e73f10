"""NPB SP — scalar pentadiagonal solver."""

from repro.ir import Module
from repro.workloads.stencil import build_stencil


def build(cls: str = "A", threads: int = 1, scale: float = 1.0) -> Module:
    return build_stencil(
        "sp",
        cls,
        threads,
        scale,
        phases=["compute_rhs", "x_solve", "y_solve", "z_solve", "add_update"],
        phase_kind="fp_alu",
    )
