"""NPB LU — lower-upper Gauss-Seidel solver.

Structurally an SSOR sweep: per timestep a Jacobian assembly and the
lower/upper triangular solves, which pipeline poorly — hence the lowest
parallel fraction of the CFD trio.
"""

from repro.ir import Module
from repro.workloads.stencil import build_stencil


def build(cls: str = "A", threads: int = 1, scale: float = 1.0) -> Module:
    return build_stencil(
        "lu",
        cls,
        threads,
        scale,
        phases=["jacld", "blts", "jacu", "buts", "lu_rhs"],
        phase_kind="fp_alu",
    )
