"""The workload registry: one place to build any benchmark."""

from typing import Callable, Dict, List

from repro.ir import Module
from repro.workloads import bzip2, npb_bt, npb_cg, npb_ep, npb_ft, npb_is, npb_lu, npb_mg, npb_sp
from repro.workloads import redis as redis_mod
from repro.workloads import verus as verus_mod


class _Entry:
    def __init__(self, build: Callable, description: str):
        self.build = build
        self.description = description


REGISTRY: Dict[str, _Entry] = {
    "is": _Entry(npb_is.build, "NPB integer sort"),
    "cg": _Entry(npb_cg.build, "NPB conjugate gradient"),
    "ft": _Entry(npb_ft.build, "NPB 3-D FFT"),
    "lu": _Entry(npb_lu.build, "NPB LU Gauss-Seidel solver"),
    "ep": _Entry(npb_ep.build, "NPB embarrassingly parallel"),
    "bt": _Entry(npb_bt.build, "NPB block tridiagonal"),
    "sp": _Entry(npb_sp.build, "NPB scalar pentadiagonal"),
    "mg": _Entry(npb_mg.build, "NPB multigrid"),
    "bzip2smp": _Entry(bzip2.build, "SMP bzip2 compression"),
    "verus": _Entry(verus_mod.build, "Verus model checker"),
    "redis": _Entry(redis_mod.build, "Redis-like KV store"),
}


def workload_names() -> List[str]:
    return sorted(REGISTRY)


def build_workload(
    name: str, cls: str = "A", threads: int = 1, scale: float = 1.0
) -> Module:
    """Build one benchmark module by name."""
    try:
        entry = REGISTRY[name]
    except KeyError:
        raise KeyError(f"unknown workload {name!r}; have {workload_names()}") from None
    return entry.build(cls=cls, threads=threads, scale=scale)
