"""Static page-sharing lint (SHR001-SHR003) and sharing predictions.

The sharing pass is the static analogue of the DSM traffic that
dominates golden-scale runs: it maps every conflicting region (global,
heap allocation, escaped stack buffer) to its page extent in the
common layout and predicts how its pages will be shared:

- **SHR001** (info) — write-shared: at least one conflicting pair is
  concurrent (identity-partitioned, lock-protected, page-granular
  burst, or racy), so the region's pages ping-pong between kernels
  under hDSM.
- **SHR002** (info) — ordered sharing: the region is accessed by more
  than one thread but every conflicting pair is separated by a
  happens-before edge (pre-spawn initialisation, post-join
  verification, barrier phases); its pages still migrate between
  kernels, but never concurrently.
- **SHR003** (info) — predicted false sharing: the per-thread
  partition stride is smaller than a DSM page, so distinct threads'
  writes land on the same page even though the addresses are disjoint.

These are *predictions*, not defects — they are emitted at INFO
severity and are the static half of the soundness contract checked by
:mod:`repro.validate.race_checker`: every page the MSI shadow model
observes as dynamically write-shared must belong to a region named by
a RACE or SHR finding.
"""

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.analyze.concurrency import Conflict, Region, get_model
from repro.analyze.diagnostics import Severity
from repro.linker.layout import PAGE_SIZE

PASS_NAME = "sharing"

# Conflict statuses that mean "pages are concurrently write-shared".
_CONCURRENT = {"partitioned", "locked", "burst", "racy"}


@dataclass(frozen=True)
class RegionPrediction:
    """One region's predicted sharing, for the soundness harness."""

    region: str
    code: str  # the SHR/RACE code family predicted for it
    pages: Optional[int]  # static page extent when the size is known
    score: float  # relative hot-page pressure (coarse, rank-only)


def _hot_score(model, region: Region, conflicts: List[Conflict]) -> float:
    """Coarse page-pressure score for rank correlation.

    Counts each participating access once: a ``Work`` burst contributes
    its span in pages times the role's instance count; a load/store on
    a CFG cycle contributes the region extent times instances; a
    straight-line access contributes its instance count.  This is a
    rank signal, not a traffic model — the harness only asks that
    hotter predictions correspond to more observed DSM traffic.
    """
    region_pages = model.region_pages(region) or 1
    seen = set()
    score = 0.0
    for conflict in conflicts:
        for access in (conflict.a, conflict.b):
            key = (access.role, access.fn, access.ordinal)
            if key in seen:
                continue
            seen.add(key)
            role = model.roles.get(access.role)
            instances = role.instances if role else 1
            if access.kind == "work":
                span_pages = max(1, (access.span + PAGE_SIZE - 1) // PAGE_SIZE)
                score += span_pages * instances
            elif access.in_cycle:
                score += region_pages * instances
            else:
                score += instances
    return score


def predict_sharing(module) -> Dict[str, RegionPrediction]:
    """Region -> prediction, for every region with any sharing finding."""
    model = get_model(module)
    by_region: Dict[Region, List[Conflict]] = {}
    for conflict in model.conflicts():
        by_region.setdefault(conflict.region, []).append(conflict)
    out: Dict[str, RegionPrediction] = {}
    for region, conflicts in sorted(by_region.items()):
        statuses = {c.status for c in conflicts}
        if statuses & _CONCURRENT:
            code = "RACE001" if statuses == {"racy"} else "SHR001"
        else:
            code = "SHR002"
        out[str(region)] = RegionPrediction(
            region=str(region),
            code=code,
            pages=model.region_pages(region),
            score=_hot_score(model, region, conflicts),
        )
    return out


def _representative(conflicts: List[Conflict]):
    """The writer access used for the diagnostic's function/site."""
    accesses = sorted(
        {a for c in conflicts for a in (c.a, c.b)},
        key=lambda a: (not a.write, a.fn, a.ordinal),
    )
    return accesses[0]


def run_sharing(ctx, report) -> None:
    """Emit SHR001/SHR002/SHR003 sharing predictions per region."""
    model = get_model(ctx.module)
    by_region: Dict[Region, List[Conflict]] = {}
    for conflict in model.conflicts():
        by_region.setdefault(conflict.region, []).append(conflict)
    report.note_checks(PASS_NAME, max(len(by_region), 1))

    for region, conflicts in sorted(by_region.items()):
        statuses = {c.status for c in conflicts}
        rep = _representative(conflicts)
        pages = model.region_pages(region)
        extent = f"~{pages} page(s)" if pages else "unknown extent"
        roles = sorted({a.role for c in conflicts for a in (c.a, c.b)})
        if statuses & _CONCURRENT:
            how = sorted(statuses & _CONCURRENT)
            report.emit(
                "SHR001",
                Severity.INFO,
                f"{region} is concurrently write-shared ({extent}, "
                f"roles {', '.join(roles)}; via {', '.join(how)}): "
                "expect DSM page ping-pong on these pages",
                pass_name=PASS_NAME,
                function=rep.fn,
                site=rep.ordinal,
                symbol=str(region),
            )
        else:
            report.emit(
                "SHR002",
                Severity.INFO,
                f"{region} is shared but every conflicting pair is "
                f"happens-before ordered ({extent}, roles "
                f"{', '.join(roles)}): pages migrate between kernels "
                "but never concurrently",
                pass_name=PASS_NAME,
                function=rep.fn,
                site=rep.ordinal,
                symbol=str(region),
            )
        strides = sorted({
            a.stride
            for c in conflicts if c.status == "partitioned"
            for a in (c.a, c.b)
            if a.write and a.stride is not None and 0 < a.stride < PAGE_SIZE
        })
        if strides:
            report.emit(
                "SHR003",
                Severity.INFO,
                f"{region} is partitioned by thread identity with a "
                f"{strides[0]}-byte stride — below the {PAGE_SIZE}-byte "
                "DSM page, so adjacent threads false-share pages",
                pass_name=PASS_NAME,
                function=rep.fn,
                site=rep.ordinal,
                symbol=str(region),
            )
