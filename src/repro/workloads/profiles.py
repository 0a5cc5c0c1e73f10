"""The benchmarks' cost profiles: one table every layer prices from.

Each registry workload has a :class:`BenchProfile` — per-class total
instruction counts, instruction-class mix, memory footprint and
parallel fraction.  The IR builders size their work bursts from it,
and the analytic job model of the cluster, serving and fleet
simulators (:mod:`repro.datacenter.job`) prices each job from it, so
what a benchmark costs is decided here and nowhere else.  The module
imports no IR and no builder, so the analytic layers load neither.
"""

from dataclasses import dataclass
from typing import Dict

from repro.isa.isa import InstrClass
from repro.sim.numeric import ordered_sum


@dataclass(frozen=True)
class ClassParams:
    """One NPB problem class of one benchmark."""

    total_instructions: float  # full-size dynamic instruction count
    footprint_bytes: int  # resident working set
    iterations: int  # outer (timed) iterations
    elements: int  # size of the *real* (verified) computation


@dataclass(frozen=True)
class BenchProfile:
    """Analytic description used by the scheduler/emulation studies."""

    name: str
    classes: Dict[str, ClassParams]
    # Fractions of dynamic instructions by class; must sum to ~1.
    mix: Dict[InstrClass, float]
    parallel_fraction: float = 0.95  # Amdahl cap for thread scaling

    def params(self, cls: str) -> ClassParams:
        """The parameters of problem class ``cls``."""
        try:
            return self.classes[cls]
        except KeyError:
            raise KeyError(
                f"{self.name} has no class {cls!r}; have {sorted(self.classes)}"
            ) from None

    def instructions_by_class(self, cls: str) -> Dict[InstrClass, float]:
        """Class ``cls``'s dynamic instruction count, split by the mix."""
        total = self.params(cls).total_instructions
        return {icls: total * frac for icls, frac in self.mix.items()}


def mix_normalised(mix: Dict[InstrClass, float]) -> Dict[InstrClass, float]:
    """``mix`` scaled so that its fractions sum to 1."""
    total = ordered_sum(mix.values())
    return {k: v / total for k, v in mix.items()}


#: Every registry workload's profile, keyed by its name.
PROFILES: Dict[str, BenchProfile] = {profile.name: profile for profile in (
    BenchProfile(
        name="is",
        classes={
            "A": ClassParams(0.9e9, 32 << 20, 10, 2048),
            "B": ClassParams(3.6e9, 128 << 20, 10, 2048),
            "C": ClassParams(14.4e9, 512 << 20, 10, 2048),
        },
        mix=mix_normalised(
            {
                InstrClass.INT_ALU: 0.38,
                InstrClass.LOAD: 0.30,
                InstrClass.STORE: 0.18,
                InstrClass.BRANCH: 0.12,
                InstrClass.MOV: 0.02,
            }
        ),
        parallel_fraction=0.92,
    ),
    BenchProfile(
        name="cg",
        classes={
            "A": ClassParams(1.5e9, 55 << 20, 15, 96),
            "B": ClassParams(55e9, 400 << 20, 75, 96),
            "C": ClassParams(143e9, 900 << 20, 75, 96),
        },
        mix=mix_normalised(
            {
                InstrClass.FP_ALU: 0.34,
                InstrClass.LOAD: 0.34,
                InstrClass.STORE: 0.08,
                InstrClass.INT_ALU: 0.14,
                InstrClass.BRANCH: 0.08,
                InstrClass.MOV: 0.02,
            }
        ),
        parallel_fraction=0.94,
    ),
    BenchProfile(
        name="ft",
        classes={
            "A": ClassParams(7.1e9, 320 << 20, 6, 128),
            "B": ClassParams(92e9, 900 << 20, 20, 128),
            "C": ClassParams(390e9, 1600 << 20, 20, 128),
        },
        mix=mix_normalised(
            {
                InstrClass.FP_ALU: 0.52,
                InstrClass.LOAD: 0.22,
                InstrClass.STORE: 0.12,
                InstrClass.INT_ALU: 0.08,
                InstrClass.BRANCH: 0.04,
                InstrClass.MOV: 0.02,
            }
        ),
        parallel_fraction=0.96,
    ),
    BenchProfile(
        name="lu",
        classes={
            "A": ClassParams(120e9, 300 << 20, 60, 104),
            "B": ClassParams(480e9, 1200 << 20, 60, 104),
            "C": ClassParams(1900e9, 1600 << 20, 60, 104),
        },
        mix=mix_normalised(
            {
                InstrClass.FP_ALU: 0.46,
                InstrClass.LOAD: 0.26,
                InstrClass.STORE: 0.12,
                InstrClass.INT_ALU: 0.10,
                InstrClass.BRANCH: 0.04,
                InstrClass.MOV: 0.02,
            }
        ),
        parallel_fraction=0.90,  # wavefront dependences limit scaling
    ),
    BenchProfile(
        name="ep",
        classes={
            "A": ClassParams(26.7e9, 8 << 20, 1, 4096),
            "B": ClassParams(107e9, 8 << 20, 1, 4096),
            "C": ClassParams(430e9, 8 << 20, 1, 4096),
        },
        mix=mix_normalised(
            {
                InstrClass.FP_ALU: 0.62,
                InstrClass.INT_ALU: 0.20,
                InstrClass.LOAD: 0.06,
                InstrClass.STORE: 0.04,
                InstrClass.BRANCH: 0.06,
                InstrClass.MOV: 0.02,
            }
        ),
        parallel_fraction=0.995,
    ),
    BenchProfile(
        name="bt",
        classes={
            "A": ClassParams(170e9, 300 << 20, 60, 96),
            "B": ClassParams(700e9, 1200 << 20, 60, 96),
            "C": ClassParams(2800e9, 1600 << 20, 60, 96),
        },
        mix=mix_normalised(
            {
                InstrClass.FP_ALU: 0.48,
                InstrClass.LOAD: 0.24,
                InstrClass.STORE: 0.12,
                InstrClass.INT_ALU: 0.10,
                InstrClass.BRANCH: 0.04,
                InstrClass.MOV: 0.02,
            }
        ),
        parallel_fraction=0.97,
    ),
    BenchProfile(
        name="sp",
        classes={
            "A": ClassParams(100e9, 300 << 20, 60, 88),
            "B": ClassParams(410e9, 1200 << 20, 60, 88),
            "C": ClassParams(1600e9, 1600 << 20, 60, 88),
        },
        mix=mix_normalised(
            {
                InstrClass.FP_ALU: 0.42,
                InstrClass.LOAD: 0.28,
                InstrClass.STORE: 0.14,
                InstrClass.INT_ALU: 0.10,
                InstrClass.BRANCH: 0.04,
                InstrClass.MOV: 0.02,
            }
        ),
        parallel_fraction=0.96,
    ),
    BenchProfile(
        name="mg",
        classes={
            "A": ClassParams(3.9e9, 450 << 20, 4, 96),
            "B": ClassParams(19e9, 450 << 20, 20, 96),
            "C": ClassParams(155e9, 1700 << 20, 20, 96),
        },
        mix=mix_normalised(
            {
                InstrClass.LOAD: 0.38,
                InstrClass.STORE: 0.18,
                InstrClass.FP_ALU: 0.28,
                InstrClass.INT_ALU: 0.10,
                InstrClass.BRANCH: 0.04,
                InstrClass.MOV: 0.02,
            }
        ),
        parallel_fraction=0.93,
    ),
    # bzip2smp's "classes" map to input sizes (MB of input), mirroring
    # variable inputs.
    BenchProfile(
        name="bzip2smp",
        classes={
            "A": ClassParams(4.5e9, 64 << 20, 8, 512),  # ~10 MB input
            "B": ClassParams(18e9, 128 << 20, 16, 512),  # ~40 MB
            "C": ClassParams(72e9, 256 << 20, 32, 512),  # ~160 MB
        },
        mix=mix_normalised(
            {
                InstrClass.INT_ALU: 0.40,
                InstrClass.BRANCH: 0.22,
                InstrClass.LOAD: 0.22,
                InstrClass.STORE: 0.10,
                InstrClass.MOV: 0.06,
            }
        ),
        parallel_fraction=0.90,
    ),
    BenchProfile(
        name="verus",
        classes={
            "A": ClassParams(2.2e9, 48 << 20, 1, 3000),
            "B": ClassParams(9e9, 96 << 20, 1, 3000),
            "C": ClassParams(36e9, 192 << 20, 1, 3000),
        },
        mix=mix_normalised(
            {
                InstrClass.BRANCH: 0.30,
                InstrClass.INT_ALU: 0.30,
                InstrClass.LOAD: 0.28,
                InstrClass.STORE: 0.08,
                InstrClass.MOV: 0.04,
            }
        ),
        parallel_fraction=0.75,  # model checking parallelises poorly
    ),
    BenchProfile(
        name="redis",
        classes={
            "A": ClassParams(1.2e9, 96 << 20, 1, 6000),
            "B": ClassParams(4.8e9, 192 << 20, 1, 24000),
            "C": ClassParams(19e9, 384 << 20, 1, 96000),
        },
        mix=mix_normalised(
            {
                InstrClass.LOAD: 0.34,
                InstrClass.STORE: 0.14,
                InstrClass.INT_ALU: 0.26,
                InstrClass.BRANCH: 0.18,
                InstrClass.MOV: 0.06,
                InstrClass.SYSCALL: 0.02,
            }
        ),
        parallel_fraction=0.05,  # single-threaded event loop
    ),
)}


def profile_for(name: str) -> BenchProfile:
    """The cost profile of workload ``name``."""
    try:
        return PROFILES[name]
    except KeyError:
        raise KeyError(f"unknown workload {name!r}; have {sorted(PROFILES)}") from None
