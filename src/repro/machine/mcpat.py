"""McPAT-style technology projection (Section 7, "Job Arrivals and
Scheduling").

The X-Gene 1 is a first-generation 40 nm part with "sub-optimal power
consumption"; the paper uses McPAT to project that "on FinFET
technology, future ARM processors will consume 1/10th of the measured
power while running at the same clock frequency", and runs the
scheduling studies against the projected figure.  We reproduce exactly
that projection as a power-model transform.
"""

from repro.machine.power import PowerModel

FINFET_FACTOR = 0.1  # 1/10th of measured power at the same clock


def project_finfet(model: PowerModel, factor: float = FINFET_FACTOR) -> PowerModel:
    """Project a measured power model onto FinFET technology.

    Scales the SoC terms (idle, per-core, uncore, I/O) by ``factor``
    and leaves the platform (board-level) power untouched, then returns
    a new model; the input is not modified.
    """
    if not 0 < factor <= 1:
        raise ValueError(f"implausible projection factor {factor}")
    return model.scaled(factor, name_suffix=" (FinFET projection)")


def arm_finfet_power(machine) -> PowerModel:
    """The power model the scheduling studies charge ``machine``: an
    ARM board through the FinFET projection, any other as measured."""
    if machine.isa.name == "arm64":
        return project_finfet(machine.power)
    return machine.power
