"""Testbed construction for replicated-kernel systems: assembling
machines, interconnect and clock into a runnable
:class:`~repro.kernel.kernel.PopcornSystem`.

:func:`boot_testbed` builds the paper's dual-server setup;
:func:`boot_single` boots a one-machine system for a given ISA, used by
the fleet simulator's nested-node sampler to measure real workload
durations without paying for a full testbed per fleet node.
"""

from repro.kernel.kernel import PopcornSystem
from repro.machine.interconnect import make_dolphin_pxh810
from repro.machine.machine import machine_for_isa, make_xeon_e5_1650v2, make_xgene1
from repro.sim.clock import Clock


def boot_testbed(tracer=None):
    """The paper's dual-server setup: X-Gene 1 + Xeon over Dolphin PCIe,
    on a fresh clock.

    ``tracer`` opts into span tracing; when omitted, ``REPRO_TRACE=1``
    in the environment attaches a fresh tracer (else tracing is off and
    the run is bit-identical to an untraced one).
    """
    if tracer is None:
        from repro.telemetry.spans import maybe_tracer

        tracer = maybe_tracer()
    clock = Clock()
    arm = make_xgene1("arm-server", clock)
    x86 = make_xeon_e5_1650v2("x86-server", clock)
    return PopcornSystem([arm, x86], make_dolphin_pxh810(), clock, tracer=tracer)


def boot_single(isa: str):
    """Boot a one-machine system of the given ISA on a fresh clock.

    No tracer is attached (unlike :func:`boot_testbed`): callers boot
    these by the dozen for duration sampling, and tracing every one
    would change neither results nor determinism, only cost.
    """
    clock = Clock()
    machine = machine_for_isa(isa, f"{isa}-node", clock)
    return PopcornSystem([machine], make_dolphin_pxh810(), clock)
