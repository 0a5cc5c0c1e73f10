"""Opt-in runtime invariant checking (``REPRO_VALIDATE=1`` / ``--validate``).

The simulator's correctness rests on two delicate mechanisms — hDSM
page coherence and frame-by-frame stack transformation — plus the
bookkeeping of the cluster, fleet and serving simulators.  This package
wraps each of them with a checker that re-derives what *must* hold.
Every checker fails the same way, through
:func:`~repro.validate.errors.fail`, which records the violation in
:func:`~repro.telemetry.validation.default_log` and raises a structured
:class:`InvariantViolation` (with a dump of the offending state) the
moment reality diverges; every check counts in that log under its
checker's name:

* ``dsm`` — :class:`~repro.validate.dsm_checker.ValidatedDsmService`:
  MSI structural invariants plus a lock-step shadow reference model of
  the coherence protocol and its traffic counters;
* ``stack`` —
  :class:`~repro.validate.stack_checker.ValidatedStackTransformer`:
  destination stack layout, bit-exact value/buffer preservation,
  pointer containment, and an optional A->B->A round-trip check
  (``REPRO_VALIDATE_ROUNDTRIP=1``);
* ``fastforward`` — the fast engine replays every compiled segment
  against the exact interpreter's cycle tables
  (:mod:`repro.runtime.fastforward`);
* ``cluster``, ``fleet`` and ``serving`` —
  :mod:`repro.validate.conservation`: job, time and energy
  conservation in the cluster, slot, placement and counter
  conservation in the fleet, the serving engine's request-by-request
  audit, and ``check_result_core``, which reads the result fields all
  three share;
* ``system`` and ``chaos`` — the chaos harness's crash-consistency
  checks (:mod:`repro.validate.system_checker`) and its check that an
  unarmed run reproduces the reference; it runs both whatever the
  enable flag says.

Checking is **off by default** and costs nothing when disabled: the
factories below return the plain implementations.  Enable it with the
``REPRO_VALIDATE=1`` environment variable, the CLI's ``--validate``
flag, or programmatically via :func:`set_enabled`.  The CLI prints the
log's summary to stderr after any command run with checking on.
"""

import os
from typing import Optional

from repro._lazy import lazy_exports

__getattr__ = lazy_exports(__name__, {
    ".errors": "InvariantViolation",
})

_TRUTHY = ("1", "true", "yes", "on")

_forced: Optional[bool] = None
_forced_roundtrip: Optional[bool] = None


def _env_flag(name: str) -> bool:
    return os.environ.get(name, "").strip().lower() in _TRUTHY


def enabled() -> bool:
    """Is invariant checking on (override, else ``REPRO_VALIDATE``)?"""
    if _forced is not None:
        return _forced
    return _env_flag("REPRO_VALIDATE")


def set_enabled(value: Optional[bool]) -> None:
    """Force checking on/off; ``None`` defers to the environment again."""
    global _forced
    _forced = value


def roundtrip_enabled() -> bool:
    """Is the A->B->A stack round-trip check on?  Implies :func:`enabled`."""
    if _forced_roundtrip is not None:
        return _forced_roundtrip
    return _env_flag("REPRO_VALIDATE_ROUNDTRIP")


def set_roundtrip(value: Optional[bool]) -> None:
    global _forced_roundtrip
    _forced_roundtrip = value


# ------------------------------------------------------------ factories

def make_dsm_service(
    space, messaging, home_kernel: str, machines=None, backup: bool = False
):
    """A DsmService — validated when checking is enabled."""
    if enabled():
        from repro.validate.dsm_checker import ValidatedDsmService

        return ValidatedDsmService(
            space, messaging, home_kernel, machines=machines, backup=backup
        )
    from repro.kernel.dsm import DsmService

    return DsmService(space, messaging, home_kernel, machines=machines,
                      backup=backup)


def make_stack_transformer(binary, space):
    """A StackTransformer — validated when checking is enabled."""
    if enabled():
        from repro.validate.stack_checker import ValidatedStackTransformer

        return ValidatedStackTransformer(
            binary, space, roundtrip=roundtrip_enabled()
        )
    from repro.runtime.transform import StackTransformer

    return StackTransformer(binary, space)


def check_crash_consistency(system, processes) -> None:
    """Audit a system after (possibly injected) crashes.

    Always-on where called (the chaos harness calls it directly rather
    than through the enable flag): asserts the exactly-one-copy thread
    invariant and that no surviving route names a dead kernel.
    """
    from repro.validate.system_checker import (
        check_directory_scrubbed,
        check_thread_conservation,
    )

    check_thread_conservation(system, processes)
    check_directory_scrubbed(system, processes)


def make_cluster_checker():
    """A ClusterConservationChecker, or None when checking is disabled."""
    if enabled():
        from repro.validate.conservation import ClusterConservationChecker

        return ClusterConservationChecker()
    return None


def make_fleet_checker():
    """A FleetConservationChecker, or None when checking is disabled."""
    if enabled():
        from repro.validate.conservation import FleetConservationChecker

        return FleetConservationChecker()
    return None

