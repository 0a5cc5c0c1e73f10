"""Fault injection and failure recovery (the robustness layer).

The reproduction's datacenter was perfectly reliable: messages always
arrived, nodes never died, page pulls always succeeded.  This package
breaks it on purpose — deterministic fault models, an injection layer
for the messaging stack and the cluster DES, and the two recovery
strategies the paper's framing begs to compare: evacuate-by-live-
migration (heterogeneous-ISA migration as a fleet-resilience tool) vs
CRIU-style checkpoint/restart (which loses work, ships whole images,
and cannot cross the ISA boundary).

All defaults are lossless/fault-free, so wiring the layer through the
stack changes no seed numbers until a fault is actually scheduled.
"""

from repro.faults.chaos import (
    ChaosCase,
    ChaosHarness,
    ChaosReport,
    ChaosScenario,
    CrashInjector,
    ProtocolSite,
    ServingChaosScenario,
    registry_scenario,
    run_chaos_suite,
    serving_scenarios,
)
from repro.faults.detector import (
    DetectorConfig,
    DetectorStats,
    FailureDetector,
)
from repro.faults.inject import (
    DeliveryTimeout,
    FaultSchedule,
    FaultyMessagingLayer,
    RetryPolicy,
)
from repro.faults.membership import Membership
from repro.faults.models import (
    LinkDegradation,
    MessageFaultModel,
    NetworkPartition,
    NodeCrash,
    NodeRepair,
    degraded_window,
    random_crash_schedule,
    single_crash,
)
from repro.faults.recovery import (
    RECOVERY_POLICIES,
    CheckpointRestart,
    EvacuateLive,
    FailStop,
    RecoveryPolicy,
    make_recovery,
)
from repro.faults.report import (
    render_fault_timeline,
    render_recovery_comparison,
)

__all__ = [
    "FaultSchedule",
    "FaultyMessagingLayer",
    "RetryPolicy",
    "DeliveryTimeout",
    "NodeCrash",
    "NodeRepair",
    "LinkDegradation",
    "NetworkPartition",
    "MessageFaultModel",
    "single_crash",
    "random_crash_schedule",
    "degraded_window",
    "RecoveryPolicy",
    "FailStop",
    "EvacuateLive",
    "CheckpointRestart",
    "RECOVERY_POLICIES",
    "make_recovery",
    "render_recovery_comparison",
    "render_fault_timeline",
    "DetectorConfig",
    "DetectorStats",
    "FailureDetector",
    "Membership",
    "ChaosCase",
    "ChaosHarness",
    "ChaosReport",
    "ChaosScenario",
    "CrashInjector",
    "ProtocolSite",
    "ServingChaosScenario",
    "registry_scenario",
    "run_chaos_suite",
    "serving_scenarios",
]
