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

from repro._lazy import lazy_exports

__getattr__ = lazy_exports(__name__, {
    ".chaos": "ChaosHarness ChaosScenario ServingChaosScenario registry_scenario "
              "run_chaos_suite serving_scenarios",
    ".detector": "DetectorConfig FailureDetector",
    ".inject": "DeliveryTimeout FaultyMessagingLayer",
    ".membership": "Membership",
    ".models": "FaultSchedule LinkDegradation NetworkPartition NodeCrash NodeRepair "
               "RetryPolicy degraded_window random_crash_schedule single_crash",
    ".recovery": "CheckpointRestart EvacuateLive FailStop make_recovery",
    ".report": "render_fault_timeline render_recovery_comparison",
})
