"""Warehouse-scale fleet simulation.

Scales the paper's two-server story to the datacenter: thousands of
mixed-ISA nodes, millions of jobs, and a *migration wave* moving a
service population from one ISA to the other under canary/ramp/pause
policies — the scenario of fleet-level ISA migrations ("Instruction
Set Migration at Warehouse Scale", see PAPERS.md) with this paper's
migration-cost model charged per wave.  The fleet prices each move
analytically; it loads no compiler, linker, runtime or kernel code
(docs/architecture.md, "Layering").

Layers: :mod:`repro.fleet.model` (flat per-node structs + shared
per-ISA templates), :mod:`repro.fleet.waves` (wave policies),
:mod:`repro.fleet.simulator` (the analytic-completion DES), and
:mod:`repro.fleet.report` (rendered rollups).  See docs/fleet.md.
"""

from repro._lazy import lazy_exports

__getattr__ = lazy_exports(__name__, {
    ".model": "FleetConfig node_name",
    ".report": "render_result",
    ".simulator": "DEFAULT_SERVICE_MIX FleetSimulator",
    ".waves": "WavePolicy",
})
