"""Datacenter-level scheduling experiments (Section 7, Figures 12-13).

A processor-sharing discrete-event simulation of jobs on a small
cluster, with the five scheduling policies of the paper: static
assignment to two identical x86 machines, static balanced/unbalanced
assignment to the ARM+x86 pair, and dynamic balanced/unbalanced
policies that exploit heterogeneous-ISA migration.  Job durations come
from the workloads' analytic profiles (the same profiles the execution
engine realises instruction-by-instruction), and energy integrates each
machine's power model — with the McPAT FinFET projection applied to the
ARM board, as in the paper.
"""

from repro._lazy import lazy_exports

__getattr__ = lazy_exports(__name__, {
    ".arrivals": "periodic_waves sustained_backfill uniform_job_mix",
    ".cluster": "ClusterSimulator",
    ".energy": "RunResult summarize_runs",
    ".job": "Job JobSpec",
    ".policies": "POLICIES make_policy",
})
