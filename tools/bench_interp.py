#!/usr/bin/env python
"""Interpreter fast-forward baseline: run the registry suite under both
engines, measure the dispatch-bound speedup, write ``BENCH_interp.json``.

The baseline has two kinds of fields:

* **deterministic run facts** — per-workload output checksums, exit
  codes, slice counts, simulated clocks and DSM transfer counts, all
  produced twice (exact interpreter and fast-forward engine) and
  required to be identical before anything is written.
  ``python3 bench/run.py --workload registry`` (and ``--workload
  dispatch`` for the stress kernel) checks them on every pass.
* **wall-clock timings** — exact vs fast wall seconds on the registry
  suite and on the dispatch-bound stress kernel
  (:mod:`repro.workloads.interp_stress`), median of three.  A registry
  run mixes dispatch with compile, boot and kernel work, so its ratio
  understates the engine; the stress kernel isolates per-instruction
  dispatch, which is the cost the fast engine removes, and its speedup
  is the headline number.

``--check`` runs only what the bench cannot: the stress kernel under
both engines, requiring identical facts and a speedup of at least
``SPEEDUP_FLOOR`` — generous against CI noise; the committed baseline
records the measured value.

Usage::

    PYTHONPATH=src python tools/bench_interp.py            # rewrite baseline
    PYTHONPATH=src python tools/bench_interp.py --check    # CI: speedup floor
"""

import argparse
import json
import pathlib
import statistics
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from repro.compiler import Toolchain  # noqa: E402
from repro.kernel import boot_testbed  # noqa: E402
from repro.runtime.execution import make_engine  # noqa: E402
from repro.workloads import build_workload, workload_names  # noqa: E402
from repro.workloads.golden import GOLDEN_CLASS, GOLDEN_SCALE  # noqa: E402
from repro.workloads.interp_stress import (  # noqa: E402
    interp_stress_module,
)

BASELINE = ROOT / "BENCH_interp.json"

THREADS = (1, 4)
STRESS_ITERATIONS = 300_000
STRESS_REPEATS = 3
# Floor enforced by CI on the stress-kernel speedup.  Deliberately far
# below the measured value so shared-runner noise cannot trip it while
# a real regression (fast path degrading to stepping) still does.
SPEEDUP_FLOOR = 3.0


def _run(module, kind):
    """Build + run ``module`` with engine ``kind``; return (facts, wall)."""
    binary = Toolchain().build(module)
    system = boot_testbed()
    process = system.exec_process(binary, "x86-server")
    engine = make_engine(system, process, engine=kind)
    start = time.perf_counter()
    engine.run()
    wall = time.perf_counter() - start
    facts = {
        "output": [repr(v) for v in process.output],
        "exit_code": process.exit_code,
        "slices": engine.steps,
        "sim_seconds": repr(system.clock.now),
        "dsm_page_transfers": process.dsm.stats.page_transfers,
    }
    return facts, wall


def run_registry():
    """Every registry workload under both engines; facts must agree."""
    facts = {}
    wall = {"exact": 0.0, "fast": 0.0}
    for bench in sorted(workload_names()):
        for threads in THREADS:
            cell = f"{bench}/t{threads}"
            module = build_workload(bench, GOLDEN_CLASS, threads, GOLDEN_SCALE)
            exact, we = _run(module, "exact")
            module = build_workload(bench, GOLDEN_CLASS, threads, GOLDEN_SCALE)
            fast, wf = _run(module, "fast")
            if exact != fast:
                print(f"error: {cell}: engines disagree\n"
                      f"  exact: {exact}\n  fast:  {fast}", file=sys.stderr)
                raise SystemExit(3)
            wall["exact"] += we
            wall["fast"] += wf
            facts[cell] = exact
    return facts, wall


def run_stress():
    """Dispatch-bound kernel, median-of-N wall time per engine."""
    exact_walls, fast_walls = [], []
    reference = None
    for _ in range(STRESS_REPEATS):
        facts, wall = _run(interp_stress_module(STRESS_ITERATIONS), "exact")
        exact_walls.append(wall)
        if reference is None:
            reference = facts
        elif facts != reference:
            print("error: stress kernel is nondeterministic", file=sys.stderr)
            raise SystemExit(3)
    for _ in range(STRESS_REPEATS):
        facts, wall = _run(interp_stress_module(STRESS_ITERATIONS), "fast")
        fast_walls.append(wall)
        if facts != reference:
            print("error: stress kernel: engines disagree\n"
                  f"  exact: {reference}\n  fast:  {facts}", file=sys.stderr)
            raise SystemExit(3)
    exact_wall = statistics.median(exact_walls)
    fast_wall = statistics.median(fast_walls)
    return reference, {
        "exact_wall_seconds": round(exact_wall, 3),
        "fast_wall_seconds": round(fast_wall, 3),
        "speedup": round(exact_wall / fast_wall, 2),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="run only the stress kernel under both engines "
                        "and enforce the speedup floor; writes nothing")
    args = parser.parse_args(argv)

    if args.check:
        _, stress_timing = run_stress()
        speedup = stress_timing["speedup"]
        if speedup < SPEEDUP_FLOOR:
            print(f"error: fast-forward speedup {speedup}x below the "
                  f"{SPEEDUP_FLOOR}x floor", file=sys.stderr)
            return 1
        print(f"stress kernel: engines agree, {speedup}x dispatch speedup "
              f"(floor {SPEEDUP_FLOOR}x)")
        return 0

    registry_facts, registry_wall = run_registry()
    stress_facts, stress_timing = run_stress()
    document = {
        "benchmark": "interpreter fast-forward",
        "config": {
            "workload_class": GOLDEN_CLASS,
            "scale": GOLDEN_SCALE,
            "threads": list(THREADS),
            "stress_iterations": STRESS_ITERATIONS,
            "stress_repeats": STRESS_REPEATS,
            "speedup_floor": SPEEDUP_FLOOR,
        },
        "facts": {"registry": registry_facts, "stress": stress_facts},
        "timing": {
            "registry_exact_wall_seconds": round(registry_wall["exact"], 3),
            "registry_fast_wall_seconds": round(registry_wall["fast"], 3),
            "stress": stress_timing,
        },
    }
    BASELINE.write_text(json.dumps(document, indent=2) + "\n")
    print(f"wrote {BASELINE.name}: {len(registry_facts)} registry cells, "
          f"stress speedup {stress_timing['speedup']}x")
    return 0


if __name__ == "__main__":
    sys.exit(main())
