"""Layer-attributed host-throughput benchmark for the four-layer stack.

Usage::

    python bench/run.py                          # all five workloads
    python bench/run.py --workload registry --seed 3 --seconds 20 --trace 1

Each workload runs passes one after another, each in a fresh
subprocess (``bench/passes.py``), until ``--seconds`` have gone by and
at least three passes are done.  Passes never overlap: the benchmark is
a closed loop with one client.  Every pass is cold, as every
command-line run is.

End-to-end metrics are medians over the untraced passes, printed with
their quartiles and pass count.  Their times are reference seconds:
host seconds corrected for how fast the shared host ran at the time
(``bench/hostspeed.py``).  ``--trace`` adds one traced pass that
reports self time per layer, writes ``bench/out/trace-<workload>.json``
(Chrome format) and prints ``bench.trace_overhead`` against the
untraced median.

Every cell of every pass is checked against the committed facts
(``BENCH_interp.json``, ``BENCH_serving.json``, ``BENCH_fleet.json``,
the registry goldens and ``bench/facts.json``) and against the same
cell in the other passes.  A mismatch is printed, counts as a failed
cell and makes the command exit 1.  The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed`` (cells) and
``metrics``, the end-to-end metrics or, with ``--trace``, the per-layer
metrics.  The full result, quartiles included, goes to ``--out`` for
``bench/compare.py``.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"

#: Simulated work counted by ``throughput``, per workload.
UNITS = {
    "registry": "sim-instructions",
    "migrate-pingpong": "sim-instructions",
    "dispatch": "sim-instructions",
    "serving-sweep": "sim-requests offered",
    "fleet-wave": "sim-jobs offered",
}

#: How each end-to-end metric is read from one untraced pass.
END_TO_END = {
    "throughput": lambda p: p["units"] / p["run_s"],
    "setup_s": lambda p: p["setup_s"],
    "peak_rss_mb": lambda p: p["rss_mb"],
}

#: The same passes in host seconds, and the host's speed during them
#: (reference-loop speed relative to the reference machine), for the
#: record: the end-to-end metrics above are in reference seconds.
HOST = {
    "throughput_wall": lambda p: p["units"] / p["run_wall_s"],
    "setup_wall_s": lambda p: p["setup_wall_s"],
    "speed": lambda p: hostspeed.REFERENCE_S / p["probe_s"],
}

MIN_PASSES = 3
PASS_TIMEOUT_S = 150
#: A traced pass may leave at most this share of its wall time outside
#: every layer span.
MAX_UNATTRIBUTED = 0.05

#: Files a run reads besides ``bench/``; without them it refuses to run.
REQUIRED = (
    "BENCHMARK.json", "BENCH_interp.json", "BENCH_serving.json",
    "BENCH_fleet.json", "src/repro/__init__.py", "tools/bench_interp.py",
    "tools/bench_serving.py", "tools/bench_fleet.py",
)


def _load(path):
    return json.loads(Path(path).read_text())


# ------------------------------------------------------------------ passes

def _child_env():
    """The pass environment: ``src`` importable, no ``REPRO_*`` switches
    (validation or tracing would change what is timed), and bytecode
    cached under ``bench/out`` so imports cost what they cost a user
    with a warm cache, whatever the caller's bytecode settings."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPYCACHEPREFIX"] = str(OUT / "pycache")
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def run_pass(workload, seed, traced, pass_id):
    """Run one pass in a fresh subprocess; return its document.

    A pass that crashes, times out or prints no result comes back as
    ``{"error": ...}``.  ``host_s`` is the subprocess's wall time.
    """
    cmd = [sys.executable, str(BENCH / "passes.py"), workload,
           "--trace", str(int(traced)), "--pass-id", str(pass_id)]
    if seed is not None:
        cmd += ["--seed", str(seed)]
    start = time.perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=_child_env(), capture_output=True,
                              text=True, timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        doc = {"error": f"timed out after {PASS_TIMEOUT_S} s"}
    else:
        lines = proc.stdout.strip().splitlines()
        try:
            doc = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
        except ValueError:
            doc = None
        if doc is None:
            doc = {"error": f"exited {proc.returncode} without a result\n{proc.stderr[-4000:]}"}
    doc.setdefault("pass", pass_id)
    doc["host_s"] = time.perf_counter() - start
    return doc


# -------------------------------------------------------------- fact gate

def expected_facts(workload, seed):
    """Committed facts per cell.  A cell maps to ``None`` where nothing
    is committed for this seed: there only the in-pass conservation
    checks and pass-to-pass determinism apply."""
    if workload in ("registry", "dispatch"):
        facts = _load(ROOT / "BENCH_interp.json")["facts"]
        return facts["registry"] if workload == "registry" else {"stress": facts["stress"]}
    if workload == "migrate-pingpong":
        # Migration must not change what the program computes: every
        # output equals the golden checksum of the unmigrated run.
        from repro.workloads.golden import GOLDEN_CHECKSUMS, golden_key

        pins = _load(BENCH / "facts.json")["migrate-pingpong"]
        return {
            cell: {"checksum": GOLDEN_CHECKSUMS[golden_key(cell, 1)], "exit_code": 0, **pin}
            for cell, pin in pins.items()
        }
    name = {"serving-sweep": "BENCH_serving.json", "fleet-wave": "BENCH_fleet.json"}[workload]
    committed = _load(ROOT / name)
    if seed is None or seed == committed["config"]["seed"]:
        return committed["facts"]
    return {cell: None for cell in committed["facts"]}


def _diff(facts, want):
    return [f"{key}: expected {value!r}, got {facts.get(key)!r}"
            for key, value in want.items() if facts.get(key) != value]


def pass_problems(doc, units):
    """Problems that void a whole pass (every cell in it fails)."""
    if "error" in doc:
        return [doc["error"]]
    problems = []
    if all(c["error"] is None for c in doc["cells"]) and doc["units"] != units:
        problems.append(f"simulated work {doc['units']!r} != committed {units!r}")
    layers = doc.get("layers")
    if layers is not None:
        problems += [f"trace: {p}" for p in doc["trace_problems"]]
        share = layers["bench.unattributed_s"] / doc["wall_s"]
        if share > MAX_UNATTRIBUTED:
            problems.append(f"trace: {share:.1%} of the pass is outside every layer span")
    return problems


def gate(workload, seed, passes):
    """Check every cell of every pass; return (attempted, failed, messages)."""
    expected = expected_facts(workload, seed)
    units = _load(BENCH / "facts.json")["units_per_pass"][workload]
    reference = {}
    attempted = failed = 0
    messages = []
    for doc in passes:
        label = f"{workload} pass {doc['pass']}"
        attempted += len(expected)
        problems = pass_problems(doc, units)
        if problems:
            failed += len(expected)
            messages += [f"{label}: {p}" for p in problems]
            continue
        cells = {c["cell"]: c for c in doc["cells"]}
        for name in sorted(set(cells) - set(expected)):
            attempted += 1
            failed += 1
            messages.append(f"{label} {name}: cell has no committed facts")
        for name, want in expected.items():
            cell = cells.get(name)
            if cell is None:
                diffs = ["cell missing"]
            elif cell["error"] is not None:
                diffs = [f"raised\n{cell['error']}"]
            else:
                facts = cell["facts"]
                diffs = _diff(facts, want) if want is not None else []
                first = reference.setdefault(name, (doc["pass"], facts))
                if facts != first[1]:
                    diffs += [f"nondeterministic: {d}" for d in _diff(facts, first[1])]
                    diffs = diffs or [f"nondeterministic against pass {first[0]}"]
            if diffs:
                failed += 1
                messages += [f"{label} {name}: {d}" for d in diffs]
    return attempted, failed, messages


# --------------------------------------------------------------- measure

def summarize(values):
    """Median, quartiles (as ``statistics.quantiles(n=4)``) and count."""
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values), "values": values}


def measure(workload, seed, seconds, trace, definitions):
    """Run one workload's passes; return its result document."""
    passes = []
    start = time.perf_counter()
    while True:
        doc = run_pass(workload, seed, False, len(passes))
        passes.append(doc)
        print(f"{workload} pass {doc['pass']}: {doc['host_s']:.2f} s"
              + (" FAILED" if "error" in doc else ""), file=sys.stderr)
        elapsed = time.perf_counter() - start
        typical = statistics.median(p["host_s"] for p in passes)
        if len(passes) >= MIN_PASSES and elapsed + typical > seconds:
            break
    good = [p for p in passes if "error" not in p]
    metrics = {}
    host = {}
    if good:
        for name, read in END_TO_END.items():
            metrics[name] = summarize([read(p) for p in good])
            metrics[name]["unit"] = definitions["end_to_end"][name]["unit"]
        for name, read in HOST.items():
            host[name] = summarize([read(p) for p in good])

    layers = traced_wall = None
    checked = list(passes)
    if trace:
        doc = run_pass(workload, seed, True, len(passes))
        checked.append(doc)
        if "error" not in doc and good:
            traced_wall = doc["wall_s"]
            layers = dict(doc["layers"])
            layers["bench.trace_overhead"] = traced_wall / statistics.median(
                p["wall_s"] for p in good)

    attempted, failed, messages = gate(workload, seed, checked)
    for line in messages:
        print(f"FACT MISMATCH {line}", file=sys.stderr)
    return {
        "unit": UNITS[workload],
        "passes": len(good),
        "attempted": attempted,
        "failed": failed,
        "error_rate": failed / attempted if attempted else 1.0,
        "metrics": metrics,
        "host": host,
        "per_layer": layers,
        "traced_wall_s": traced_wall,
    }


# ----------------------------------------------------------------- report

def report(workload, result):
    """Print one workload's metrics as a table."""
    print(f"\n{workload}: {result['passes']} untraced passes, "
          f"throughput in {result['unit']} per reference second")
    print(f"  {'metric':<14}{'median':>16}{'q1':>16}{'q3':>16}{'n':>4}  unit")
    for name, m in result["metrics"].items():
        print(f"  {name:<14}{m['median']:>16.6g}{m['q1']:>16.6g}{m['q3']:>16.6g}"
              f"{m['n']:>4}  {m['unit']}")
    print(f"  {'error_rate':<14}{result['error_rate']:>16.6g}"
          f"  ({result['failed']} of {result['attempted']} cells failed)")
    layers = result["per_layer"]
    if layers is None:
        return
    wall = result["traced_wall_s"]
    attributed = 1.0 - layers["bench.unattributed_s"] / wall
    print(f"  traced pass: {wall:.3f} s wall, {attributed:.1%} attributed, "
          f"trace_overhead {layers['bench.trace_overhead']:.3f}x")
    times = sorted(((v, k) for k, v in layers.items() if k.endswith("_s")), reverse=True)
    for seconds, name in times:
        if seconds:
            print(f"    {name:<34}{seconds:>12.6f} s  {seconds / wall:>6.1%}")
    for name, value in sorted(layers.items()):
        if not name.endswith("_s") and value:
            print(f"    {name:<34}{value:>12.6g}")


def main(argv=None):
    missing = [name for name in REQUIRED if not (ROOT / name).exists()]
    if missing:
        print(f"error: {', '.join(missing)} missing; run from the root of a full "
              "checkout", file=sys.stderr)
        return 2
    definitions = _load(ROOT / "BENCHMARK.json")
    definitions["end_to_end"] = {m["name"]: m for m in definitions["end_to_end"]}
    definitions["per_layer"] = {m["name"]: m for m in definitions["per_layer"]}

    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog="\n".join(__doc__.splitlines()[1:]),
    )
    parser.add_argument("--workload", choices=list(UNITS),
                        help="run one workload (default: all, in order)")
    parser.add_argument("--seed", type=int, default=None,
                        help="traffic seed for serving-sweep and fleet-wave "
                        "(default: the committed baselines' seeds); the node "
                        "workloads' inputs are fixed")
    parser.add_argument("--seconds", type=float, default=definitions["run_seconds"],
                        help="time budget per workload (default: %(default)s)")
    parser.add_argument("--trace", nargs="?", const="1", default="0", choices=("0", "1"),
                        help="add one traced pass per workload")
    parser.add_argument("--out", type=Path, default=OUT / "result.json",
                        help="where to write the full result (default: %(default)s)")
    args = parser.parse_args(argv)
    trace = args.trace == "1"

    sys.pycache_prefix = str(OUT / "pycache")  # as in the passes: keep src/ clean
    sys.path.insert(0, str(ROOT / "src"))
    workloads =[args.workload] if args.workload else list(UNITS)
    results = {}
    for workload in workloads:
        results[workload] = measure(workload, args.seed, args.seconds, trace, definitions)
        report(workload, results[workload])

    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps({
        "seed": args.seed, "seconds": args.seconds, "trace": trace,
        "workloads": results,
    }, indent=1) + "\n")

    wanted = definitions["per_layer" if trace else "end_to_end"]
    metrics = {}
    for workload, result in results.items():
        prefix = "" if len(results) == 1 else f"{workload}/"
        for name, spec in wanted.items():
            if trace:
                value = (result["per_layer"] or {}).get(name)
            else:
                value = result["metrics"].get(name, {}).get("median")
            if value is not None:
                metrics[prefix + name] = {"value": value, "unit": spec["unit"]}
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    correct = failed == 0 and len(metrics) == len(wanted) * len(results)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
