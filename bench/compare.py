"""Compare benchmark results, one row per workload and metric.

Usage::

    python bench/compare.py BASE.json NEW.json
    python bench/compare.py BASE1.json NEW1.json BASE2.json NEW2.json ...

The files are result documents written by ``bench/run.py --out``, read
as consecutive (parent, change) pairs.  Directions and bounds come from
``BENCHMARK.json``; ``error_rate`` regresses on any increase.

One pair: a metric regresses when the change's median is worse than the
parent's by more than the metric's bound (a share of the parent's
median).

Several pairs (run at least ten, alternating which side runs first):
each side is summarised by the median and quartiles of its per-run
medians.  A gain is claimed only when the change wins at least nine
tenths of the pairs, ties counting for neither, and the medians differ
by more than the parent's spread (the distance between its quartiles).
Where that spread is wider than the bound, a metric is unresolved
unless every run of the change reads better than every run of the
parent.

Exits 1 when any row is a regression.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GAIN_SHARE = 0.9


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def _worse(base, new, better):
    """How much worse ``new`` is than ``base``, as a share of ``base``."""
    change = (new - base) / base if base else 0.0
    return -change if better == "higher" else change


def compare_metric(base_runs, new_runs, better, bound):
    """Verdict for one metric over paired runs.

    ``base_runs``/``new_runs`` are ``{"median", "q1", "q3"}`` summaries,
    one per run, in pair order.  Returns a row without labels.
    """
    base = [r["median"] for r in base_runs]
    new = [r["median"] for r in new_runs]
    if len(base) == 1:
        base_q = (base_runs[0]["q1"], base_runs[0]["q3"])
        new_q = (new_runs[0]["q1"], new_runs[0]["q3"])
    else:
        base_q, new_q = _quartiles(base), _quartiles(new)
    mb, mn = statistics.median(base), statistics.median(new)
    worse = _worse(mb, mn, better)
    verdict = "regression" if worse > bound else "within bound"
    if len(base) > 1:
        wins = sum(_worse(b, n, better) < 0 for b, n in zip(base, new))
        spread = base_q[1] - base_q[0]
        sign = 1 if better == "higher" else -1
        all_better = min(sign * n for n in new) > max(sign * b for b in base)
        if wins >= GAIN_SHARE * len(base) and abs(mn - mb) > spread:
            verdict = "gain"
        elif mb and spread / abs(mb) > bound and not all_better:
            verdict = "unresolved"
    return {"base": mb, "base_q": base_q, "new": mn, "new_q": new_q,
            "worse": worse, "bound": bound, "verdict": verdict}


def compare(pairs, definitions):
    """Rows for every workload and end-to-end metric present in all runs."""
    rows = []
    specs = {m["name"]: m for m in definitions["end_to_end"]}
    workloads = set.intersection(*(set(doc["workloads"]) for pair in pairs for doc in pair))
    for workload in sorted(workloads):
        sides = [[doc["workloads"][workload] for doc in side] for side in zip(*pairs)]
        for name, spec in specs.items():
            if not all(name in run["metrics"] for side in sides for run in side):
                continue
            row = compare_metric(
                [run["metrics"][name] for run in sides[0]],
                [run["metrics"][name] for run in sides[1]],
                spec["better"], spec["bound"],
            )
            rows.append({"workload": workload, "metric": name, **row})
        rates = [sum(r["failed"] for r in side) / max(1, sum(r["attempted"] for r in side))
                 for side in sides]
        rows.append({
            "workload": workload, "metric": "error_rate",
            "base": rates[0], "base_q": (rates[0], rates[0]),
            "new": rates[1], "new_q": (rates[1], rates[1]),
            "worse": rates[1] - rates[0], "bound": 0.0,
            "verdict": "regression" if rates[1] > rates[0] else "within bound",
        })
    return rows


def main(argv=None):
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog="\n".join(__doc__.splitlines()[1:]),
    )
    parser.add_argument("results", nargs="+", type=Path,
                        help="result documents, as (parent, change) pairs")
    args = parser.parse_args(argv)
    if len(args.results) % 2:
        parser.error("give results in (parent, change) pairs")
    docs = [json.loads(path.read_text()) for path in args.results]
    pairs = list(zip(docs[0::2], docs[1::2]))
    definitions = json.loads((ROOT / "BENCHMARK.json").read_text())
    rows = compare(pairs, definitions)
    print(f"{len(pairs)} pair(s); base and new are medians [q1, q3]")
    print(f"{'workload':<18}{'metric':<13}{'base':>40} {'new':>40}{'worse':>9}"
          f"{'bound':>7}  verdict")
    for r in rows:
        base = f"{r['base']:.6g} [{r['base_q'][0]:.6g}, {r['base_q'][1]:.6g}]"
        new = f"{r['new']:.6g} [{r['new_q'][0]:.6g}, {r['new_q'][1]:.6g}]"
        print(f"{r['workload']:<18}{r['metric']:<13}{base:>40} {new:>40}"
              f"{r['worse']:>+9.1%}{r['bound']:>7.0%}  {r['verdict']}")
    return 1 if any(r["verdict"] == "regression" for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
