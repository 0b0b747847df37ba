#!/usr/bin/env python3
"""Compare two sets of poolbench runs against the bounds in BENCHMARK.json.

    benchmark/compare.py BASE.json [CHANGE.json] [--bench BENCHMARK.json]

Each input is a results.json written by benchmark/run.sh (or a file with
one run record per line, in the same {"workload", "seed", "trace",
"result"} shape). With one input it prints each (workload, metric)
median and quartiles. With two it also prints, per pair:

  * the change of the median, signed so that positive is worse;
  * the pairwise win rate: runs of equal seed are paired (in run order
    when the seeds differ), and a pair is a win when the change reads
    better; ties count for neither;
  * a verdict. "regressed": the median is worse by more than the bound.
    "unresolved": the base runs' own spread (IQR over median) exceeds the
    bound, unless every change run reads better than every base run.
    "gain": at least nine pairs in ten are wins and the medians differ by
    more than the base's IQR. Otherwise "no regression".

Traced runs (per-layer metrics, which have no bounds) are summarized by
median and quartiles. Exits 1 when any metric regressed.
"""
import argparse
import json
import os
import statistics
import sys


def load_runs(path):
    with open(path) as f:
        text = f.read()
    try:
        doc = json.loads(text)
        runs = doc["runs"] if isinstance(doc, dict) else doc
    except json.JSONDecodeError:
        runs = [json.loads(line) for line in text.splitlines() if line.strip()]
    return [r for r in runs if r.get("result")]


def by_metric(runs, trace):
    """{(workload, metric): [(seed, value), ...]} in run order."""
    out = {}
    for r in runs:
        if int(r.get("trace", 0)) != trace:
            continue
        for name, m in r["result"]["metrics"].items():
            out.setdefault((r["workload"], name), []).append((r["seed"], m["value"]))
    return out


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def pairs(base, change):
    """Pairs of (base, change) values: equal seeds, else run order."""
    seeds = {s for s, _ in base} & {s for s, _ in change}
    if seeds:
        b = {s: v for s, v in base}
        c = {s: v for s, v in change}
        return [(b[s], c[s]) for s in sorted(seeds)]
    return [(bv, cv) for (_, bv), (_, cv) in zip(base, change)]


def verdict(base, change, spec):
    higher = spec["better"] == "higher"
    bq1, bmed, bq3 = quartiles([v for _, v in base])
    _, cmed, _ = quartiles([v for _, v in change])
    spread = (bq3 - bq1) / bmed if bmed else float("inf")
    worse = ((bmed - cmed) if higher else (cmed - bmed)) / bmed if bmed else 0.0
    better = (lambda c, b: c > b) if higher else (lambda c, b: c < b)
    ps = pairs(base, change)
    wins = sum(1 for b, c in ps if better(c, b))
    win_rate = wins / len(ps) if ps else 0.0
    bound = spec["bound"]
    all_better = all(better(c, b) for _, c in change for _, b in base)
    if worse > bound and spread <= bound:
        v = "regressed"
    elif spread > bound and not all_better:
        v = "unresolved"
    elif ps and win_rate >= 0.9 and abs(cmed - bmed) > (bq3 - bq1):
        v = "gain"
    else:
        v = "no regression"
    return bmed, cmed, spread, worse, win_rate, v


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("base")
    ap.add_argument("change", nargs="?")
    ap.add_argument("--bench", default=os.path.join(here, "..", "BENCHMARK.json"))
    args = ap.parse_args()
    with open(args.bench) as f:
        bench = json.load(f)
    specs = {m["name"]: m for m in bench["end_to_end"]}
    base_runs = load_runs(args.base)
    base = by_metric(base_runs, 0)

    if args.change is None:
        print(f"{'workload':15} {'metric':34} {'n':>3} {'q1':>12} {'median':>12} {'q3':>12} {'iqr/med':>8}")
        for trace in (0, 1):
            for (w, name), vals in sorted(by_metric(base_runs, trace).items()):
                q1, med, q3 = quartiles([v for _, v in vals])
                spread = (q3 - q1) / med if med else 0.0
                print(f"{w:15} {name:34} {len(vals):3} {q1:12.6g} {med:12.6g} {q3:12.6g} {spread:8.4f}")
        return 0

    change = by_metric(load_runs(args.change), 0)
    regressed = False
    print(f"{'workload':15} {'metric':16} {'base':>12} {'change':>12} {'worse':>8} "
          f"{'spread':>7} {'bound':>6} {'wins':>5}  verdict")
    for (w, name), bvals in sorted(base.items()):
        if name not in specs or (w, name) not in change:
            continue
        bmed, cmed, spread, worse, win_rate, v = verdict(bvals, change[(w, name)], specs[name])
        regressed |= v == "regressed"
        print(f"{w:15} {name:16} {bmed:12.6g} {cmed:12.6g} {worse:+8.3f} "
              f"{spread:7.3f} {specs[name]['bound']:6.2f} {win_rate:5.2f}  {v}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
