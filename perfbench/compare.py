#!/usr/bin/env python3
"""Compare two sets of benchmark records, metric by metric and workload by
workload.

    python3 perfbench/compare.py BASE_DIR CHANGE_DIR

Each directory holds the records `run.py --out` wrote (one JSON file per run,
untraced runs only are compared). Runs are paired by (workload, seed). The
comparison refuses to pair runs whose host and build stamps differ: the
stamps must agree on every key except the revision and the source digest,
which are what differs between the two commits.

For each end-to-end metric of BENCHMARK.json it prints both medians and
quartiles and a verdict:
  regression   the change's median is worse by more than the metric's bound
  unresolved   the base runs spread wider than the bound, and not every
               change run is better than every base run
  gain         the change wins at least 9 of 10 seed pairs (ties count for
               neither) and the medians differ by more than the base spread
  same         otherwise
Exit status: 0 with no regression, 1 with one, 2 when the runs cannot be
compared.
"""
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
UNSTAMPED = {"revision", "source_digest"}


def load(directory):
    runs = {}
    for path in sorted(Path(directory).glob("*.json")):
        rec = json.loads(path.read_text())
        if rec.get("schema") == "minergy.perfbench.v1" and rec["trace"] == 0:
            runs[(rec["workload"], rec["seed"])] = rec
    return runs


def stamp(rec):
    return {k: v for k, v in rec["stamp"].items() if k not in UNSTAMPED}


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def verdict(metric, base, change):
    lower = metric["better"] == "lower"
    worse = (lambda a, b: a > b) if lower else (lambda a, b: a < b)
    mb, mc = statistics.median(base), statistics.median(change)
    q1, q3 = quartiles(base)
    spread = (q3 - q1) / mb if mb else 0.0
    if mb and worse(mc, mb * (1 + metric["bound"] if lower
                              else 1 - metric["bound"])):
        return "regression"
    all_better = all(worse(b, c) for b in base for c in change)
    if spread > metric["bound"] and not all_better:
        return "unresolved"
    wins = sum(worse(b, c) for b, c in zip(base, change))
    if wins >= 0.9 * len(base) and abs(mc - mb) > (q3 - q1):
        return "gain"
    return "same"


def main():
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    base, change = load(sys.argv[1]), load(sys.argv[2])
    stamps = {json.dumps(stamp(r), sort_keys=True)
              for r in (*base.values(), *change.values())}
    if len(stamps) != 1:
        print("refusing to compare: host/build stamps differ:", file=sys.stderr)
        for s in sorted(stamps):
            print("  " + s, file=sys.stderr)
        return 2
    keys = sorted(set(base) & set(change))
    if not keys:
        print("no (workload, seed) pair is present in both sets",
              file=sys.stderr)
        return 2
    regressions = 0
    print(f"{'workload':14} {'metric':28} {'base median [q1, q3]':>34} "
          f"{'change median [q1, q3]':>34}  verdict")
    for workload in (w["name"] for w in spec["workloads"]):
        pairs = [k for k in keys if k[0] == workload]
        if not pairs:
            continue
        for metric in spec["end_to_end"]:
            name = metric["name"]
            b = [base[k]["metrics"][name]["value"] for k in pairs]
            c = [change[k]["metrics"][name]["value"] for k in pairs]
            v = verdict(metric, b, c)
            regressions += v == "regression"
            fmt = lambda xs: "{:.5g} [{:.5g}, {:.5g}]".format(  # noqa: E731
                statistics.median(xs), *quartiles(xs))
            print(f"{workload:14} {name:28} {fmt(b):>34} {fmt(c):>34}  {v}"
                  f"  (n={len(pairs)})")
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
