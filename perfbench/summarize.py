#!/usr/bin/env python3
"""Summarize a directory of benchmark records into one trajectory entry.

    python3 perfbench/summarize.py RECORDS_DIR > perfbench/trajectory/NAME.json

RECORDS_DIR holds the files `run.py --out` wrote. For each workload the entry
keeps, per end-to-end metric, the median and quartiles over the untraced
runs (with their seeds), and per per-layer metric the median over the traced
runs. All records must share one host and build stamp (see compare.py).
"""
import json
import statistics
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from compare import ROOT, quartiles, stamp  # noqa: E402


def summary(values):
    q1, q3 = quartiles(values)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values)}


def main():
    if len(sys.argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    records = [json.loads(p.read_text())
               for p in sorted(Path(sys.argv[1]).glob("*.json"))]
    records = [r for r in records if r.get("schema") == "minergy.perfbench.v1"]
    stamps = {json.dumps(stamp(r), sort_keys=True) for r in records}
    if len(stamps) != 1:
        print("records carry different host/build stamps", file=sys.stderr)
        return 2
    revisions = sorted({str(r["stamp"].get("revision")) for r in records})
    entry = {"schema": "minergy.perfbench.trajectory.v1",
             "revisions": revisions,
             "source_digests": sorted({r["stamp"]["source_digest"]
                                       for r in records}),
             "stamp": json.loads(stamps.pop()),
             "run_seconds": spec["run_seconds"],
             "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        mine = [r for r in records if r["workload"] == workload]
        untraced = [r for r in mine if r["trace"] == 0]
        traced = [r for r in mine if r["trace"] == 1]
        if not mine:
            continue
        entry["workloads"][workload] = {
            "correct": all(r["correct"] for r in mine),
            "seeds": [r["seed"] for r in untraced],
            "end_to_end": {
                m["name"]: dict(unit=m["unit"], **summary(
                    [r["metrics"][m["name"]]["value"] for r in untraced]))
                for m in spec["end_to_end"]} if untraced else {},
            "per_layer": {
                m["name"]: {"unit": m["unit"], "median": statistics.median(
                    [r["metrics"][m["name"]]["value"] for r in traced])}
                for m in spec["per_layer"]} if traced else {},
            "instances": untraced[0]["instances"] if untraced else [],
        }
    json.dump(entry, sys.stdout, indent=1)
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
