#!/usr/bin/env python3
"""Smoke test of the minergy benchmark at tiny size (about a minute).

    python3 perfbench/smoke.py

For every workload in BENCHMARK.json it runs the harness at --scale tiny once
untraced and twice traced, and checks that:
  * every metric BENCHMARK.json names is emitted with its unit, and no other
    (end_to_end untraced, per_layer traced);
  * no solve failed: failed = 0, solve_fail_frac = 0, certified_frac = 1;
  * the work counters repeat exactly, between the two traced passes inside
    one run (the harness compares them) and between the two traced runs;
  * the answers (energies per instance) are identical in all three runs.
Exit status 0 when every check holds, 1 otherwise.
"""
import json
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402  (the build step of the benchmark itself)


def harness(exe, workload, trace):
    cmd = [str(exe), "--workload", workload, "--seed", "7", "--seconds", "2",
           "--trace", str(trace), "--scale", "tiny"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=run.HARNESS_TIMEOUT_S)
    return proc.returncode, json.loads(proc.stdout.strip().splitlines()[-1])


def main():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    wanted = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    exe = run.build()
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        before = len(problems)
        runs = [harness(exe, workload, t) for t in (0, 1, 1)]
        for (rc, rec), trace in zip(runs, (0, 1, 1)):
            tag = f"{workload} trace={trace}"
            got = {k: v["unit"] for k, v in rec["metrics"].items()}
            if got != wanted[trace]:
                missing = sorted(set(wanted[trace]) - set(got))
                extra = sorted(set(got) - set(wanted[trace]))
                wrong = sorted(k for k in set(got) & set(wanted[trace])
                               if got[k] != wanted[trace][k])
                problems.append(f"{tag}: metrics missing {missing}, "
                                f"unexpected {extra}, wrong unit {wrong}")
            if rc != 0 or not rec["correct"] or rec["failed"] != 0:
                problems.append(f"{tag}: rc={rc} correct={rec['correct']} "
                                f"failed={rec['failed']} {rec['notes']}")
        untraced = runs[0][1]
        if untraced["samples"]["solve_fail_frac"] != 0 or \
                untraced["metrics"]["certified_frac"]["value"] != 1:
            problems.append(f"{workload}: solves failed certification")
        first, second = runs[1][1], runs[2][1]
        if first["traced"]["counter_repeats_compared"] < 1:
            problems.append(f"{workload}: no traced repeat was compared")
        if first["traced"]["counters_first_pass"] != \
                second["traced"]["counters_first_pass"]:
            problems.append(f"{workload}: work counters differ between runs")
        energies = [[(i["baseline_fj"], i["headline_fj"])
                     for i in rec["instances"]] for _, rec in runs]
        if energies[0] != energies[1] or energies[0] != energies[2]:
            problems.append(f"{workload}: energies differ between runs")
        print(f"{workload}: {'ok' if len(problems) == before else 'FAIL'}",
              flush=True)
    for p in problems:
        print(f"FAIL {p}")
    print("smoke: " + ("FAILED" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
