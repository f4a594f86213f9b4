#!/usr/bin/env python3
"""minergy benchmark: builds the harness from source and runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--scale full|tiny] [--out FILE]

Run from the root of a checkout. The harness and the library sources it
links are built (Release) under $CARGO_TARGET_DIR, or .bench_build when that
is unset. The last line of standard output is the result:
{"correct", "attempted", "failed", "metrics"}; the line before it is the full
record (instances, samples, counters, host and build stamp), which --out also
writes to FILE. Exit status: 0 on a correct run, 1 when a solve failed or a
repeat differed, 2 on a usage or build error, 3 when the harness crashed or
overran.
"""
import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
HARNESS_TIMEOUT_S = 170
WORKLOADS = ("paper_suite", "anneal_small", "large_random")


def fail(msg, code):
    print(f"error: {msg}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    return (base if base.is_absolute() else ROOT / base) / "perfbench"


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"minergy sources not found: {ROOT / 'src'} is missing", 2)
    bdir = build_dir()
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    # Build output goes to stderr: stdout carries only the result.
    try:
        if not (bdir / "CMakeCache.txt").is_file():
            subprocess.run(["cmake", "-S", str(HERE), "-B", str(bdir),
                            "-DCMAKE_BUILD_TYPE=Release", *generator],
                           check=True, stdout=sys.stderr)
        subprocess.run(["cmake", "--build", str(bdir), "--target",
                        "minergy_perfbench", "-j", str(os.cpu_count() or 1)],
                       check=True, stdout=sys.stderr)
    except (OSError, subprocess.CalledProcessError) as e:
        fail(f"build failed: {e}", 2)
    return bdir / "minergy_perfbench"


def source_digest():
    """SHA-256 over what the harness is built from (path + content)."""
    h = hashlib.sha256()
    files = [HERE / "CMakeLists.txt", *(ROOT / "src").rglob("*"),
             *(HERE / "src").rglob("*")]
    for p in sorted(f for f in files if f.is_file()):
        h.update(str(p.relative_to(ROOT)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()


def revision():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=True)
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "tiny"), default="full")
    ap.add_argument("--out", type=Path)
    args = ap.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 60:
        fail("--seed must be >= 0 and --seconds in [1, 60]", 2)

    exe = build()
    cmd = [str(exe), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--scale", args.scale]
    if args.trace:
        spans = build_dir() / "spans" / f"{args.workload}-seed{args.seed}.json"
        spans.parent.mkdir(parents=True, exist_ok=True)
        cmd += ["--spans", str(spans)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=HARNESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"harness overran {HARNESS_TIMEOUT_S} s", 3)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        fail(f"harness exited with status {proc.returncode}", 3)
    record = json.loads(lines[-1])
    record["stamp"].update({
        "revision": revision(),
        "source_digest": source_digest(),
        "cpu_model": cpu_model(),
    })
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(record))
    print(json.dumps({key: record[key] for key in
                      ("correct", "attempted", "failed", "metrics")}))
    sys.exit(0 if record["correct"] and proc.returncode == 0 else 1)


if __name__ == "__main__":
    main()
