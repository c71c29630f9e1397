#!/usr/bin/env python3
"""Build and run the spx benchmark from the sources of this checkout.

    python3 perfbench/run.py --workload factorize|solve|serve|all \
        --seed N --seconds S --trace 0|1

Configures and builds perfbench/ (which compiles the library from src/)
into $CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench, then
runs one measurement (`all` runs the three workloads in turn).  Build
output goes to stderr; stdout carries the benchmark's report, whose last
line is the JSON result with the metrics BENCHMARK.json lists.
"""
import argparse
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170
WORKLOADS = ["factorize", "solve", "serve"]


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def tree_digest(*dirs):
    """SHA-256 over the relative paths and bytes of every file under dirs."""
    h = hashlib.sha256()
    for d in dirs:
        for base, subdirs, files in os.walk(os.path.join(ROOT, d)):
            subdirs.sort()
            for name in sorted(files):
                path = os.path.join(base, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def build(build_dir):
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))
    return os.path.join(build_dir, "perfbench")


def run_one(binary, trace_dir, workload, args):
    cmd = [binary, "--workload", workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--git-sha", git_sha(), "--src-digest", tree_digest("src"),
           "--trace-dir", trace_dir,
           "--spec", os.path.join(ROOT, "BENCHMARK.json")]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        fail(f"benchmark exited with {proc.returncode}", proc.returncode)
    sys.stdout.write(proc.stdout)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True,
                    choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no library sources at src/; run from a full checkout")
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT, target, "perfbench")
    binary = build(build_dir)
    trace_dir = os.path.join(build_dir, "traces")
    os.makedirs(trace_dir, exist_ok=True)
    for workload in WORKLOADS if args.workload == "all" else [args.workload]:
        run_one(binary, trace_dir, workload, args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
