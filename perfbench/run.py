#!/usr/bin/env python3
"""Builds the end-to-end benchmark from source and runs one workload.

    python3 perfbench/run.py --workload game-msopds --seed 1 --trace 0

Run from the root of a checkout. The build goes to
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench); traced runs
write Chrome trace-event JSON and a per-span summary to its out/
directory. The last line of standard output is the result object; every
other message goes to standard error. perfbench/BENCHMARK.md describes
the workloads and metrics.
"""

import argparse
import fcntl
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "perfbench")
WORKLOADS = ("game-msopds", "serve-topk", "ingest-train")


def log(message):
    print("run.py: " + message, file=sys.stderr, flush=True)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, target, "perfbench")


def build(directory):
    """Configures once and builds the perfbench target; output to stderr."""
    os.makedirs(directory, exist_ok=True)
    with open(os.path.join(directory, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(directory, "CMakeCache.txt")):
            command = ["cmake", "-S", SOURCE, "-B", directory,
                       "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                command += ["-G", "Ninja"]
            if subprocess.run(command, stdout=sys.stderr).returncode != 0:
                # Configure again from scratch on the next run.
                cache = os.path.join(directory, "CMakeCache.txt")
                if os.path.exists(cache):
                    os.remove(cache)
                return None
        jobs = str(min(4, os.cpu_count() or 1))
        command = ["cmake", "--build", directory, "--target", "perfbench",
                   "-j", jobs]
        if subprocess.run(command, stdout=sys.stderr).returncode != 0:
            return None
    return os.path.join(directory, "perfbench")


def git_provenance():
    """(sha, dirty) of the checkout, or "unknown" outside a git tree."""
    if not (shutil.which("git") and os.path.exists(os.path.join(ROOT, ".git"))):
        return "unknown", "unknown"
    def git(*args):
        return subprocess.run(["git", "-C", ROOT] + list(args),
                              capture_output=True, text=True)
    sha = git("rev-parse", "HEAD")
    status = git("status", "--porcelain")
    if sha.returncode != 0 or status.returncode != 0:
        return "unknown", "unknown"
    return sha.stdout.strip(), "1" if status.stdout.strip() else "0"


def declared_metrics(trace):
    """Metric names BENCHMARK.json promises for this mode, or None."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", default=1, type=int)
    parser.add_argument("--seconds", default=20.0, type=float)
    parser.add_argument("--trace", default=0, type=int, choices=(0, 1))
    args = parser.parse_args()

    directory = build_dir()
    binary = build(directory)
    if binary is None:
        log("build failed")
        return 1

    sha, dirty = git_provenance()
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--out-dir", os.path.join(directory, "out"),
               "--git-sha", sha, "--git-dirty", dirty]
    run = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    if run.returncode != 0:
        log("benchmark exited with code %d" % run.returncode)
        return 1
    lines = run.stdout.strip().splitlines()
    if not lines:
        log("benchmark printed no result")
        return 1
    result = json.loads(lines[-1])
    expected = declared_metrics(bool(args.trace))
    if expected is not None and list(result["metrics"]) != expected:
        log("metrics %s differ from BENCHMARK.json %s"
            % (list(result["metrics"]), expected))
        return 1
    print("\n".join(lines), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
