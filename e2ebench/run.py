#!/usr/bin/env python3
"""End-to-end benchmark entry point.

    python3 e2ebench/run.py --workload paper_fig7 --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout. Builds the simulator and the
benchmark binary from source into .bench_build/e2ebench, runs the workload
in its own process and prints, as the last line of stdout, one JSON object
with the keys correct, attempted, failed and metrics. --trace 0 reports the
end-to-end metrics of an untraced run (ClusterConfig::obs_timing off);
--trace 1 runs the same inputs untraced and then traced, checks that both
produce the same simulated-state digest, and reports the per-layer metrics.
The metric names come from BENCHMARK.json at the checkout root.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "e2ebench")
BINARY = os.path.join(BUILD, "e2ebench")
WORKLOADS = ("paper_fig7", "scale_131k", "faults_8k")
# Whole invocation, build excluded, must end well inside three minutes.
RUN_BUDGET_S = 170.0


def fail(msg):
    print("e2ebench: " + msg, file=sys.stderr)
    sys.exit(2)


def nproc():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def build():
    """Configures once, then rebuilds incrementally; output goes to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "cluster", "experiment.hpp")):
        fail("simulator sources (src/) not found next to " + HERE)
    if shutil.which("cmake") is None:
        fail("cmake not found")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("cmake configure failed")
    cmd = ["cmake", "--build", BUILD, "-j", str(nproc())]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
        fail("build failed")


def source_id():
    """The commit when run from a git work tree, else a hash of src/."""
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        lines = out.stdout.split()
        if (out.returncode == 0 and len(lines) == 2
                and os.path.realpath(lines[0]) == os.path.realpath(ROOT)):
            return lines[1]
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, src).encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return "src-sha256:" + h.hexdigest()[:16]


def run_bench(args, traced, deadline):
    """Runs one e2ebench process; returns its parsed result line."""
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--traced", "1" if traced else "0"]
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        fail("out of time before the %s run" % ("traced" if traced else "untraced"))
    # One malloc arena: otherwise peak RSS depends on which pool thread
    # happens to allocate first (up to 6 MB apart on faults_8k).
    env = dict(os.environ, MALLOC_ARENA_MAX="1")
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env,
                              timeout=remaining)
    except subprocess.TimeoutExpired:
        fail("e2ebench exceeded the time budget")
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        print(proc.stdout)
        fail("e2ebench exited %d without a result line" % proc.returncode)
    result["exit_code"] = proc.returncode
    return result


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    build()
    deadline = time.monotonic() + RUN_BUDGET_S

    untraced = run_bench(args, False, deadline)
    runs = [untraced]
    wanted = [m["name"] for m in spec["end_to_end"]]
    metrics = dict(untraced["metrics"])
    if args.trace:
        traced = run_bench(args, True, deadline)
        runs.append(traced)
        wanted = [m["name"] for m in spec["per_layer"]]
        metrics = dict(traced["metrics"])
        metrics["obs.overhead_frac"] = {
            "value": 1.0 - traced["metrics"]["sim_s_per_wall_s"]["value"]
            / untraced["metrics"]["sim_s_per_wall_s"]["value"],
            "unit": "ratio"}

    digests = sorted({r["digest"] for r in runs})
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    correct = (failed == 0 and len(digests) == 1
               and all(r["exit_code"] == 0 for r in runs))
    missing = [name for name in wanted if name not in metrics]
    if missing:
        fail("e2ebench did not report " + ", ".join(missing))

    print("host: nproc %d, cluster pool threads %d, compiler %s, build %s, "
          "source %s" % (nproc(), untraced["pool_threads"], untraced["compiler"],
                         untraced["build_type"], source_id()))
    print("seeds: %s (from --seed %d)" % (
        " ".join(str(s) for s in untraced["seeds"]), args.seed))
    print("digest: %s%s" % (" ".join(digests), "" if len(digests) == 1 else
                            "  MISMATCH between untraced and traced runs"))
    print("log messages counted: %s" % " ".join(str(r["log_messages"]) for r in runs))
    for name in wanted:
        print("  %-32s %.6g %s" % (name, metrics[name]["value"], metrics[name]["unit"]))
    print("experiments: %d attempted, %d failed" % (attempted, failed))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {n: metrics[n] for n in wanted}}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
