#!/usr/bin/env python3
"""Build and run the update-interval benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload warm_50k --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --self-check

The first call configures and builds a Release binary in
.bench_build/perfbench (compiling the library sources under src/ and the
driver under perfbench/src/); later calls only rebuild what changed. The
driver's stdout is passed through unchanged, so the last line is the result
object. Build output and diagnostics go to stderr.

--record FILE appends {"meta": ..., "result": ...} for the run to FILE (one
JSON object per line), the input perfbench/compare.py reads.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench")
WORKLOADS = ("paper_pcm", "warm_50k", "dense_50k_sharded")


def fail(message, code=2):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "socialtrust.hpp")):
        fail("library sources not found under %s/src" % ROOT)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs])
    for step in steps:
        # Build chatter goes to stderr: stdout carries only results.
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build step failed: " + " ".join(step), 3)


def source_identity():
    """(git commit or "unknown", sha256 over the library and driver sources)."""
    commit = "unknown"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            commit = out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("src", os.path.join("perfbench", "src")):
        for folder, dirs, files in os.walk(os.path.join(ROOT, top)):
            dirs.sort()
            for name in sorted(files):
                path = os.path.join(folder, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return commit, digest.hexdigest()[:16]


def run_driver(args, extra=()):
    """Runs the driver once; returns (exit code, stdout lines)."""
    commit, source = source_identity()
    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--commit", commit, "--source", source, *extra]
    if args.trace == 1:
        trace_dir = os.path.join(ROOT, ".bench_build", "traces")
        os.makedirs(trace_dir, exist_ok=True)
        command += ["--trace-out", os.path.join(
            trace_dir, "%s-seed%d.jsonl" % (args.workload, args.seed))]
    proc = subprocess.run(command, stdout=subprocess.PIPE, text=True)
    return proc.returncode, proc.stdout.splitlines()


def parse_run(lines):
    """(meta, result) from the driver's stdout lines."""
    meta = json.loads(lines[-2])["meta"]
    result = json.loads(lines[-1])
    return meta, result


def self_check():
    """Runs every workload briefly at reduced size, traced and untraced, and
    checks the result objects against BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    expected = {0: [m["name"] for m in spec["end_to_end"]],
                1: [m["name"] for m in spec["per_layer"]]}
    if sorted(w["name"] for w in spec["workloads"]) != sorted(WORKLOADS):
        fail("BENCHMARK.json workloads differ from the driver's", 1)
    problems = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            args = argparse.Namespace(workload=workload, seed=7, seconds=1,
                                      trace=trace)
            code, lines = run_driver(args, ["--quick"])
            if code != 0 or len(lines) < 2:
                problems.append("%s trace=%d: exit code %d" % (workload, trace, code))
                continue
            _, result = parse_run(lines)
            names = list(result["metrics"])
            ok = (result["correct"] is True and result["failed"] == 0
                  and result["attempted"] >= 1 and names == expected[trace])
            print("%-18s trace=%d attempted=%-4d failed=%d correct=%s metrics=%s"
                  % (workload, trace, result["attempted"], result["failed"],
                     result["correct"], "ok" if names == expected[trace] else "MISMATCH"))
            if not ok:
                problems.append("%s trace=%d: %s" % (workload, trace, lines[-1]))
    for problem in problems:
        print("self-check failed: " + problem, file=sys.stderr)
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", help="append the run's meta and result here")
    parser.add_argument("--self-check", action="store_true",
                        help="short run of every workload with every check")
    args = parser.parse_args()
    if not args.self_check and args.workload is None:
        parser.error("--workload is required")

    build()
    if args.self_check:
        sys.exit(self_check())

    code, lines = run_driver(args)
    for line in lines:
        print(line)
    sys.stdout.flush()
    if code != 0 or len(lines) < 2:
        sys.exit(code or 1)
    if args.record:
        meta, result = parse_run(lines)
        with open(args.record, "a") as handle:
            handle.write(json.dumps({"meta": meta, "result": result}) + "\n")
    sys.exit(0)


if __name__ == "__main__":
    main()
