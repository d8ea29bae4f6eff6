#!/usr/bin/env python3
"""Entry point of the repo benchmark (see README.md).

Run from the root of a checkout:

    python3 perfbench/run.py <BENCHMARK.json's pinned arguments> \
        --workload solo_campaign --seed 1 --seconds 22 --trace 0

Builds the perfbench binary from the checkout's sources (CMake, into
$CARGO_TARGET_DIR or .bench_build), runs one workload, checks that the
binary's result line names exactly the metrics BENCHMARK.json lists for the
mode, and prints that line last on stdout. Build output and diagnostics go
to stderr. Exit status: the binary's (0 = every output checked out), or
non-zero without a result line when the build or the result is unusable.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("solo_campaign", "fleet_burst")
RUN_TIMEOUT_S = 170


def log(message):
    print("run.py: " + message, file=sys.stderr, flush=True)


def build(build_dir, build_type):
    """Configures and builds the perfbench target; False on failure.

    Configures on every run, so the build type of the command always
    reaches CMake, also over a cache an earlier configure left behind.
    """
    steps = [
        ["cmake", "-S", HERE, "-B", build_dir,
         "-DCMAKE_BUILD_TYPE=" + build_type],
        ["cmake", "--build", build_dir, "--target", "perfbench", "-j", "4"],
    ]
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            log("build step failed: " + " ".join(step))
            return False
    return True


def expected_metrics(trace):
    """(name, unit) pairs BENCHMARK.json lists for the mode."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    key = "per_layer" if trace else "end_to_end"
    return [(m["name"], m["unit"]) for m in spec[key]]


def check_result(line, trace):
    """Parses and validates the binary's result line; None if unusable."""
    try:
        result = json.loads(line)
    except ValueError:
        log("last output line is not JSON: " + line[:200])
        return None
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        log("result keys are wrong: %s" % sorted(result))
        return None
    got = [(name, m.get("unit")) for name, m in result["metrics"].items()]
    want = expected_metrics(trace)
    if sorted(got) != sorted(want):
        log("metrics differ from BENCHMARK.json: missing %s, extra %s" % (
            sorted(set(want) - set(got)), sorted(set(got) - set(want))))
        return None
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Pinned only in BENCHMARK.json's command, so they never drift with the
    # machine and have no second copy here.
    parser.add_argument("--build-type", required=True)
    parser.add_argument("--ppr-threads", type=int, required=True)
    parser.add_argument("--fleet-ppr-threads", type=int, required=True)
    parser.add_argument("--shards", type=int, required=True)
    # For perfbench/test_perfbench.py only.
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--inject-mismatch", action="store_true")
    args = parser.parse_args()

    build_dir = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not build(build_dir, args.build_type):
        return 3

    workdir = os.path.join(build_dir, "run-%d" % os.getpid())
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    command = [
        os.path.join(build_dir, "perfbench"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", repr(args.seconds), "--trace", str(args.trace),
        "--workdir", workdir, "--ppr-threads", str(args.ppr_threads),
        "--fleet-ppr-threads", str(args.fleet_ppr_threads),
        "--shards", str(args.shards),
    ]
    if args.trace:
        traces = os.path.join(build_dir, "traces")
        os.makedirs(traces, exist_ok=True)
        # One file per workload, overwritten by the next traced run: a
        # fleet trace holds about a million spans.
        command += ["--trace-out",
                    os.path.join(traces, args.workload + ".jsonl")]
    if args.smoke:
        command.append("--smoke")
    if args.inject_mismatch:
        command.append("--inject-mismatch")
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("workload did not finish within %d s" % RUN_TIMEOUT_S)
        return 4
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    lines = done.stdout.strip().splitlines()
    result = check_result(lines[-1], args.trace) if lines else None
    if result is None:
        return 5
    print(json.dumps(result))
    if done.returncode != 0:
        log("workload reported incorrect output (exit %d)" % done.returncode)
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
