#!/usr/bin/env python3
"""Build the benchmark from this checkout's sources and run one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The build goes to $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench)
under the checkout root; build output goes to stderr. The benchmark's own
stdout is passed through, and its last line is the result JSON. The exit code
is nonzero when the build fails, an output check fails, or the result line is
missing or malformed.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    return os.path.join(target, "perfbench")


def build():
    out = build_dir()
    jobs = str(min(4, os.cpu_count() or 1))
    for cmd in (
        ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", out, "-j", jobs],
    ):
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(cmd))
    return os.path.join(out, "perfbench")


def valid_result(line):
    try:
        result = json.loads(line)
    except ValueError:
        return False
    return (
        isinstance(result, dict)
        and set(result) == {"correct", "attempted", "failed", "metrics"}
        and result["correct"] is True
        and isinstance(result["attempted"], int)
        and result["attempted"] >= 1
        and isinstance(result["failed"], int)
        and all(
            set(m) == {"value", "unit"} and isinstance(m["value"], (int, float))
            for m in result["metrics"].values()
        )
    )


def main():
    exe = build()
    try:
        proc = subprocess.run(
            [exe] + sys.argv[1:], stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines or not valid_result(lines[-1]):
        sys.stderr.write(proc.stdout)
        sys.exit("perfbench: run failed (exit %d)" % proc.returncode)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
