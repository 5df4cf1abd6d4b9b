#!/usr/bin/env python3
"""Smoke test of the benchmark: every workload at a tiny size.

    python3 perfbench/smoke_test.py

For each workload it runs one untraced and one traced run, checks that the
outputs passed, that every metric BENCHMARK.json declares is present with its
unit, and that a second run of the same seed reproduces the outcome digest.
It also checks that a bad argument fails. Exits nonzero on any failure.
"""
import json
import os
import re
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402  (the benchmark's own build step)

SPEC = json.load(open(os.path.join(run.ROOT, "BENCHMARK.json")))
DIGEST = re.compile(r"^# workload \S+ seed \d+: \d+ episodes, digest ([0-9a-f]+)$", re.M)


def bench(exe, workload, trace, seed=1):
    proc = subprocess.run(
        [exe, "--workload", workload, "--seed", str(seed), "--seconds", "1",
         "--trace", str(trace), "--size", "tiny"],
        stdout=subprocess.PIPE, text=True, timeout=run.RUN_TIMEOUT_S,
    )
    if proc.returncode != 0 or not run.valid_result(proc.stdout.splitlines()[-1]):
        raise AssertionError("%s trace=%d failed:\n%s" % (workload, trace, proc.stdout))
    return proc.stdout


def check_metrics(output, declared, what):
    metrics = json.loads(output.splitlines()[-1])["metrics"]
    want = {m["name"]: m["unit"] for m in declared}
    got = {name: m["unit"] for name, m in metrics.items()}
    if got != want:
        raise AssertionError("%s: metrics differ from BENCHMARK.json: missing %s, extra %s, "
                             "unit mismatch %s" % (
                                 what, sorted(set(want) - set(got)), sorted(set(got) - set(want)),
                                 sorted(n for n in want if n in got and want[n] != got[n])))


def main():
    exe = run.build()
    for w in SPEC["workloads"]:
        name = w["name"]
        plain = bench(exe, name, 0)
        check_metrics(plain, SPEC["end_to_end"], name + " trace=0")
        traced = bench(exe, name, 1)
        check_metrics(traced, SPEC["per_layer"], name + " trace=1")
        digests = {DIGEST.search(out).group(1) for out in (plain, traced, bench(exe, name, 0))}
        if len(digests) != 1:
            raise AssertionError("%s: outcome digest not reproducible: %s" % (name, digests))
        print("ok", name)
    bad = subprocess.run([exe, "--workload", "no_such_workload", "--seed", "1", "--seconds", "1",
                          "--trace", "0"], stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    if bad.returncode == 0:
        raise AssertionError("an unknown workload did not fail")
    print("ok all")


if __name__ == "__main__":
    main()
