#!/usr/bin/env python3
"""Self-test of the ntrace pipeline benchmark.

Run from the repository root:

    python3 ntbench/selftest.py

Checks, at tiny scale (5 systems, 1-second runs):
  * every workload runs, passes its output checks and prints exactly the
    end-to-end metrics BENCHMARK.json names, each a positive finite number;
  * the traced run prints exactly the per-layer metrics BENCHMARK.json names;
  * a planted fault (a dropped record, a truncated merged store) makes the
    run report failed operations, in the end-to-end and the traced run;
  * every metric name matches [A-Za-z0-9_.-]+;
  * in a directory holding only BENCHMARK.json and ntbench/, the benchmark
    exits non-zero without printing a result.
Exits non-zero on the first failed check.
"""

import json
import math
import os
import re
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NAME = re.compile(r"^[A-Za-z0-9_.-]+$")


def fail(message):
    print("selftest: FAIL: " + message)
    sys.exit(1)


def run(workload, trace=0, plant=None, cwd=ROOT):
    command = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
               "--seed", "3", "--seconds", "1", "--trace", str(trace), "--tiny"]
    if plant:
        command += ["--plant", plant]
    proc = subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    label = "%s trace=%d plant=%s" % (workload, trace, plant)
    if proc.returncode != 0 or not lines:
        fail("%s exited %d: %s" % (label, proc.returncode, proc.stderr[-2000:]))
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail("%s: result keys %s" % (label, sorted(result)))
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        fail("%s: attempted %r" % (label, result["attempted"]))
    for name, metric in result["metrics"].items():
        if not NAME.match(name):
            fail("%s: bad metric name %r" % (label, name))
        if sorted(metric) != ["unit", "value"] or not math.isfinite(metric["value"]):
            fail("%s: bad metric %s = %r" % (label, name, metric))
    print("selftest: ok   %-40s attempted=%d failed=%d" %
          (label, result["attempted"], result["failed"]))
    return result


def expect_metrics(result, specs, label):
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    want = {s["name"]: s["unit"] for s in specs}
    if got != want:
        fail("%s: metrics differ from BENCHMARK.json: missing %s, extra %s" %
             (label, sorted(set(want) - set(got)), sorted(set(got) - set(want))))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    for s in spec["end_to_end"] + spec["per_layer"] + spec["workloads"]:
        if not NAME.match(s["name"]):
            fail("BENCHMARK.json: bad name %r" % s["name"])
    workloads = [w["name"] for w in spec["workloads"]]

    for workload in workloads:
        result = run(workload)
        if not result["correct"] or result["failed"] != 0:
            fail("%s: clean run reported failures" % workload)
        expect_metrics(result, spec["end_to_end"], workload)
        for name, metric in result["metrics"].items():
            if metric["value"] <= 0:
                fail("%s: end-to-end metric %s is not positive" % (workload, name))

    traced = run("ingest", trace=1)
    if not traced["correct"] or traced["failed"] != 0:
        fail("traced run reported failures or broke record conservation")
    expect_metrics(traced, spec["per_layer"], "ingest trace=1")

    planted = [("collect", "drop-record"), ("ingest", "truncate-store"),
               ("analyze", "truncate-store"), ("whatif", "drop-record")]
    for workload, plant in planted:
        result = run(workload, plant=plant)
        if result["failed"] == 0 or result["correct"]:
            fail("%s: planted %s was not caught" % (workload, plant))
    traced = run("analyze", trace=1, plant="truncate-store")
    if traced["metrics"]["failed_fraction"]["value"] <= 0 or traced["correct"]:
        fail("traced run: planted truncate-store left failed_fraction at 0")

    # The benchmark alone, without the sources it builds, must refuse to run.
    bare = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build",
                        "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "ntbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = dict(os.environ)
    env.pop("CARGO_TARGET_DIR", None)
    proc = subprocess.run([sys.executable, "ntbench/run.py", "--workload", "collect", "--seed",
                           "1", "--seconds", "1", "--trace", "0"], cwd=bare, env=env,
                          capture_output=True, text=True, timeout=180)
    shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        fail("benchmark without sources exited %d with output %r" %
             (proc.returncode, proc.stdout[-200:]))
    print("selftest: ok   bare directory refuses to run (exit %d)" % proc.returncode)
    print("selftest: PASS")


if __name__ == "__main__":
    main()
