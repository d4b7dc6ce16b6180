#!/usr/bin/env python3
"""Paired A/B comparison of two checkouts on one ntbench workload.

Usage:
    python3 bench/ab.py BASE CHANGE --workload W [--pairs 10] [--seed S] [--seconds 10]
                        [--out FILE]
    python3 bench/ab.py --selftest

BASE and CHANGE are checkout roots. Each pair runs `ntbench/run.py --trace 0`
once in each checkout, each building into its own `<checkout>/.bench_build`;
the side that runs first alternates from pair to pair. The comparison stops,
exiting 1, on any run that prints no result, is not correct or reports
failed operations.

For every end-to-end metric in BASE's BENCHMARK.json it prints each side's
median and quartiles, the pairs the change won (ties count for neither), the
median per-pair ratio CHANGE/BASE with a bootstrap 95 % interval (fixed
resampling seed), and one verdict:
  gain      the change won at least 9/10 of the pairs and its median is
            better than the base's by more than the base's interquartile range
  worse     the change's median is worse than the base's by more than the
            metric's bound
  no claim  anything else
BENCHMARK.json gives each metric's direction and bound.

--out FILE also writes the comparison as a JSON record: each tree's id (a
SHA-256 over the sources ntbench builds, src/ and ntbench/, so the same
commit gives the same id in any checkout), the workload, seed, seconds and
pairs, ntbench's hardware_concurrency, and per metric both sides' quartiles
and per-pair values, the pairs won, the median ratio with its interval and
the verdict. A change commits its record at the repository root as
BENCH_<name>.json.

--selftest checks the statistics on canned pairs and the shape of every
BENCH_*.json at the repository root.
"""

import argparse
import glob
import hashlib
import json
import os
import random
import re
import subprocess
import sys

BOOTSTRAP_RESAMPLES = 10000
BOOTSTRAP_SEED = 20260101


def quantile(values, q):
    """Linear-interpolated quantile, q in [0, 1] (ntbench's Quantile)."""
    s = sorted(values)
    pos = q * (len(s) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def median(values):
    return quantile(values, 0.5)


def bootstrap_interval(ratios):
    """95 % interval of the median ratio, from a fixed resampling seed."""
    rng = random.Random(BOOTSTRAP_SEED)
    n = len(ratios)
    medians = [median([ratios[rng.randrange(n)] for _ in range(n)])
               for _ in range(BOOTSTRAP_RESAMPLES)]
    return quantile(medians, 0.025), quantile(medians, 0.975)


def compare(base, change, better, bound):
    """Statistics and verdict for one metric over paired runs."""
    assert len(base) == len(change) and base
    lower = better == "lower"
    wins = sum(1 for b, c in zip(base, change) if (c < b if lower else c > b))
    ratios = [c / b for b, c in zip(base, change)]
    base_median, change_median = median(base), median(change)
    base_iqr = quantile(base, 0.75) - quantile(base, 0.25)
    gap = base_median - change_median if lower else change_median - base_median
    limit = base_median * (1 + bound) if lower else base_median * (1 - bound)
    if wins * 10 >= 9 * len(base) and gap > base_iqr:
        verdict = "gain"
    elif change_median > limit if lower else change_median < limit:
        verdict = "worse"
    else:
        verdict = "no claim"
    return {
        "base": [quantile(base, 0.25), base_median, quantile(base, 0.75)],
        "change": [quantile(change, 0.25), change_median, quantile(change, 0.75)],
        "wins": wins,
        "pairs": len(base),
        "ratio": median(ratios),
        "interval": list(bootstrap_interval(ratios)),
        "verdict": verdict,
    }


def tree_id(tree):
    """SHA-256 over the relative path and bytes of every file under src/ and ntbench/."""
    digest = hashlib.sha256()
    files = []
    for top in ("src", "ntbench"):
        for root, _, names in os.walk(os.path.join(tree, top)):
            files += [os.path.join(root, n) for n in names]
    for path in sorted(os.path.relpath(f, tree).replace(os.sep, "/") for f in files):
        with open(os.path.join(tree, path), "rb") as f:
            digest.update(path.encode() + b"\0" + hashlib.sha256(f.read()).digest())
    return digest.hexdigest()


def run_once(tree, args):
    """One `--trace 0` run in `tree`; its result, or None with the reason on stderr."""
    env = dict(os.environ, CARGO_TARGET_DIR=os.path.join(tree, ".bench_build"))
    command = [sys.executable, "ntbench/run.py", "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"]
    proc = subprocess.run(command, cwd=tree, env=env, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = None
    if proc.returncode != 0 or result is None:
        why = "no result (exit %d)" % proc.returncode
    elif result.get("correct") is not True:
        why = "not correct"
    elif result.get("failed", 1) > 0:
        why = "%s failed operations" % result.get("failed")
    else:
        found = re.search(r"^# nproc=\S+ hardware_concurrency=(\d+)", proc.stdout, re.M)
        result["hardware_concurrency"] = int(found.group(1)) if found else None
        return result
    sys.stderr.write(proc.stderr[-4000:])
    print("ab: %s: %s" % (tree, why), file=sys.stderr)
    return None


def fmt(v):
    return "%.4g" % v


def summarize(metrics, runs):
    """compare() per metric, with both sides' per-pair values."""
    out = {}
    for m in metrics:
        name = m["name"]
        base = [r[0]["metrics"][name]["value"] for r in runs]
        change = [r[1]["metrics"][name]["value"] for r in runs]
        out[name] = dict(compare(base, change, m["better"], m["bound"]), unit=m["unit"],
                         better=m["better"], bound=m["bound"], base_values=base,
                         change_values=change)
    return out


def report(metrics, stats):
    header = ["metric", "better", "base q1/med/q3", "change q1/med/q3", "won",
              "ratio [95% CI]", "bound", "verdict"]
    rows = []
    for m in metrics:
        name = m["name"]
        s = stats[name]
        rows.append([
            "%s (%s)" % (name, m["unit"]), m["better"],
            "/".join(fmt(v) for v in s["base"]), "/".join(fmt(v) for v in s["change"]),
            "%d/%d" % (s["wins"], s["pairs"]),
            "%.3f [%.3f, %.3f]" % (s["ratio"], s["interval"][0], s["interval"][1]),
            "%g" % m["bound"], s["verdict"]])
    widths = [max(len(r[i]) for r in [header] + rows) for i in range(len(header))]
    for r in [header] + rows:
        print("  ".join(cell.ljust(w) for cell, w in zip(r, widths)).rstrip())


def main(argv):
    parser = argparse.ArgumentParser(description="Paired A/B runs of one ntbench workload.")
    parser.add_argument("base", nargs="?")
    parser.add_argument("change", nargs="?")
    parser.add_argument("--workload")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--out")
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args(argv)
    if args.selftest:
        return selftest()
    if not args.base or not args.change or not args.workload or args.pairs < 1:
        parser.error("BASE, CHANGE, --workload and --pairs >= 1 are required")
    trees = [os.path.abspath(args.base), os.path.abspath(args.change)]
    with open(os.path.join(trees[0], "BENCHMARK.json")) as f:
        metrics = json.load(f)["end_to_end"]
    print("# ab: workload %s, seed %d, %d s, %d pairs; base %s, change %s" %
          (args.workload, args.seed, args.seconds, args.pairs, trees[0], trees[1]))
    runs = []
    for i in range(args.pairs):
        order = [0, 1] if i % 2 == 0 else [1, 0]
        pair = [None, None]
        for side in order:
            pair[side] = run_once(trees[side], args)
            if pair[side] is None:
                return 1
        runs.append(pair)
        print("# pair %d (%s first): %s" % (
            i + 1, "base" if order[0] == 0 else "change",
            "; ".join("%s %s -> %s" % (m["name"], fmt(pair[0]["metrics"][m["name"]]["value"]),
                                       fmt(pair[1]["metrics"][m["name"]]["value"]))
                      for m in metrics)), flush=True)
    stats = summarize(metrics, runs)
    report(metrics, stats)
    if args.out:
        record = {
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "pairs": args.pairs, "hardware_concurrency": runs[0][0]["hardware_concurrency"],
            "base": {"tree": tree_id(trees[0])}, "change": {"tree": tree_id(trees[1])},
            "metrics": stats,
        }
        with open(args.out, "w") as f:
            json.dump(record, f, indent=1, sort_keys=True)
            f.write("\n")
    return 0


def record_problems(record):
    """What is wrong with the shape of one --out record; empty when nothing is."""
    problems = []

    def need(ok, what):
        if not ok:
            problems.append(what)

    def numbers(v, n):
        return (isinstance(v, list) and len(v) == n and
                all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in v))

    need(isinstance(record, dict), "not an object")
    if problems:
        return problems
    need(isinstance(record.get("workload"), str), "workload")
    for key in ("seed", "seconds", "pairs", "hardware_concurrency"):
        need(isinstance(record.get(key), int) and record[key] >= 0, key)
    pairs = record.get("pairs")
    for side in ("base", "change"):
        tree = record.get(side, {}).get("tree") if isinstance(record.get(side), dict) else None
        need(isinstance(tree, str) and re.fullmatch(r"[0-9a-f]{64}", tree) is not None,
             side + ".tree")
    metrics = record.get("metrics")
    need(isinstance(metrics, dict) and metrics, "metrics")
    for name, m in (metrics.items() if isinstance(metrics, dict) else []):
        if not isinstance(m, dict):
            problems.append(name)
            continue
        need(m.get("better") in ("higher", "lower"), name + ".better")
        need(isinstance(m.get("unit"), str), name + ".unit")
        need(numbers([m.get("bound")], 1), name + ".bound")
        need(numbers(m.get("base"), 3) and numbers(m.get("change"), 3), name + " quartiles")
        need(numbers(m.get("base_values"), pairs) and numbers(m.get("change_values"), pairs),
             name + " per-pair values")
        need(isinstance(m.get("wins"), int) and m.get("pairs") == pairs and
             0 <= m["wins"] <= pairs, name + ".wins")
        need(numbers([m.get("ratio")], 1) and numbers(m.get("interval"), 2), name + ".ratio")
        need(m.get("verdict") in ("gain", "worse", "no claim"), name + ".verdict")
    return problems


def selftest():
    """Checks the statistics on canned pairs; exits non-zero on the first miss."""
    def check(ok, what):
        if not ok:
            print("ab selftest: FAIL: " + what)
            sys.exit(1)

    check(quantile([4, 1, 3, 2], 0.5) == 2.5, "median of an even count")
    check(quantile([1, 2, 3, 4, 5], 0.25) == 2 and quantile([10], 0.75) == 10, "quartiles")
    base = [100, 102, 98, 101, 99, 100, 103, 97, 100, 101]
    # A 20 % cut that wins every pair: a gain whose interval excludes 1.
    s = compare(base, [0.8 * b for b in base], "lower", 0.25)
    check(s["wins"] == 10 and s["verdict"] == "gain", "clear gain: %r" % s)
    check(abs(s["ratio"] - 0.8) < 1e-12, "median ratio %r" % s["ratio"])
    check(s["interval"][0] <= 0.8 <= s["interval"][1] < 1, "interval %r" % (s["interval"],))
    check(s == compare(base, [0.8 * b for b in base], "lower", 0.25), "fixed resampling seed")
    # Ties count for neither side: 8 wins and 2 ties is short of 9/10.
    tied = [b - 10 for b in base[:8]] + base[8:]
    s = compare(base, tied, "lower", 0.25)
    check(s["wins"] == 8 and s["verdict"] == "no claim", "ties: %r" % s)
    # Every pair won, but by less than the base's IQR: no claim.
    s = compare(base, [b - 0.5 for b in base], "lower", 0.25)
    check(s["wins"] == 10 and s["verdict"] == "no claim", "gap within IQR: %r" % s)
    # Higher-is-better: a throughput drop past its bound is worse.
    s = compare(base, [0.7 * b for b in base], "higher", 0.25)
    check(s["wins"] == 0 and s["verdict"] == "worse", "throughput drop: %r" % s)
    s = compare(base, [0.8 * b for b in base], "higher", 0.25)
    check(s["verdict"] == "no claim", "drop inside the bound: %r" % s)
    s = compare(base, [1.2 * b for b in base], "higher", 0.25)
    check(s["verdict"] == "gain", "throughput gain: %r" % s)
    s = compare(base, [1.3 * b for b in base], "lower", 0.25)
    check(s["verdict"] == "worse", "cost rise past the bound: %r" % s)
    # The record shape --out writes, and every committed one.
    metric = {"name": "m", "unit": "s", "better": "lower", "bound": 0.25}
    runs = [[{"metrics": {"m": {"value": b}}}, {"metrics": {"m": {"value": 0.8 * b}}}]
            for b in base]
    record = {"workload": "w", "seed": 1, "seconds": 10, "pairs": len(base),
              "hardware_concurrency": 4, "base": {"tree": "0" * 64},
              "change": {"tree": "f" * 64}, "metrics": summarize([metric], runs)}
    check(record_problems(json.loads(json.dumps(record))) == [], "record shape")
    record["metrics"]["m"]["wins"] = len(base) + 1
    check(record_problems(record) == ["m.wins"], "a bad record passes")
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    for path in sorted(glob.glob(os.path.join(root, "BENCH_*.json"))):
        with open(path) as f:
            problems = record_problems(json.load(f))
        check(not problems, "%s: %s" % (os.path.basename(path), ", ".join(problems)))
    print("ab selftest: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
