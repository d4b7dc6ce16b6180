#!/usr/bin/env python3
"""Paired A/B comparison of two checkouts on one ntbench workload.

Usage:
    python3 bench/ab.py BASE CHANGE --workload W [--pairs 10] [--seed S] [--seconds 10]
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
BENCHMARK.json gives each metric's direction and bound; nothing is written.

--selftest checks the statistics on canned pairs.
"""

import argparse
import json
import os
import random
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
        "interval": bootstrap_interval(ratios),
        "verdict": verdict,
    }


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
        return result
    sys.stderr.write(proc.stderr[-4000:])
    print("ab: %s: %s" % (tree, why), file=sys.stderr)
    return None


def fmt(v):
    return "%.4g" % v


def report(metrics, runs):
    header = ["metric", "better", "base q1/med/q3", "change q1/med/q3", "won",
              "ratio [95% CI]", "bound", "verdict"]
    rows = []
    for m in metrics:
        name = m["name"]
        base = [r[0]["metrics"][name]["value"] for r in runs]
        change = [r[1]["metrics"][name]["value"] for r in runs]
        s = compare(base, change, m["better"], m["bound"])
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
    report(metrics, runs)
    return 0


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
    print("ab selftest: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
