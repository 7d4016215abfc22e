#!/usr/bin/env python3
"""Paired benchmark runs of two checkouts, and whether a claimed gain holds.

    python3 experiments/bench_pairs.py --parent ../parent --change . --pairs 10
    python3 experiments/bench_pairs.py --parent ../parent --change . --pairs 10 --first-seed 10

For each workload that the change's ``BENCHMARK.json`` gates and each seed
K..K+N-1 (K is ``--first-seed``, 0 unless given), runs ``perfbench/run.py
--workload W --seed S --trace 0 --seconds 20`` in both checkouts, one
after the other; the parent runs first in the first pair, and which side
runs first alternates from pair to pair. A claim is checked again on seeds
not used while the change was written by giving a ``--first-seed`` past
them. Then, per workload and end-to-end metric, it
prints each side's median and quartiles, the pairs the change won (ties
count for neither side), the gap between the medians relative to the
parent's, and whether a gain may be claimed: the change wins at least nine
tenths of the pairs, and its median is better than the parent's by more
than the distance between the parent's quartiles.

Exits 2 before running anything when the two checkouts' absolute paths
differ in length, because ``peak_rss_mb`` moves with the length of the
checkout path; exits 1 when any run is not ``correct``.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

SECONDS = 20
WIN_SHARE = 0.9


def run_benchmark(checkout: str, workload: str, seed: int) -> dict:
    """One ``--trace 0`` run of ``checkout``'s benchmark: the JSON result on
    its last line of output, or ``{"correct": False}`` when there is none."""
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--trace", "0", "--seconds", str(SECONDS)],
        cwd=checkout, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return {"correct": False}


def run_pairs(parent: str, change: str, workloads: list, seeds: range) -> dict:
    """``{workload: {"parent": [result, ...], "change": [...]}}``, one result
    per seed of ``seeds``; the parent runs first in the even-numbered pairs,
    counting from 0."""
    runs = {}
    for workload in workloads:
        sides = {"parent": [], "change": []}
        for pair, seed in enumerate(seeds):
            order = ["parent", "change"] if pair % 2 == 0 else ["change", "parent"]
            for side in order:
                checkout = parent if side == "parent" else change
                sides[side].append(run_benchmark(checkout, workload, seed))
                print(f"# {workload} seed {seed} {side}: correct "
                      f"{sides[side][-1].get('correct')}", file=sys.stderr, flush=True)
        runs[workload] = sides
    return runs


def summarize(parent: list, change: list, metric: str, better: str) -> dict:
    """The comparison of one metric over paired results (index i of each
    side is pair i): each side's quartiles, the change's wins, the median
    gap relative to the parent's median, and whether a gain holds."""
    p = [run["metrics"][metric]["value"] for run in parent]
    c = [run["metrics"][metric]["value"] for run in change]
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(sign * (b - a) > 0 for a, b in zip(p, c))
    pq, cq = statistics.quantiles(p, n=4), statistics.quantiles(c, n=4)
    gain = sign * (cq[1] - pq[1])
    return {
        "metric": metric, "better": better, "parent": pq, "change": cq,
        "wins": wins, "pairs": len(p), "gap": (cq[1] - pq[1]) / pq[1] if pq[1] else 0.0,
        "holds": wins >= WIN_SHARE * len(p) and gain > pq[2] - pq[0],
    }


def format_row(row: dict) -> str:
    def side(q):
        return f"{q[1]:.6g} [{q[0]:.6g}, {q[2]:.6g}]"
    return (f"  {row['metric']:<18} {row['better']:<6} {side(row['parent']):<32} "
            f"{side(row['change']):<32} {row['wins']:>2}/{row['pairs']:<3} "
            f"{100 * row['gap']:+7.2f}%  {'holds' if row['holds'] else 'no'}")


def report(runs: dict, end_to_end: list, first_seed: int = 0) -> tuple:
    """The summary lines for ``runs``, whose pairs ran on seeds from
    ``first_seed`` on, and the count of runs not correct."""
    lines, bad = [], 0
    for workload, sides in runs.items():
        failed = [f"{side} seed {seed}" for side, results in sides.items()
                  for seed, run in enumerate(results, start=first_seed)
                  if not run.get("correct")]
        bad += len(failed)
        lines.append(f"{workload}: {len(sides['parent'])} pairs")
        if failed:
            lines.append(f"  not correct: {', '.join(failed)}")
            continue
        lines.append(f"  {'metric':<18} {'better':<6} {'parent median [q1, q3]':<32} "
                     f"{'change median [q1, q3]':<32} {'wins':<6} {'gap':>8}  gain")
        for spec in end_to_end:
            lines.append(format_row(summarize(sides["parent"], sides["change"],
                                              spec["name"], spec["better"])))
    return lines, bad


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True, help="checkout of the parent commit")
    ap.add_argument("--change", required=True, help="checkout of the change")
    ap.add_argument("--pairs", type=int, required=True, help="seeds K..K+N-1, N >= 2")
    ap.add_argument("--first-seed", type=int, default=0,
                    help="K, the first seed (default 0); past the seeds used while "
                         "writing the change, to check a claim again")
    args = ap.parse_args(argv)
    if args.pairs < 2:
        ap.error("--pairs must be at least 2 to give quartiles")
    if args.first_seed < 0:
        ap.error("--first-seed must not be negative")
    parent, change = os.path.abspath(args.parent), os.path.abspath(args.change)
    if len(parent) != len(change):
        print(f"bench_pairs.py: checkout paths differ in length ({len(parent)} and "
              f"{len(change)} characters), and peak_rss_mb moves with it", file=sys.stderr)
        return 2
    with open(os.path.join(change, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    seeds = range(args.first_seed, args.first_seed + args.pairs)
    runs = run_pairs(parent, change, [w["name"] for w in bench["workloads"]], seeds)
    lines, bad = report(runs, bench["end_to_end"], args.first_seed)
    print("\n".join(lines))
    if bad:
        print(f"bench_pairs.py: {bad} runs not correct", file=sys.stderr)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
