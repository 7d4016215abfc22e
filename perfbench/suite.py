#!/usr/bin/env python3
"""Run every benchmark workload and print one table of end-to-end metrics.

    python3 perfbench/suite.py                  # every gated workload, 20 s each
    python3 perfbench/suite.py --smoke          # the benchmark's own fast test

``--smoke`` runs each workload for a handful of steps, untraced and traced,
and fails unless every metric named in BENCHMARK.json comes back with its
unit and no operation failed.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")


def run_workload(workload: str, seed: int, seconds: float, trace: int, smoke: bool) -> dict:
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if smoke:
        cmd.append("--smoke")
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{' '.join(cmd)} printed nothing:\n{proc.stderr}")
    result = json.loads(lines[-1])
    for line in lines:  # printed by run.py, outside the gated metrics
        fields = line.split()
        if len(fields) > 2 and fields[1] == "step_ms_p50":
            result["step_ms_p50"] = float(fields[2])
    if proc.stderr:
        result["stderr"] = proc.stderr
    return result


def smoke(bench: dict, seed: int) -> int:
    problems = []
    for wl in bench["workloads"]:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            result = run_workload(wl["name"], seed, 0, trace, smoke=True)
            want = {m["name"]: m["unit"] for m in bench[section]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            where = f"{wl['name']} trace={trace}"
            if got != want:
                missing = sorted(want.keys() - got.keys())
                extra = sorted(got.keys() - want.keys())
                wrong = sorted(k for k in want.keys() & got.keys() if want[k] != got[k])
                problems.append(f"{where}: missing {missing}, extra {extra}, wrong unit {wrong}")
            if result["failed"] or not result["correct"]:
                problems.append(f"{where}: {result['failed']} of {result['attempted']} "
                                f"operations failed\n{result.get('stderr', '')}")
            print(f"{where}: {len(got)} metrics, error_rate "
                  f"{result['failed'] / result['attempted']}")
    for problem in problems:
        print(f"FAIL {problem}", file=sys.stderr)
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problems")
    return 1 if problems else 0


def table(bench: dict, seed: int, seconds: float) -> int:
    names = [wl["name"] for wl in bench["workloads"]]
    results = {name: run_workload(name, seed, seconds, 0, smoke=False) for name in names}
    print(f"{'metric':<20}{'unit':<9}" + "".join(f"{n:>16}" for n in names))
    for metric in bench["end_to_end"]:
        cells = "".join(
            f"{results[n]['metrics'].get(metric['name'], {}).get('value', float('nan')):>16.5g}"
            for n in names)
        print(f"{metric['name']:<20}{metric['unit']:<9}{cells}")
    p50 = "".join(f"{results[n].get('step_ms_p50', float('nan')):>16.5g}" for n in names)
    print(f"{'step_ms_p50':<20}{'ms':<9}{p50}")
    rates = "".join(f"{results[n]['failed'] / results[n]['attempted']:>16.5g}" for n in names)
    print(f"{'error_rate':<20}{'ratio':<9}{rates}")
    print(f"{'(failed/attempted)':<29}"
          + "".join(f"{str(results[n]['failed']) + '/' + str(results[n]['attempted']):>16}"
                    for n in names))
    return 0 if all(r["correct"] for r in results.values()) else 1


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    return smoke(bench, args.seed) if args.smoke else table(bench, args.seed, args.seconds)


if __name__ == "__main__":
    sys.exit(main())
