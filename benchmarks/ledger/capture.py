"""Capture the ledger's baseline and derive its regression bounds.

    python3 benchmarks/ledger/capture.py --runs 10 \\
        --out benchmarks/ledger/baseline

Runs every workload ``--runs`` times untraced, each run with another seed
(workloads interleaved, so drift of the host hits all of them alike),
then twice traced with seed 11.  Writes ``<out>/<workload>.json`` with
every result and ``<out>/summary.json`` with, per end-to-end metric, the
spread (quartile distance over median), the medians of the first and
second half of the runs, and the bound the spread supports.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path[0:1] = [os.path.join(ROOT, "src"), os.path.dirname(HERE)]

from ledger.layers import unit_of  # noqa: E402
from ledger.workloads import WORKLOADS  # noqa: E402

#: untraced runs use seeds FIRST_SEED, FIRST_SEED + 1, ...
FIRST_SEED = 101
#: per-layer units whose values must repeat exactly between traced runs
EXACT_UNITS = ("count", "B")


def run(workload, seed, trace, scratch):
    out = os.path.join(scratch, f"{workload}-{seed}-{trace}.json")
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seed", str(seed), "--trace", str(trace),
         "--json", out], cwd=ROOT, stdout=subprocess.DEVNULL)
    with open(out) as fh:
        result = json.load(fh)
    os.unlink(out)
    if proc.returncode != 0 or not result["correct"]:
        sys.exit(f"capture: {workload} seed {seed} failed: "
                 f"{result['problems']}")
    return result


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def summarize(results, traced):
    half = len(results) // 2
    rows = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name] for r in results]
        first = statistics.median(values[:half])
        second = statistics.median(values[half:])
        rows[name] = {"median": statistics.median(values),
                      "spread": spread(values),
                      "set_medians": [first, second],
                      "set_drift": second / first - 1,
                      # a bound three times the spread keeps the spread
                      # below a third of it
                      "bound_supported": max(0.05, 3 * spread(values))}
    exact = {name: [t["metrics"][name] for t in traced]
             for name in traced[0]["metrics"]
             if unit_of(name) in EXACT_UNITS}
    return {"metrics": rows,
            "exact_counts_repeat": all(len(set(v)) == 1
                                       for v in exact.values()),
            "counts_that_differ": {k: v for k, v in exact.items()
                                   if len(set(v)) > 1}}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--out", default=os.path.join(HERE, "baseline"))
    parser.add_argument("--workload", action="append",
                        choices=list(WORKLOADS))
    args = parser.parse_args()
    names = args.workload or list(WORKLOADS)
    scratch = os.path.join(ROOT, ".ledger")
    os.makedirs(scratch, exist_ok=True)
    os.makedirs(args.out, exist_ok=True)
    results = {name: [] for name in names}
    for seed in range(FIRST_SEED, FIRST_SEED + args.runs):
        for name in names:
            results[name].append(run(name, seed, 0, scratch))
            print(f"{name} seed {seed}: {results[name][-1]['metrics']}",
                  flush=True)
    summary = {}
    for name in names:
        traced = [run(name, 11, 1, scratch) for _ in range(2)]
        summary[name] = summarize(results[name], traced)
        with open(os.path.join(args.out, f"{name}.json"), "w") as fh:
            json.dump({"runs": results[name], "traced": traced}, fh,
                      indent=1, sort_keys=True)
            fh.write("\n")
    with open(os.path.join(args.out, "summary.json"), "w") as fh:
        json.dump(summary, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(json.dumps(summary, indent=1))


if __name__ == "__main__":
    main()
