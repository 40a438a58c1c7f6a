"""Run-to-run spread of the end-to-end metrics over several seeds.

Usage, from the repository root:
    python3 perfbench/spread.py [--runs 10] [--first-seed 1] [--workload W ...]

Runs `run.py --trace 0` once per seed and workload, one run at a time, with
the `run_seconds` from BENCHMARK.json, and prints for each metric the median
and the interquartile range as a share of the median (statistics.quantiles,
n=4) next to the metric's bound.  All raw results go to
perfbench/out/spread-<first seed>.json.

The benchmark counts as steady when every spread, except that of `setup_s`
(set-up is gated on its median alone), stays below a third of the metric's
bound.  The exit status is 1 when a run reports a failed op or a spread
reaches that limit, else 0.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    names = [w["name"] for w in bench["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--workload", action="append", choices=names)
    args = p.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    raw = {}
    ok = True
    for wl in args.workload or names:
        results = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            cmd = bench["command"] + ["--workload", wl, "--seed", str(seed),
                                      "--seconds", str(bench["run_seconds"]), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
            doc = json.loads(proc.stdout.strip().splitlines()[-1])
            ok &= doc["failed"] == 0
            results.append(doc)
        raw[wl] = results
        for name, bound in bounds.items():
            vals = [r["metrics"][name]["value"] for r in results]
            q1, _, q3 = statistics.quantiles(vals, n=4)
            med = statistics.median(vals)
            spread = (q3 - q1) / med
            steady = name == "setup_s" or spread < bound / 3
            ok &= steady
            flag = "" if steady else "  <-- not below bound/3"
            print(f"{wl:9s} {name:12s} median {med:10.5g}  spread {spread:6.3f}  "
                  f"bound {bound}{flag}")
        sys.stdout.flush()
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    with open(os.path.join(HERE, "out", f"spread-{args.first_seed}.json"), "w",
              encoding="utf-8") as fh:
        json.dump(raw, fh, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
