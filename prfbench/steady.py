#!/usr/bin/env python3
"""Steadiness report: runs the benchmark repeatedly and prints, for every
metric of every workload, the median, the quartiles and the spread
(q3 - q1) / median, next to the bound BENCHMARK.json fixes for it.

Run from the root of a checkout:

    python3 prfbench/steady.py --runs 10 --trace 0
    python3 prfbench/steady.py --runs 5 --workloads cold-mixed

Seeds are 1..runs, one run per seed; quartiles are those of
statistics.quantiles(values, n=4).
"""
import argparse
import json
import statistics
import subprocess
import sys


def main():
    bench = json.load(open("BENCHMARK.json"))
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--workloads", nargs="*", default=[w["name"] for w in bench["workloads"]])
    ap.add_argument("--show", action="store_true", help="also print every run's value, in run order")
    args = ap.parse_args()
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"] + bench["per_layer"]}
    worst = 0.0
    for wl in args.workloads:
        values = {}
        units = {}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            cmd = bench["command"] + ["--workload", wl, "--seed", str(seed),
                                      "--seconds", str(args.seconds), "--trace", str(args.trace)]
            out = subprocess.run(cmd, check=True, capture_output=True, text=True).stdout
            res = json.loads(out.strip().splitlines()[-1])
            if not res["correct"]:
                sys.exit(f"{wl} seed {seed}: {res['failed']} of {res['attempted']} requests failed")
            for name, m in res["metrics"].items():
                values.setdefault(name, []).append(m["value"])
                units[name] = m["unit"]
            print(f"{wl} seed {seed} done", file=sys.stderr, flush=True)
        print(f"== {wl} ({args.runs} runs, trace {args.trace})")
        print(f"  {'metric':36} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
        for name in sorted(values):
            v = values[name]
            q1, med, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (v[0], v[0], v[0])
            spread = (q3 - q1) / med if med else 0.0
            b = bounds.get(name)
            if b:
                worst = max(worst, spread / b)
            print(f"  {name:36} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.3f} {b if b is not None else '-':>6} {units[name]}")
            if args.show:
                print("      " + " ".join(f"{x:.4g}" for x in v))
    print(f"largest spread as a share of its bound: {worst:.2f}")


if __name__ == "__main__":
    main()
