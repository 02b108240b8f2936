#!/usr/bin/env python3
"""Run the benchmark over several seeds and print each metric's spread.

    python3 perfbench/spread.py --workload NAME [--seeds 1-10] [--trace 0]

For every metric: the median of the runs and the distance between the
first and third quartiles (statistics.quantiles, n=4) as a share of that
median, next to the metric's bound from BENCHMARK.json. Run from the root
of a checkout; each run goes through the command BENCHMARK.json names.
"""
import argparse
import json
import statistics
import subprocess
import sys


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", default="0")
    ap.add_argument("--seconds", type=int)
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    secs = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"] + bench["per_layer"]}
    values = {}
    for seed in seeds(args.seeds):
        cmd = bench["command"] + ["--workload", args.workload, "--seed", str(seed),
                                  "--seconds", str(secs), "--trace", args.trace]
        out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        last = out.stdout.strip().splitlines()[-1] if out.stdout.strip() else ""
        if out.returncode != 0 or not last.startswith("{"):
            print(f"seed {seed}: failed (exit {out.returncode})", file=sys.stderr)
            return 1
        res = json.loads(last)
        print(f"seed {seed}: correct={res['correct']} attempted={res['attempted']} failed={res['failed']}",
              flush=True)
        for name, m in res["metrics"].items():
            values.setdefault(name, []).append(m["value"])
    print(f"{'metric':32} {'median':>14} {'iqr/median':>11} {'bound':>6}  values")
    for name, vals in values.items():
        q1, med, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (vals[0],) * 3
        spread = (q3 - q1) / med if med else float("nan")
        bound = bounds.get(name)
        flag = " OVER" if bound is not None and spread > bound / 3 else ""
        print(f"{name:32} {med:14.4f} {spread:11.3f} {bound if bound is not None else '-':>6}{flag}  "
              + " ".join(f"{v:.4g}" for v in vals))
    return 0


if __name__ == "__main__":
    sys.exit(main())
