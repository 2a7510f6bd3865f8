#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

    python3 pipebench/spread.py [--seeds 1-10] [--trace 0|1] [--out FILE] [workload ...]

Run from the repository root. Reads the command, run length, workloads and
bounds from BENCHMARK.json, runs every workload once per seed, and prints
per metric the median, min, max and the quartile spread (Q3 - Q1) / median
of the per-run values, flagging any end-to-end spread above a third of its
bound. With --out, writes the medians and spreads as JSON (the baseline).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", default="0", choices=["0", "1"])
    ap.add_argument("--out")
    ap.add_argument("workloads", nargs="*")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    names = args.workloads or [w["name"] for w in bench["workloads"]]
    summary = {"available_parallelism": os.cpu_count(), "trace": int(args.trace), "workloads": {}}
    ok = True
    for name in names:
        values = {}
        walls = []
        for seed in parse_seeds(args.seeds):
            cmd = bench["command"] + [
                "--workload", name, "--seed", str(seed),
                "--seconds", str(bench["run_seconds"]), "--trace", args.trace,
            ]
            start = time.time()
            proc = subprocess.run(cmd, capture_output=True, text=True)
            walls.append(time.time() - start)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            print(f"{name} seed {seed}: exit {proc.returncode}, {walls[-1]:.1f} s, "
                  f"correct {result['correct']}, attempted {result['attempted']}, "
                  f"failed {result['failed']}", flush=True)
            ok &= proc.returncode == 0 and result["correct"]
            for metric, v in result["metrics"].items():
                values.setdefault(metric, []).append(v["value"])
        rows = {}
        for metric, vs in values.items():
            med = statistics.median(vs)
            q = statistics.quantiles(vs, n=4) if len(vs) > 1 else [vs[0]] * 3
            spread = (q[2] - q[0]) / med if med else 0.0
            rows[metric] = {"median": med, "min": min(vs), "max": max(vs), "spread": spread}
            flag = ""
            if metric in bounds and spread > bounds[metric] / 3:
                flag = f"  <-- above a third of bound {bounds[metric]}"
                ok = False
            print(f"  {metric:32s} median {med:<14.6g} min {min(vs):<12.6g} "
                  f"max {max(vs):<12.6g} spread {spread:.4f}{flag}")
        print(f"  wall per run: median {statistics.median(walls):.1f} s, max {max(walls):.1f} s")
        summary["workloads"][name] = rows
    if args.out:
        with open(args.out, "w") as f:
            json.dump(summary, f, indent=1)
            f.write("\n")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
