#!/usr/bin/env python3
"""Steadiness check for the benchmark defined in BENCHMARK.json.

Runs the benchmark command once per seed for each workload (tracing off)
and reports, per end-to-end metric, the median, the quartiles from
statistics.quantiles(values, n=4), and the quartile spread as a share of
the median next to the metric's bound. Run from the repository root:

    python3 benchmark/steadiness.py --seeds 1-10 --out benchmark/steadiness.json
    python3 benchmark/steadiness.py --workloads fading_links --seeds 1-5

A JSON summary (every raw value included) is written to --out when given.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def parse_seeds(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(command, workload, seed, seconds):
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    start = time.monotonic()
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=600)
    wall = time.monotonic() - start
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit code {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: correctness check failed")
    return result, wall


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", help="comma-separated; default: all")
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--out", help="write the JSON summary here")
    args = parser.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in bench["workloads"]])
    seeds = parse_seeds(args.seeds)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    summary = {"run_seconds": bench["run_seconds"], "seeds": seeds, "workloads": {}}
    for workload in workloads:
        values = {name: [] for name in bounds}
        walls = []
        for seed in seeds:
            result, wall = run_once(bench["command"], workload, seed, bench["run_seconds"])
            walls.append(wall)
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            print(f"{workload} seed {seed}: "
                  + ", ".join(f"{n}={v[-1]:.6g}" for n, v in values.items())
                  + f" ({wall:.1f} s)", flush=True)
        rows = {}
        for name, vals in values.items():
            q1, q2, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / q2
            rows[name] = {"median": q2, "q1": q1, "q3": q3, "spread": spread,
                          "bound": bounds[name], "values": vals}
            print(f"  {name}: median {q2:.6g}, q1 {q1:.6g}, q3 {q3:.6g}, "
                  f"spread {spread:.4f} (bound {bounds[name]})", flush=True)
        summary["workloads"][workload] = {"wall_s": walls, "metrics": rows}

    if args.out:
        with open(args.out, "w") as f:
            json.dump(summary, f, indent=2)
            f.write("\n")


if __name__ == "__main__":
    main()
