#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

Runs BENCHMARK.json's command once per seed for each workload and
prints, per metric, the median and the spread: the distance between
the first and third quartile (statistics.quantiles, n=4) as a share of
the median. A spread at or above the metric's bound makes the metric
unusable as a gate; the target is a third of the bound.

    python3 perfbench/spread.py --seeds 1-10                 # every workload
    python3 perfbench/spread.py --workloads sim-chaos --seeds 1-5
    python3 perfbench/spread.py --trace 1 --seeds 1-3        # per-layer run
"""

import argparse
import json
import statistics
import subprocess
import sys


def seed_list(spec):
    out = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", help="comma-separated (default: all in BENCHMARK.json)")
    ap.add_argument("--seeds", default="1-10", help="seed list, e.g. 1-10 or 3,7")
    ap.add_argument("--trace", default="0", choices=["0", "1"])
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    ok = True
    for name in names:
        values = {}
        for seed in seed_list(args.seeds):
            cmd = bench["command"] + ["--workload", name, "--seed", str(seed),
                                      "--seconds", str(bench["run_seconds"]), "--trace", args.trace]
            proc = subprocess.run(cmd, capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines else {}
            if proc.returncode != 0 or not result.get("correct"):
                ok = False
                print(f"{name} seed {seed}: exit {proc.returncode}\n{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
                continue
            for metric, v in result["metrics"].items():
                values.setdefault(metric, []).append(v["value"])
            print(f"{name} seed {seed}: " + " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()),
                  flush=True)
        print(f"\n{name}: {'metric':34} {'median':>14} {'spread':>8} {'bound':>6}")
        for metric, xs in values.items():
            med = statistics.median(xs)
            spread = float("nan")
            if len(xs) >= 2 and med:
                q1, _, q3 = statistics.quantiles(xs, n=4)
                spread = (q3 - q1) / abs(med)
            bound = bounds.get(metric)
            flag = ""
            if bound is not None and metric != "setup_s":
                flag = "ok" if spread < bound / 3 else ("WIDE" if spread < bound else "OVER BOUND")
            print(f"{name}: {metric:34} {med:14.6g} {spread:8.3f} {bound if bound is not None else '':>6} {flag}")
        print(flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
