#!/usr/bin/env python3
"""Runs the benchmark on several seeds per workload and reports, for each
end-to-end metric, the median and the quartile spread (Q3 - Q1) / median
of its values, with the quartiles from statistics.quantiles(values, n=4),
against a third of the metric's bound in BENCHMARK.json.

Run from the root of a checkout:

    python3 perfbench/spread.py --runs 10 [--workload NAME ...]
"""
import argparse
import json
import statistics
import subprocess
import sys
import time


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workload", action="append")
    ap.add_argument("--trace", type=int, default=0)
    args = ap.parse_args()
    bench = json.load(open("BENCHMARK.json"))
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    metrics = bench["end_to_end"] if args.trace == 0 else bench["per_layer"]
    ok = True
    for w in workloads:
        values = {m["name"]: [] for m in metrics}
        for i in range(args.runs):
            seed = args.first_seed + i
            cmd = bench["command"] + ["--workload", w, "--seed", str(seed),
                                      "--seconds", str(bench["run_seconds"]), "--trace", str(args.trace)]
            t0 = time.monotonic()
            p = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
            elapsed = time.monotonic() - t0
            last = p.stdout.strip().splitlines()[-1] if p.stdout.strip() else "{}"
            res = json.loads(last) if p.returncode == 0 else {}
            if p.returncode != 0 or not res.get("correct") or res.get("failed"):
                ok = False
                print(f"{w} seed {seed}: exit {p.returncode}, result {res}", file=sys.stderr)
                continue
            for m in metrics:
                values[m["name"]].append(res["metrics"][m["name"]]["value"])
            print(f"{w} seed {seed} ({elapsed:.1f}s): " + ", ".join(
                f"{k}={v['value']:.6g} {v['unit']}" for k, v in res["metrics"].items())
                + f", error_rate={res['failed'] / res['attempted']:g} ({res['attempted']} operations)", flush=True)
        for m in metrics:
            v = values[m["name"]]
            if len(v) < 2:
                continue
            q = statistics.quantiles(v, n=4)
            med = statistics.median(v)
            spread = (q[2] - q[0]) / med if med else 0.0
            print(f"  {w:20s} {m['name']:32s} median {med:14.6g}  spread {spread:7.4f}"
                  + (f"  bound/3 {m['bound'] / 3:6.4f} {'ok' if spread < m['bound'] / 3 else 'WIDE'}" if "bound" in m else ""))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
