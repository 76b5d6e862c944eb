#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

Usage (from the repository root):

    python3 perfbench/spread.py [--workloads a,b] [--seeds N] [--first-seed S]
                                [--trace 0|1] [--repeat]

For every workload it runs the command of BENCHMARK.json once per seed,
checks that each run is correct and reports exactly the metrics
BENCHMARK.json declares, and prints per metric the median and the
distance between the first and third quartile (Python's
statistics.quantiles(values, n=4)) as a share of the median, next to the
metric's bound. With --repeat it also runs the first seed a second time
and checks that the answer digest, objective_ratio and ok_frac repeat
exactly. Exits 1 if any check fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run(spec, workload, seed, trace):
    cmd = spec["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]), "--trace", str(trace),
    ]
    start = time.time()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stdout}\n{proc.stderr}")
    digest = next((l.split()[-1] for l in lines if l.startswith("# answer digest")), None)
    return json.loads(lines[-1]), digest, time.time() - start


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", default=None)
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--repeat", action="store_true")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    declared = spec["end_to_end"] if args.trace == 0 else spec["per_layer"]
    bounds = {m["name"]: m.get("bound") for m in declared}
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]])
    ok = True
    for w in workloads:
        values = {name: [] for name in bounds}
        seconds = []
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            out, digest, secs = run(spec, w, seed, args.trace)
            seconds.append(secs)
            if not out["correct"] or set(out["metrics"]) != set(bounds):
                print(f"{w} seed {seed}: correct={out['correct']} "
                      f"metrics={sorted(out['metrics'])}")
                ok = False
                continue
            for name, m in out["metrics"].items():
                values[name].append(m["value"])
            print(f"{w} seed {seed}: {secs:.1f} s digest {digest}", flush=True)
        if args.repeat:
            first = run(spec, w, args.first_seed, args.trace)
            again = run(spec, w, args.first_seed, args.trace)
            for key in ("objective_ratio", "ok_frac"):
                if key in first[0]["metrics"] and (
                        first[0]["metrics"][key] != again[0]["metrics"][key]):
                    print(f"{w}: {key} did not repeat")
                    ok = False
            if first[1] != again[1]:
                print(f"{w}: answer digest did not repeat ({first[1]} vs {again[1]})")
                ok = False
        print(f"{w}: {len(seconds)} runs, {max(seconds):.1f} s longest")
        for name, vals in values.items():
            if len(vals) < 2:
                continue
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("nan")
            bound = bounds[name]
            flag = ""
            if bound is not None:
                flag = "ok" if spread <= bound / 3 else ("within bound" if spread <= bound else "TOO WIDE")
                ok &= spread <= bound
            print(f"  {name:44s} median {med:<14.6g} spread {spread:7.2%}"
                  f"  bound {bound if bound is not None else '-'} {flag}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
