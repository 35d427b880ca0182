#!/usr/bin/env python3
"""Noise study for the gated benchmark: the numbers behind NOISE.md.

Runs SETS back-to-back sets of the same build. A set is RUNS runs of
every workload, each with another seed, as the driver makes them. For
each (workload, metric) pair it prints every set's median, every set's
spread (first to third quartile over the median, the driver's own
statistic) and the largest gap between two sets' medians, and flags a
spread over a third of the metric's bound and a gap over half of it.
The end-to-end timings, which the program prints marked "(not gated)",
are tabulated too, without a bound and so without flags.

    python3 bench/noise.py [--sets 5] [--runs 10] [--out bench/out/noise.json]
    python3 bench/noise.py --table bench/out/noise.json    # print the table of a finished study again
"""
import argparse
import itertools
import json
import statistics
import subprocess
import sys


def run(workload, seed, seconds):
    out = subprocess.run(
        ["bash", "bench/run.sh", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        check=True, capture_output=True, text=True).stdout
    lines = out.strip().splitlines()
    res = json.loads(lines[-1])
    if not res["correct"] or res["failed"]:
        sys.exit(f"{workload} seed {seed}: {res['failed']} of {res['attempted']} checks failed")
    vals = {k: v["value"] for k, v in res["metrics"].items()}
    for line in lines:
        if line.endswith("(not gated)"):
            name, value = line.split()[:2]
            vals[name] = float(value)
    return vals


def measure(args, workloads, seconds):
    seed = 1000
    data = {w: [] for w in workloads}  # workload -> set -> run -> metrics
    for s in range(args.sets):
        for w in workloads:
            data[w].append([])
        for r in range(args.runs):
            for w in workloads:  # interleaved, so drift hits every workload alike
                seed += 1
                data[w][s].append(run(w, seed, seconds))
                print(f"set {s + 1} run {r + 1} {w} done", file=sys.stderr)
        json.dump(data, open(args.out, "w"))
    return data


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--sets", type=int, default=5)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--out", default="bench/out/noise.json")
    ap.add_argument("--table", help="skip the runs and print the table of this saved study")
    args = ap.parse_args()

    bench = json.load(open("BENCHMARK.json"))
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    workloads = [w["name"] for w in bench["workloads"]]
    if args.table:
        data = json.load(open(args.table))
    else:
        data = measure(args, workloads, bench["run_seconds"])

    def mark(v, limit):
        return f"{100 * v:.1f}" + ("**!**" if limit and v > limit else "")

    for name in data[workloads[0]][0][0]:
        bounds.setdefault(name, None)  # a timing: no bound

    print("| workload | metric | bound | set medians | spread of each set, % | largest gap between sets, % |")
    print("|---|---|---|---|---|---|")
    for w in workloads:
        for m, bound in bounds.items():
            meds, spreads = [], []
            for runs in data[w]:
                vals = [x[m] for x in runs]
                med = statistics.median(vals)
                meds.append(med)
                q = statistics.quantiles(vals, n=4)
                spreads.append((q[2] - q[0]) / med)
            gap = max((abs(a - b) / min(a, b) for a, b in itertools.combinations(meds, 2)), default=0.0)
            print(f"| {w} | {m} | {f'{100 * bound:.0f} %' if bound else 'none'} | {' '.join(f'{x:.4g}' for x in meds)} "
                  f"| {' '.join(mark(v, bound and bound / 3) for v in spreads)} | {mark(gap, bound and bound / 2)} |")


if __name__ == "__main__":
    main()
