#!/usr/bin/env python3
"""Runs every workload N times in two sets, alternating their order, and reports spread.

    python3 perfbench/stability.py [--runs 10] [--seed-base 1000]

The run length and the workloads come from BENCHMARK.json. Each of the two
sets runs every workload --runs times (seed = seed-base + set * runs + run
index, so the sets use other seeds), reversing the workload order on every
other pass. For each end-to-end metric it prints the median, the quartiles
(statistics.quantiles, n=4), the spread (Q3 - Q1) / median and the largest
deviation from the median, each against the metric's bound, then how far the
second set's median moved from the first's, in the metric's worse
direction. A set is steady when every spread is at most a third of its
bound; the two sets agree when no median moved by more than its bound and
the share of failed operations is the same. Raw results are written to
.bench_build/stability.json.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETS = 2
OUT = os.path.join(ROOT, ".bench_build", "stability.json")


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit("%s seed %d failed with code %d" % (workload, seed, proc.returncode))
    return json.loads(lines[-1])


def summarise(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med,
            "max_dev": max(abs(v - med) for v in values) / med}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed-base", type=int, default=1000)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    metrics = bench["end_to_end"]

    sets = []
    for s in range(SETS):
        results = {w: [] for w in workloads}
        for i in range(args.runs):
            order = workloads if i % 2 == 0 else list(reversed(workloads))
            for w in order:
                seed = args.seed_base + s * args.runs + i
                t0 = time.monotonic()
                res = run_once(w, seed, seconds)
                res["wall_s"] = time.monotonic() - t0
                results[w].append(res)
                print("set %d run %d %s seed %d: correct=%s failed=%d/%d, %.1f s" % (
                    s + 1, i + 1, w, seed, res["correct"], res["failed"], res["attempted"],
                    res["wall_s"]),
                    file=sys.stderr, flush=True)
        sets.append(results)

    os.makedirs(os.path.dirname(OUT), exist_ok=True)
    with open(OUT, "w") as f:
        json.dump(sets, f, indent=1)

    ok = True
    for s, results in enumerate(sets):
        print("\nset %d: %d runs per workload, %g s each" % (s + 1, args.runs, seconds))
        print("| workload | metric | median | Q1 | Q3 | spread | max dev | bound | spread <= bound/3 |")
        print("|---|---|---|---|---|---|---|---|---|")
        for w in workloads:
            runs = results[w]
            if not all(r["correct"] for r in runs):
                ok = False
                print("| %s | (a run was not correct) |" % w)
            for m in metrics:
                st = summarise([r["metrics"][m["name"]]["value"] for r in runs])
                steady = st["spread"] <= m["bound"] / 3
                ok = ok and steady
                print("| %s | %s | %.6g | %.6g | %.6g | %.4f | %.4f | %g | %s |" % (
                    w, m["name"], st["median"], st["q1"], st["q3"], st["spread"],
                    st["max_dev"], m["bound"], "yes" if steady else "NO"))

    print("\nsecond set's median against the first's (positive = worse)")
    print("| workload | metric | set 1 median | set 2 median | worse by | bound |")
    print("|---|---|---|---|---|---|")
    for w in workloads:
        shares = [sum(r["failed"] for r in st[w]) / sum(r["attempted"] for r in st[w])
                  for st in sets]
        if len(set(shares)) != 1:
            ok = False
            print("| %s | (failed share differs between sets: %s) |" % (w, shares))
        for m in metrics:
            a = statistics.median(r["metrics"][m["name"]]["value"] for r in sets[0][w])
            b = statistics.median(r["metrics"][m["name"]]["value"] for r in sets[1][w])
            worse = (b - a) / a if m["better"] == "lower" else (a - b) / a
            ok = ok and worse <= m["bound"]
            print("| %s | %s | %.6g | %.6g | %+.4f | %g |" % (w, m["name"], a, b, worse, m["bound"]))
    print("\nsteady" if ok else "\nNOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
