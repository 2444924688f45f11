#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarise the spread.

    python3 perfbench/report.py --workload explore --runs 10 --seconds 15
    python3 perfbench/report.py --workload open --runs 3 --trace

For each metric it prints the median, the first and third quartiles
(statistics.quantiles, n=4) and the quartile distance as a share of the
median. With --trace the runs are traced: the per-layer metrics are
summarised, the self time per layer is averaged, and the end-to-end
metrics of the traced runs are printed next to untraced runs of the
same seeds, whose difference is the tracing overhead.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if trace else "0"]
    out = subprocess.run(cmd, capture_output=True, text=True, check=True)
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    e2e = {}
    selfs = {}
    for line in lines[:-1]:
        if line.startswith("e2e "):
            e2e = json.loads(line[4:])
        elif line.startswith("self "):
            _, _, name, secs = line.split()
            selfs[name] = float(secs)
    return result, e2e, selfs


def summarise(title, runs):
    print(title)
    names = list(runs[0].keys())
    for name in names:
        values = [r[name]["value"] for r in runs]
        med = statistics.median(values)
        if len(values) >= 2:
            q1, _, q3 = statistics.quantiles(values, n=4)
        else:
            q1 = q3 = med
        share = (q3 - q1) / med if med else 0.0
        print(f"  {name:26s} median {med:12.4f}  q1 {q1:12.4f}  "
              f"q3 {q3:12.4f}  spread {100 * share:6.2f}%  "
              f"{runs[0][name]['unit']}")


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--seconds", type=int, default=15)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--trace", action="store_true")
    a = p.parse_args()
    seeds = range(a.first_seed, a.first_seed + a.runs)
    results, e2e, selfs, failed, attempted = [], [], [], 0, 0
    for seed in seeds:
        r, e, s = run(a.workload, seed, a.seconds, a.trace)
        if not r["correct"]:
            print(f"seed {seed}: incorrect result", file=sys.stderr)
        failed += r["failed"]
        attempted += r["attempted"]
        results.append(r["metrics"])
        e2e.append(e)
        selfs.append(s)
    print(f"workload {a.workload}: {a.runs} runs, {attempted} operations, "
          f"{failed} failed")
    summarise("per-layer metrics" if a.trace else "end-to-end metrics",
              results)
    if a.trace:
        print("self time per run, by span (s)")
        for name in sorted(selfs[0]):
            mean = statistics.mean(s.get(name, 0.0) for s in selfs)
            print(f"  {name:26s} {mean:10.4f}")
        summarise("end-to-end metrics, traced", e2e)
        plain = [run(a.workload, s, a.seconds, False)[0]["metrics"]
                 for s in seeds]
        summarise("end-to-end metrics, untraced (same seeds)", plain)


if __name__ == "__main__":
    main()
