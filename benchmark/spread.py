#!/usr/bin/env python3
"""Run the benchmark several times per workload and report the spread.

For every end-to-end metric this prints the median of the runs and the
distance between their first and third quartiles as a share of the
median (``statistics.quantiles(values, n=4)``) — the figure the bounds
in BENCHMARK.json are set against.

    python3 benchmark/spread.py [--runs 10] [--first-seed 1] \
        [--workloads cycles,contended,serve-mixed] [--seconds S] [--trace 0]

Run it from the repository root. The command and run length come from
BENCHMARK.json unless overridden.
"""
import argparse
import json
import statistics
import subprocess
import sys


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    p = argparse.ArgumentParser()
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    p.add_argument("--seconds", type=float, default=bench["run_seconds"])
    p.add_argument("--trace", default="0")
    p.add_argument("--show", action="store_true", help="print every run's value")
    a = p.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    ok = True
    for workload in a.workloads.split(","):
        values = {}
        for k in range(a.runs):
            seed = a.first_seed + k
            cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                                      "--seconds", str(a.seconds), "--trace", a.trace]
            out = subprocess.run(cmd, capture_output=True, text=True)
            last = out.stdout.strip().splitlines()[-1] if out.stdout.strip() else ""
            if out.returncode != 0 or not last.startswith("{"):
                print(f"{workload} seed {seed}: exit {out.returncode}\n{out.stdout}{out.stderr}", file=sys.stderr)
                ok = False
                continue
            result = json.loads(last)
            ok &= result["correct"] and result["failed"] == 0
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        for name, v in values.items():
            med = statistics.median(v)
            spread = float("nan")
            if len(v) >= 2 and med != 0:
                q = statistics.quantiles(v, n=4)
                spread = (q[2] - q[0]) / med
            bound = bounds.get(name)
            flag = ""
            if bound is not None and a.trace == "0":
                flag = "ok" if spread < bound / 3 else ("within bound" if spread < bound else "TOO WIDE")
            print(f"{workload:12} {name:28} median {med:14.6g}  spread {spread:7.4f}  bound {bound}  {flag}")
            if a.show:
                print("    " + " ".join(f"{x:.6g}" for x in v))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
