#!/usr/bin/env python3
"""Runs the benchmark on several seeds and reports each end-to-end
metric's spread: the distance between the first and third quartile of
its values, as a share of their median, next to the metric's bound.

Usage (from the repository root):

    python3 perfbench/spread.py [--seeds 1-10] [--workloads local,huge]
                                [--trace 0] [--bin PATH] [--log FILE]

By default it runs the command in BENCHMARK.json; --bin runs an already
built perfbench binary instead, with the same arguments.
"""

import argparse
import json
import statistics
import subprocess
import sys


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--workloads", default="")
    ap.add_argument("--trace", default="0")
    ap.add_argument("--bin", default="")
    ap.add_argument("--log", default="")
    a = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    command = [a.bin] if a.bin else bench["command"]
    workloads = a.workloads.split(",") if a.workloads else [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    log = open(a.log, "a") if a.log else None

    ok = True
    for w in workloads:
        values = {}
        for s in seeds(a.seeds):
            args = ["--workload", w, "--seed", str(s), "--seconds", str(bench["run_seconds"]),
                    "--trace", a.trace]
            p = subprocess.run(command + args, capture_output=True, text=True)
            last = p.stdout.strip().splitlines()[-1] if p.stdout.strip() else ""
            if log:
                log.write(f"{w} {s} {last}\n")
                log.flush()
            if p.returncode != 0:
                print(f"{w} seed {s}: exit {p.returncode}\n{p.stderr[-2000:]}", file=sys.stderr)
                ok = False
                continue
            res = json.loads(last)
            if not res["correct"] or res["failed"]:
                print(f"{w} seed {s}: correct={res['correct']} failed={res['failed']}")
                ok = False
            for name, m in res["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        print(f"== {w}")
        for name, vals in values.items():
            med = statistics.median(vals)
            if len(vals) >= 2:
                q1, _, q3 = statistics.quantiles(vals, n=4)
            else:
                q1 = q3 = med
            spread = (q3 - q1) / med if med else float("nan")
            bound = bounds.get(name)
            flag = ""
            if bound is not None and name != "setup_s":
                flag = "OK" if spread < bound / 3 else ("within" if spread <= bound else "OVER")
                ok &= flag != "OVER"
            print(f"  {name:<22} median {med:>16.6g}  spread {spread:8.4f}  bound {bound}  {flag}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
