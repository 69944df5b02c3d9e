#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's result-line metrics.

Runs the benchmark command from BENCHMARK.json once per seed on one
workload and prints, per metric, the median, the quartiles and the
spread: the distance between the first and third quartile as a share of
the median (statistics.quantiles(values, n=4)), next to the metric's
bound where BENCHMARK.json declares one.

    python3 perfbench/spread.py --workload steady_read --seeds 1-10
    python3 perfbench/spread.py --workload sim_day --seeds 3,7 --trace 1

Run it from the root of the repository.
"""

import argparse
import json
import statistics
import subprocess
import sys


def seeds(text):
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def cpu_ticks():
    """(steal, total) jiffies of all CPUs from /proc/stat, or None."""
    try:
        with open("/proc/stat") as f:
            fields = [int(x) for x in f.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    return (fields[7] if len(fields) > 7 else 0), sum(fields)


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", type=seeds, default=seeds("1-5"))
    p.add_argument("--seconds", type=int)
    p.add_argument("--trace", type=int, default=0)
    args = p.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"] + bench["per_layer"]}
    seconds = args.seconds or bench["run_seconds"]

    values = {}
    for seed in args.seeds:
        cmd = bench["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(args.trace),
        ]
        before = cpu_ticks()
        run = subprocess.run(cmd, capture_output=True, text=True)
        after = cpu_ticks()
        if run.returncode != 0:
            sys.exit(f"seed {seed}: exit {run.returncode}\n{run.stderr}")
        result = json.loads(run.stdout.strip().splitlines()[-1])
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        shown = " ".join(f"{name}={m['value']:.6g}" for name, m in result["metrics"].items())
        # Time the hypervisor gave this VM's vCPUs to someone else: a
        # run with much steal measured the host, not the program.
        steal = ""
        if before and after and after[1] > before[1]:
            steal = f" steal={(after[0] - before[0]) / (after[1] - before[1]):.1%}"
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} {shown}{steal}", flush=True)

    print(f"{'metric':32} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8} {'bound':>6}")
    for name, v in values.items():
        med = statistics.median(v)
        q1, _, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (v[0], None, v[0])
        spread = (q3 - q1) / med if med else float("nan")
        bound = bounds.get(name)
        flag = "" if bound is None or spread <= bound / 3 else "  above a third of the bound"
        print(f"{name:32} {med:14.4f} {q1:14.4f} {q3:14.4f} {spread:8.4f} {bound if bound is not None else '-':>6}{flag}")


if __name__ == "__main__":
    main()
