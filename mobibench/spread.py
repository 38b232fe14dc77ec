#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

    python3 mobibench/spread.py --seeds 10 [--workloads a,b] [--trace 0]
                                [--out FILE]

Seeds 1..N each run once for run_seconds from BENCHMARK.json. For every
workload and end-to-end metric this prints the median over the seeds and
the spread: the distance between the first and third quartile
(statistics.quantiles(values, n=4)) as a share of the median, next to
the metric's bound from BENCHMARK.json. With --out it writes the same
numbers, with the machine fingerprint of the first run, as JSON: that is
how mobibench/BASELINE.json was made. Run from the checkout root.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    start = time.monotonic()
    done = subprocess.run(cmd, capture_output=True, text=True)
    elapsed = time.monotonic() - start
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(cmd)} exited {done.returncode}:\n"
                         f"{done.stderr[-2000:]}")
    record = json.loads(lines[-2]) if len(lines) >= 2 else {}
    return json.loads(lines[-1]), record, elapsed


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--workloads", default="")
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    parser.add_argument("--out", default="")
    args = parser.parse_args()

    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    workloads = ([w for w in args.workloads.split(",") if w] or
                 [w["name"] for w in spec["workloads"]])
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}

    report = {"run_seconds": seconds, "seeds": list(range(1, args.seeds + 1)),
              "trace": args.trace, "workloads": {}}
    for workload in workloads:
        values, longest = {}, 0.0
        for seed in report["seeds"]:
            result, record, elapsed = run_once(workload, seed, seconds,
                                               args.trace)
            longest = max(longest, elapsed)
            report.setdefault("fingerprint", record.get("fingerprint"))
            if not result["correct"] or result["failed"]:
                raise SystemExit(f"{workload} seed {seed}: output check failed")
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        rows = {}
        print(f"{workload} (longest run {longest:.1f} s)")
        for name, vals in values.items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else None
            rows[name] = {"median": med, "q1": q1, "q3": q3,
                          "spread": spread, "values": vals}
            bound = bounds.get(name)
            flag = ""
            if bound is not None and args.trace == 0 and spread is not None:
                flag = "ok" if spread < bound / 3 else (
                    "WIDE" if spread <= bound else "OVER")
            shown = f"{spread:8.4f}" if spread is not None else "       -"
            print(f"  {name:32s} median {med:<14.6g} spread {shown}"
                  f"  bound {bound if bound is not None else '-'} {flag}")
        report["workloads"][workload] = rows
        sys.stdout.flush()
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")


if __name__ == "__main__":
    main()
