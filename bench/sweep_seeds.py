#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarise each metric.

Usage (from the repository root)::

    python3 bench/sweep_seeds.py --workloads fig1_sweep,sandwich --seeds 1-10 \\
        --seconds 22 --trace 0 --out bench/baseline.json

Runs ``run_bench.py`` once per (workload, seed), one at a time, and writes a
JSON summary: per workload and metric the values, median, quartiles
(``statistics.quantiles(values, n=4)``) and spread (quartile distance over
median), plus the run-level provenance of the first result.  Two summaries
made on one machine give a before/after comparison of every metric.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time

import run_bench


def parse_seeds(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out += range(int(lo), int(hi or lo) + 1)
    return out


def summarise(values):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workloads", default=",".join(run_bench.WORKLOADS))
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--seconds", type=float, default=22)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", required=True)
    args = p.parse_args(argv)

    summary = {"seconds": args.seconds, "trace": args.trace, "workloads": {}}
    ok = True
    for workload in args.workloads.split(","):
        metrics: dict = {}
        for seed in parse_seeds(args.seeds):
            t0 = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, str(run_bench.BENCH_DIR / "run_bench.py"),
                 "--workload", workload, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace)],
                capture_output=True, text=True, timeout=900,
            )
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            ok &= result["correct"]
            for name, m in result["metrics"].items():
                metrics.setdefault(name, {"unit": m["unit"], "values": []})["values"].append(m["value"])
            print(f"{workload} seed {seed}: {time.perf_counter() - t0:.1f}s "
                  f"correct={result['correct']}", flush=True)
            if "provenance" not in summary:
                record = run_bench.RESULTS_DIR / f"{workload}-seed{seed}-trace{args.trace}.json"
                summary["provenance"] = json.loads(record.read_text())["provenance"]
        summary["workloads"][workload] = {
            name: dict(unit=m["unit"], **summarise(m["values"])) for name, m in metrics.items()
        }
        for name, m in summary["workloads"][workload].items():
            print(f"  {name}: median {m['median']:.6g} {m['unit']}, spread {m['spread']:.4f}")
    with open(args.out, "w") as fh:
        json.dump(summary, fh, indent=1)
        fh.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
