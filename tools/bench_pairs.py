#!/usr/bin/env python3
"""Run the benchmark on two source trees in alternating pairs.

Usage (from the repository root)::

    git archive <parent-rev> | tar -x -C /tmp/parent
    git archive <change-rev> | tar -x -C /tmp/change
    python3 tools/bench_pairs.py --parent /tmp/parent --change /tmp/change \\
        --parent-commit <parent-rev> --seeds 1501-1510 --out pairs.json

Each run is ``python3 bench/run_bench.py --workload <w> --seed <s>
--seconds <t> --trace 0`` in one tree, which reads its result back from the
tree's ``.bench_results``.  Pair ``i`` runs the ``i``-th seed on both trees;
in each pair every workload runs on both trees back to back, odd pairs the
parent first and even pairs the change first.  Per workload and end-to-end
metric of ``BENCHMARK.json`` the summary holds each side's values, median and
quartiles (``statistics.quantiles(values, n=4)``), how many pairs the change
won (strictly better in the metric's direction) and the relative change of
the medians.  It also records whether both trees wrote the same output
digests for every seed, and each run's raw pass wall times.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

import numpy as np


def parse_seeds(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out += range(int(lo), int(hi or lo) + 1)
    return out


def bench_run(tree: str, workload: str, seed: int, seconds: float) -> dict:
    subprocess.run(
        [sys.executable, "bench/run_bench.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, check=True, stdout=subprocess.DEVNULL,
    )
    path = os.path.join(tree, ".bench_results", f"{workload}-seed{seed}-trace0.json")
    with open(path) as fh:
        record = json.load(fh)
    result = record["result"]
    return {
        "seed": seed,
        "correct": result["correct"],
        "metrics": {k: v["value"] for k, v in result["metrics"].items()},
        "raw_pass_wall_s": record["detail"]["pass_wall_samples"],
        "digests": record["detail"]["digests"],
    }


def summarise(values: list) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "values": values}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--parent", required=True, help="source tree of the parent commit")
    p.add_argument("--change", required=True, help="source tree of the change")
    p.add_argument("--parent-commit", default="", help="recorded as given")
    p.add_argument("--workloads", default="fig1_sweep,sandwich,certified_start,replay_log")
    p.add_argument("--seeds", default="1-10", help="one seed per pair, e.g. 1501-1510")
    p.add_argument("--seconds", type=float, default=22)
    p.add_argument("--out", required=True)
    args = p.parse_args(argv)
    seeds = parse_seeds(args.seeds)
    if len(seeds) < 2:
        p.error("--seeds must give at least 2 pairs for quartiles")

    with open(os.path.join(args.change, "BENCHMARK.json")) as fh:
        better = {m["name"]: m["better"] for m in json.load(fh)["end_to_end"]}
    trees = {"parent": args.parent, "change": args.change}
    workloads = args.workloads.split(",")
    runs = {w: {side: [] for side in trees} for w in workloads}
    for pair, seed in enumerate(seeds):
        order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
        for w in workloads:
            for side in order:
                runs[w][side].append(bench_run(trees[side], w, seed, args.seconds))
        print(f"pair {pair + 1}/{len(seeds)} done", file=sys.stderr)

    summary = {}
    for w, sides in runs.items():
        par, chg = sides["parent"], sides["change"]
        metrics = {}
        for name, direction in better.items():
            pv = [r["metrics"][name] for r in par]
            cv = [r["metrics"][name] for r in chg]
            wins = sum((c < q) if direction == "lower" else (c > q) for c, q in zip(cv, pv))
            metrics[name] = {
                "parent": summarise(pv),
                "change": summarise(cv),
                "change_wins": f"{wins}/{len(pv)}",
                "median_change_frac": statistics.median(cv) / statistics.median(pv) - 1,
            }
        summary[w] = {
            "all_correct": all(r["correct"] for r in par + chg),
            "output_digests_equal_between_sides": all(
                a["digests"] == b["digests"] for a, b in zip(par, chg)),
            "metrics": metrics,
            "raw_pass_wall_s": {side: [r["raw_pass_wall_s"] for r in rs]
                                for side, rs in sides.items()},
        }

    record = {
        "command": f"python3 bench/run_bench.py --workload <workload> --seed <seed> "
                   f"--seconds {args.seconds:g} --trace 0, in each tree",
        "host": f"{os.cpu_count()} CPUs, Python {platform.python_version()}, "
                f"numpy {np.__version__}",
        "parent_commit": args.parent_commit,
        "order": "in each pair every workload runs on both trees back to back; "
                 "odd pairs run the parent first, even pairs the change first",
        "seeds": seeds,
        "workloads": summary,
    }
    with open(args.out, "w") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    for w, entry in summary.items():
        wall = entry["metrics"]["wall_s"]
        print(f"{w}: wall_s {wall['parent']['median']:.3f} -> {wall['change']['median']:.3f} "
              f"(change won {wall['change_wins']}), digests equal: "
              f"{entry['output_digests_equal_between_sides']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
