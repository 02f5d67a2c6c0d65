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
digests for every seed, each run's raw pass wall times, and each tree's
``wc -l src/batchband/*.py`` total.  ``setup_s`` is a set-up time scaled by
the time of the benchmark's reference imports in the same interpreter, so
the summary also holds each run's raw set-up times and reference-import
times, and per side the medians and quartiles of their per-run medians:
a change to what batchband imports can move the reference too.  The pair
protocol is ``tools/pairs.py``.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys

from pairs import compare, host, order, run_pairs, src_lines, tree_parser, write_json


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
    result, detail = record["result"], record["detail"]
    return {
        "seed": seed,
        "correct": result["correct"],
        "metrics": {k: v["value"] for k, v in result["metrics"].items()},
        "raw_pass_wall_s": detail["pass_wall_samples"],
        "raw_setup_s": detail["setup_samples"],
        "raw_setup_ref_import_s": detail["setup_ref_import_s"],
        "digests": detail["digests"],
    }


def summarise_workload(par: list, chg: list, better: dict) -> dict:
    """One workload's entry from its parent and change runs (``bench_run``
    results in pair order); ``better`` maps each end-to-end metric to its
    direction."""
    sides = {"parent": par, "change": chg}
    return {
        "all_correct": all(r["correct"] for r in par + chg),
        "output_digests_equal_between_sides": all(
            a["digests"] == b["digests"] for a, b in zip(par, chg)),
        "metrics": {name: compare([r["metrics"][name] for r in par],
                                  [r["metrics"][name] for r in chg], direction)
                    for name, direction in better.items()},
        "setup_unscaled": {key: compare([statistics.median(r[f"raw_{key}"]) for r in par],
                                        [statistics.median(r[f"raw_{key}"]) for r in chg])
                           for key in ("setup_s", "setup_ref_import_s")},
        **{f"raw_{key}": {side: [r[f"raw_{key}"] for r in rs] for side, rs in sides.items()}
           for key in ("pass_wall_s", "setup_s", "setup_ref_import_s")},
    }


def main(argv=None) -> int:
    p = tree_parser(__doc__, change=None)
    p.add_argument("--workloads", default="fig1_sweep,sandwich,certified_start,replay_log")
    p.add_argument("--seeds", default="1-10", help="one seed per pair, e.g. 1501-1510")
    p.add_argument("--seconds", type=float, default=22)
    args = p.parse_args(argv)
    seeds = parse_seeds(args.seeds)
    if len(seeds) < 2:
        p.error("--seeds must give at least 2 pairs for quartiles")

    with open(os.path.join(args.change, "BENCHMARK.json")) as fh:
        better = {m["name"]: m["better"] for m in json.load(fh)["end_to_end"]}
    trees = {"parent": args.parent, "change": args.change}
    runs = run_pairs(len(seeds), args.workloads.split(","), trees,
                     lambda w, side, pair: bench_run(trees[side], w, seeds[pair], args.seconds))

    summary = {w: summarise_workload(sides["parent"], sides["change"], better)
               for w, sides in runs.items()}

    record = {
        "command": f"python3 bench/run_bench.py --workload <workload> --seed <seed> "
                   f"--seconds {args.seconds:g} --trace 0, in each tree",
        "host": host(),
        "parent_commit": args.parent_commit,
        "order": order("workload"),
        "seeds": seeds,
        "src_lines": {side: src_lines(tree) for side, tree in trees.items()},
        "workloads": summary,
    }
    write_json(record, args.out)
    for w, entry in summary.items():
        wall = entry["metrics"]["wall_s"]
        print(f"{w}: wall_s {wall['parent']['median']:.3f} -> {wall['change']['median']:.3f} "
              f"(change won {wall['change_wins']}), digests equal: "
              f"{entry['output_digests_equal_between_sides']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
