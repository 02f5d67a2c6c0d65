#!/usr/bin/env python3
"""Time ``check-assumptions`` on two source trees in alternating pairs.

Usage (from the repository root)::

    git archive <parent-rev> | tar -x -C /tmp/parent
    python3 tools/time_check_assumptions.py --parent /tmp/parent --change . \\
        --parent-commit <parent-rev> --pairs 7 --out BENCH_14.json

Each timed call is ``check-assumptions --env env6 --policy <policy>`` at
default flags, run by ``batchband.cli.main`` in a fresh Python process
whose ``PYTHONPATH`` is the tree's ``src``.  The call's own wall time
(``call_s``, imports excluded) and the process's (``process_s``) are both
recorded.  In each pair every policy runs on both trees back to back; odd
pairs run the parent first, even pairs the change first.  The summary per
policy holds every value, the median and quartiles
(``statistics.quantiles(values, n=4)``), how many pairs the change won,
and whether both trees printed the same verdict lines and exit code.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time

import numpy as np

POLICIES = ("ucb", "ts", "uniform", "two_phase")

# runs in the child: time one CLI call, report (seconds, exit code, verdict lines)
CHILD = """
import contextlib, io, json, sys, time
from batchband.cli import main
out = io.StringIO()
t0 = time.perf_counter()
with contextlib.redirect_stdout(out):
    code = main(sys.argv[1:])
elapsed = time.perf_counter() - t0
lines = [x for x in out.getvalue().splitlines() if "[gated]" in x or "[advisory]" in x]
print(json.dumps({"call_s": elapsed, "code": code, "verdicts": lines}))
"""


def time_call(tree: str, policy: str, out_dir: str) -> dict:
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"))
    argv = ["check-assumptions", "--env", "env6", "--policy", policy, "--out-dir", out_dir]
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", CHILD, *argv], env=env,
                          capture_output=True, text=True, check=True)
    result = json.loads(proc.stdout)
    result["process_s"] = time.perf_counter() - t0
    return result


def summarise(values: list) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "values": values}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--parent", required=True, help="source tree of the parent commit")
    p.add_argument("--change", default=".", help="source tree of the change")
    p.add_argument("--parent-commit", default="", help="recorded as given")
    p.add_argument("--pairs", type=int, default=7)
    p.add_argument("--out", required=True)
    args = p.parse_args(argv)
    if args.pairs < 2:
        p.error("--pairs must be >= 2 for quartiles")

    trees = {"parent": args.parent, "change": args.change}
    runs = {pol: {side: [] for side in trees} for pol in POLICIES}
    with tempfile.TemporaryDirectory() as scratch:
        for pair in range(args.pairs):
            order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
            for pol in POLICIES:
                for side in order:
                    out_dir = os.path.join(scratch, f"{side}-{pol}-{pair}")
                    runs[pol][side].append(time_call(trees[side], pol, out_dir))
            print(f"pair {pair + 1}/{args.pairs} done", file=sys.stderr)

    policies = {}
    for pol, sides in runs.items():
        entry = {}
        for metric in ("call_s", "process_s"):
            par = [r[metric] for r in sides["parent"]]
            chg = [r[metric] for r in sides["change"]]
            entry[metric] = {
                "parent": summarise(par),
                "change": summarise(chg),
                "change_wins": f"{sum(c < q for c, q in zip(chg, par))}/{len(par)}",
                "median_change_frac": statistics.median(chg) / statistics.median(par) - 1,
            }
        first = sides["parent"][0]
        entry["exit_code"] = first["code"]
        entry["verdicts"] = first["verdicts"]
        entry["verdicts_and_exit_equal_between_sides"] = all(
            (r["code"], r["verdicts"]) == (first["code"], first["verdicts"])
            for side in sides.values() for r in side
        )
        policies[pol] = entry

    summary = {
        "what": "check-assumptions --env env6 at default flags, parent vs change",
        "host": f"{os.cpu_count()} CPUs, Python {platform.python_version()}, "
                f"numpy {np.__version__}",
        "parent_commit": args.parent_commit,
        "order": "in each pair every policy runs on both trees back to back; "
                 "odd pairs run the parent first, even pairs the change first",
        "pairs": args.pairs,
        "policies": policies,
    }
    with open(args.out, "w") as fh:
        json.dump(summary, fh, indent=1)
        fh.write("\n")
    for pol, entry in policies.items():
        call = entry["call_s"]
        print(f"{pol}: call_s {call['parent']['median']:.3f} -> {call['change']['median']:.3f} "
              f"(change won {call['change_wins']}), verdicts equal: "
              f"{entry['verdicts_and_exit_equal_between_sides']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
