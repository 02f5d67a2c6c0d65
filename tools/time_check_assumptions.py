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
and whether both trees printed the same verdict lines and exit code.  The
pair protocol is ``tools/pairs.py``.
"""

from __future__ import annotations

import os
import sys
import tempfile
import time

from pairs import compare, host, order, run_child, run_pairs, tree_parser, write_json

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
    argv = ["check-assumptions", "--env", "env6", "--policy", policy, "--out-dir", out_dir]
    t0 = time.perf_counter()
    result = run_child(tree, CHILD, *argv)
    result["process_s"] = time.perf_counter() - t0
    return result


def main(argv=None) -> int:
    p = tree_parser(__doc__)
    p.add_argument("--pairs", type=int, default=7)
    args = p.parse_args(argv)
    if args.pairs < 2:
        p.error("--pairs must be >= 2 for quartiles")

    trees = {"parent": args.parent, "change": args.change}
    with tempfile.TemporaryDirectory() as scratch:
        runs = run_pairs(args.pairs, POLICIES, trees, lambda pol, side, pair: time_call(
            trees[side], pol, os.path.join(scratch, f"{side}-{pol}-{pair}")))

    policies = {}
    for pol, sides in runs.items():
        entry = {metric: compare([r[metric] for r in sides["parent"]],
                                 [r[metric] for r in sides["change"]])
                 for metric in ("call_s", "process_s")}
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
        "host": host(),
        "parent_commit": args.parent_commit,
        "order": order("policy"),
        "pairs": args.pairs,
        "policies": policies,
    }
    write_json(summary, args.out)
    for pol, entry in policies.items():
        call = entry["call_s"]
        print(f"{pol}: call_s {call['parent']['median']:.3f} -> {call['change']['median']:.3f} "
              f"(change won {call['change_wins']}), verdicts equal: "
              f"{entry['verdicts_and_exit_equal_between_sides']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
