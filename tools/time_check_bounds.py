#!/usr/bin/env python3
"""Time a grid of ``check_theorem_bounds`` calls on two source trees in
alternating pairs.

Usage (from the repository root)::

    git archive <parent-rev> | tar -x -C /tmp/parent
    python3 tools/time_check_bounds.py --parent /tmp/parent --change . \\
        --parent-commit <parent-rev> --pairs 3 --out bounds_grid.json

One timed run is six ``check_theorem_bounds(policy, "env1", n=2000, b=b,
reps=1000, master_seed=0, threads=1)`` calls, b in {2, 4, 8, 16, 32, 64},
in a fresh Python process whose ``PYTHONPATH`` is the tree's ``src``; the
calls' summed wall time (imports excluded) is ``grid_s``.  ``--smoke`` runs
two calls, b in {2, 4}, at n=50 and 4 reps, to check the script.  In each pair
every policy runs on both trees back to back; odd pairs run the parent
first, even pairs the change first.  The summary per policy holds every
value, the median and quartiles (``statistics.quantiles(values, n=4)``),
how many pairs the change won, each side's verdicts per b, and whether the
two trees agree bit for bit on the online and batch means.  The pair
protocol is ``tools/pairs.py``.
"""

from __future__ import annotations

import json
import sys

from pairs import compare, host, order, run_child, run_pairs, tree_parser, write_json

POLICIES = ("ucb", "ts")
SIZES = {"n": 2000, "reps": 1000, "batch_sizes": [2, 4, 8, 16, 32, 64]}
SMOKE = {"n": 50, "reps": 4, "batch_sizes": [2, 4]}

# runs in the child: time the calls, report per-b seconds, verdicts and means
CHILD = """
import json, sys, time
from batchband.harness import check_theorem_bounds
sizes = json.loads(sys.argv[2])
out = []
for b in sizes["batch_sizes"]:
    t0 = time.perf_counter()
    r = check_theorem_bounds(sys.argv[1], "env1", n=sizes["n"], b=b, reps=sizes["reps"],
                             master_seed=0, threads=1)
    out.append({"b": b, "s": time.perf_counter() - t0,
                "verdicts": [iq.verdict for iq in r.inequalities],
                "means": [r.mean_online, r.mean_batch, r.mean_m]})
print(json.dumps(out))
"""


def main(argv=None) -> int:
    p = tree_parser(__doc__)
    p.add_argument("--pairs", type=int, default=3)
    p.add_argument("--smoke", action="store_true", help="tiny sizes, to check the script")
    args = p.parse_args(argv)
    sizes = SMOKE if args.smoke else SIZES
    if args.pairs < 2:
        p.error("--pairs must be >= 2 for quartiles")

    trees = {"parent": args.parent, "change": args.change}
    runs = run_pairs(args.pairs, POLICIES, trees,
                     lambda pol, side, pair: run_child(trees[side], CHILD, pol,
                                                       json.dumps(sizes)))

    policies = {}
    for pol, sides in runs.items():
        grid_s = {side: [sum(c["s"] for c in run) for run in rs] for side, rs in sides.items()}
        first = {side: rs[0] for side, rs in sides.items()}
        policies[pol] = {
            "grid_s": compare(grid_s["parent"], grid_s["change"]),
            "verdicts": {side: {c["b"]: c["verdicts"] for c in run} for side, run in first.items()},
            "online_and_batch_means_equal_between_sides": all(
                [c["means"][:2] for c in run] == [c["means"][:2] for c in first["parent"]]
                for rs in sides.values() for run in rs
            ),
        }

    summary = {
        "what": f"check_theorem_bounds calls on env1, b in {sizes['batch_sizes']}, "
                f"n={sizes['n']}, reps={sizes['reps']}, threads=1, parent vs change",
        "host": host(),
        "parent_commit": args.parent_commit,
        "order": order("policy"),
        "pairs": args.pairs,
        "policies": policies,
    }
    write_json(summary, args.out)
    for pol, entry in policies.items():
        g = entry["grid_s"]
        print(f"{pol}: grid_s {g['parent']['median']:.2f} -> {g['change']['median']:.2f} "
              f"(change won {g['change_wins']}), online and batch means equal: "
              f"{entry['online_and_batch_means_equal_between_sides']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
