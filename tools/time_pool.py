#!/usr/bin/env python3
"""Time the Figure-1 grid over several working processes on two source
trees in alternating pairs, with the time at which each process finishes
its last cell.

Usage (from the repository root)::

    git archive <parent-rev> | tar -x -C /tmp/parent
    python3 tools/time_pool.py --parent /tmp/parent --change . \\
        --parent-commit <parent-rev> --pairs 5 --out pool.json

One timed run is one ``run_experiment`` call in a fresh Python process whose
``PYTHONPATH`` is the tree's ``src``: envs env1-env6, ucb and ts, b in {1,
2, 4, 8, 16, 32, 64}, ``--n`` steps (2000) and ``--reps`` reps (500, both
``simulate``'s defaults), over ``--threads`` working processes.  A wrapped
``harness._run_cell`` appends, in whichever process runs a group of cells
(one engine call), that process's id, the group's end time and its number
of cells to a log.  Per run the script records the wall time of the call
(imports excluded), and for the caller and for each other process the cells
it ran and when, after the call started, its last group ended: a process
that ends early idled while another finished.
Per side the summary holds the medians and quartiles of the wall time and of
the caller's and the last worker's end times, and whether both trees wrote
the same results and curves bytes.  The pair protocol is ``tools/pairs.py``.
"""

from __future__ import annotations

import json
import sys

from pairs import compare, host, order, run_child, run_pairs, tree_parser, write_json

# runs in the child: time one sweep and report when each process ended
CHILD = """
import hashlib, json, os, sys, tempfile, time
from batchband import harness
from batchband.harness import ExperimentConfig, run_experiment
n, reps, threads = json.loads(sys.argv[1])
run_cell = harness._run_cell
with tempfile.TemporaryDirectory() as tmp:
    log = os.path.join(tmp, "cells.log")

    def timed(group):
        out = run_cell(group)
        with open(log, "a") as fh:
            fh.write(f"{os.getpid()} {time.monotonic()} {len(group[-1])}\\n")
        return out

    harness._run_cell = timed
    cfg = ExperimentConfig(envs=tuple(f"env{i}" for i in range(1, 7)), policies=("ucb", "ts"),
                           n=n, batch_sizes=(1, 2, 4, 8, 16, 32, 64), reps=reps,
                           master_seed=0)
    t0 = time.monotonic()
    table = run_experiment(cfg, threads=threads)
    wall = time.monotonic() - t0
    ends = {}
    for line in open(log):
        pid, t, cells = line.split()
        ends.setdefault(int(pid), []).append((float(t) - t0, int(cells)))
    digest = hashlib.sha256()
    for name in ("results", "curves"):
        path = os.path.join(tmp, name + ".csv")
        getattr(table, "to_" + name + "_csv")(path)
        digest.update(open(path, "rb").read())
caller = ends.pop(os.getpid(), [])
workers = sorted(ends.values(), key=max)
print(json.dumps({
    "wall_s": wall,
    "caller": {"cells": sum(c for _, c in caller), "end_s": max(caller, default=(0.0,))[0]},
    "workers": [{"cells": sum(c for _, c in w), "end_s": max(w)[0]} for w in workers],
    "digest": digest.hexdigest(),
}))
"""


def main(argv=None) -> int:
    p = tree_parser(__doc__)
    p.add_argument("--n", type=int, default=2000)
    p.add_argument("--reps", type=int, default=500)
    p.add_argument("--threads", type=int, default=2)
    p.add_argument("--pairs", type=int, default=5)
    args = p.parse_args(argv)
    if args.pairs < 2:
        p.error("--pairs must be at least 2 for quartiles")
    trees = {"parent": args.parent, "change": args.change}
    runs = run_pairs(args.pairs, ["grid"], trees, lambda case, side, pair: run_child(
        trees[side], CHILD, json.dumps([args.n, args.reps, args.threads])))["grid"]
    metrics = {
        "wall_s": lambda r: r["wall_s"],
        "caller_end_s": lambda r: r["caller"]["end_s"],
        "last_worker_end_s": lambda r: max((w["end_s"] for w in r["workers"]), default=0.0),
        "caller_idle_s": lambda r: r["wall_s"] - r["caller"]["end_s"],
    }
    record = {
        "command": f"python3 tools/time_pool.py --n {args.n} --reps {args.reps} "
                   f"--threads {args.threads} --pairs {args.pairs}",
        "host": host(),
        "parent_commit": args.parent_commit,
        "order": order("run"),
        "summary": {name: compare([get(r) for r in runs["parent"]],
                                  [get(r) for r in runs["change"]])
                    for name, get in metrics.items()},
        "same_bytes": all(a["digest"] == b["digest"]
                          for a, b in zip(runs["parent"], runs["change"])),
        "runs": runs,
    }
    write_json(record, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
