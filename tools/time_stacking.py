#!/usr/bin/env python3
"""Time plain sweeps with their cells stacked into shared engine calls and
with every cell alone, in alternating pairs.

Usage (from the repository root)::

    python3 tools/time_stacking.py --reps 16,64,128,256,512 --threads 1,2 \\
        --pairs 5 --out stacking.json

One timed run is one ``run_experiment`` call in a fresh Python process whose
``PYTHONPATH`` is ``src``, with ``harness.STACK_STEPS`` set to ``10**12``
(``stacked``: every group of equal policy and batch size is one call) or to
0 (``alone``: one cell per call, as before stacking), over ``--threads``
working processes; a wrapped ``harness._map`` counts the engine calls.  Its
wall time excludes imports.  Three sweeps on env1, env2 and env3 (one arm
count, so their cells stack three to a call):

* ``grid``: ucb and ts at b in {1, 10, 100} and n=2000, 18 cells in 6 stacks;
* ``grid_n250``: the same at n=250, so a cell of ``8 * reps`` reps holds as
  many rep-steps as a ``grid`` cell of ``reps``;
* ``one_group``: ucb at b=10 and n=2000, 3 cells in one stack, so with more
  than one thread the stacked run has fewer engine calls than working
  processes.

In each pair every case runs on both sides back to back; odd pairs run
``alone`` first, even pairs ``stacked`` first.  Per case the summary holds
each side's times, median and quartiles (``statistics.quantiles(values,
n=4)``), how many pairs ``stacked`` won, the ratio of the medians, each
side's peak resident set and whether both sides wrote the same results and
curves bytes.  The peak is ``VmHWM`` from ``/proc/self/status``, or
``ru_maxrss`` where that file is missing (``pairs.PEAK_MIB``): on Linux a
child's ``ru_maxrss`` starts at the peak its parent had reached.  The pair
protocol is ``tools/pairs.py``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys

from pairs import PEAK_MIB, host, run_child, run_pairs, summarise, wins, write_json

SIDES = {"alone": 0, "stacked": 10**12}
CASES = {
    "grid": {"policies": ("ucb", "ts"), "batch_sizes": (1, 10, 100), "n": 2000},
    "grid_n250": {"policies": ("ucb", "ts"), "batch_sizes": (1, 10, 100), "n": 250},
    "one_group": {"policies": ("ucb",), "batch_sizes": (10,), "n": 2000},
}

# runs in the child: time one sweep, report seconds, engine calls, peak RSS
# and a digest of both CSVs
CHILD = PEAK_MIB + """
import hashlib, json, os, sys, tempfile, time
from batchband import harness
from batchband.harness import ExperimentConfig, run_experiment
stack_steps, reps, threads, case = json.loads(sys.argv[1])
harness.STACK_STEPS = stack_steps
calls = []
_map = harness._map
harness._map = lambda fn, groups, threads: calls.append(len(groups)) or _map(fn, groups, threads)
cfg = ExperimentConfig(envs=("env1", "env2", "env3"), reps=reps, master_seed=0, **case)
t0 = time.perf_counter()
table = run_experiment(cfg, threads=threads)
wall = time.perf_counter() - t0
digest = hashlib.sha256()
with tempfile.TemporaryDirectory() as tmp:
    for name in ("results", "curves"):
        path = os.path.join(tmp, name + ".csv")
        getattr(table, "to_" + name + "_csv")(path)
        digest.update(open(path, "rb").read())
print(json.dumps({"wall_s": wall, "calls": calls[0], "peak_rss_mb": peak_mib(),
                  "digest": digest.hexdigest()}))
"""


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--reps", default="16,64,128,256,512")
    p.add_argument("--threads", default="1,2")
    p.add_argument("--pairs", type=int, default=5)
    p.add_argument("--out", required=True)
    args = p.parse_args(argv)
    if args.pairs < 2:
        p.error("--pairs must be at least 2 for quartiles")
    keys = [(case, reps, threads) for case in CASES
            for reps in map(int, args.reps.split(","))
            for threads in map(int, args.threads.split(","))]
    # the child takes [stack_steps, reps, threads, case] and runs on ./src
    runs = run_pairs(args.pairs, keys, SIDES, lambda key, side, pair: run_child(
        ".", CHILD, json.dumps([SIDES[side], *key[1:], CASES[key[0]]])))

    summary = []
    for (case, reps, threads), sides in runs.items():
        alone, stacked = ([r["wall_s"] for r in sides[s]] for s in ("alone", "stacked"))
        summary.append({
            "case": case, "reps": reps, "threads": threads,
            "engine_calls": {s: rs[0]["calls"] for s, rs in sides.items()},
            "wall_s": {"alone": summarise(alone), "stacked": summarise(stacked)},
            "stacked_wins": f"{wins(stacked, alone)}/{len(alone)}",
            "median_ratio_stacked_to_alone": statistics.median(stacked) / statistics.median(alone),
            "peak_rss_mb_median": {s: statistics.median(r["peak_rss_mb"] for r in rs)
                                   for s, rs in sides.items()},
            "same_bytes": all(a["digest"] == b["digest"]
                              for a, b in zip(sides["alone"], sides["stacked"])),
        })
    record = {
        "command": f"python3 tools/time_stacking.py --reps {args.reps} "
                   f"--threads {args.threads} --pairs {args.pairs}",
        "host": host(),
        "sweeps": {case: {"envs": ["env1", "env2", "env3"], **spec}
                   for case, spec in CASES.items()},
        "results": summary,
    }
    write_json(record, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
