#!/usr/bin/env python3
"""Peak RSS and wall time of long ``check-bounds``, ``check-assumptions`` and
delayed-start ``simulate`` calls on two source trees, and of the change at
swept engine chunk widths and certification budgets.

Usage (from the repository root)::

    git archive <parent-rev> | tar -x -C /tmp/parent
    python3 tools/measure_memory.py --parent /tmp/parent --change . \\
        --parent-commit <parent-rev> --pairs 3 --chunks 128,256,512,1024,2048 \\
        --out memory.json

Each case is one ``batchband.cli.main`` call in a fresh Python process whose
``PYTHONPATH`` is the side's tree's ``src``; the child records the call's
wall time, the process's peak resident set, the exit code and a hash of the
CSV the call wrote.  The peak is ``VmHWM`` from ``/proc/self/status``, or
``ru_maxrss`` where that file is missing (``pairs.PEAK_MIB``): on Linux a
child's ``ru_maxrss`` starts at the peak its parent had reached.  The cases:

* ``check-bounds ucb n=100000``: ``check-bounds --policy ucb --env env1
  --n 100000 --b 10 --reps 1000 --threads 1``;
* ``check-bounds ts n=2000``: the same for ts at n=2,000;
* ``check-assumptions n=4000``: ``check-assumptions --n 4000``, default
  flags otherwise;
* ``check-assumptions n=20000``: the same at n=20,000, on the change's
  sides only: the parent's ``(n, n)`` pair arrays alone would take
  several GB;
* ``simulate approx_delayed_start`` and ``simulate delayed_start``:
  ``simulate --env env3 --policy ucb --b 10 --threads 1 --n 20000 --reps
  256`` in that ``--mode``, one sweep cell of each delayed start;
* ``simulate <mode> b=<b> reps=1024``, run only when named in ``--cases``:
  ``simulate --env env3 --policy ucb --b <b> --threads 1 --n 2000 --reps
  1024`` for each delayed start and b in {1, 10}, where
  ``specifications.AHEAD_CELLS`` decides whether a two-phase run runs
  ahead.

The sides are the parent, the change, one side per ``--chunks`` value: the
change tree with ``specifications.CHUNK`` set to that value in the child,
which sweeps the constant, and likewise one side per ``--budgets`` value,
which sets ``meta.CHECK_PAIRS``, and per ``--ahead`` value, which sets
``specifications.AHEAD_CELLS``.  ``--cases`` runs only the named cases
(comma-separated) and ``--reps`` replaces every case's reps.  Processes
run one at a time: the parent's
``check-bounds`` at n=100,000 takes about 3.3 GB.  In each pair every case
runs on every side back to back, in the given order of sides on odd pairs
and reversed on even pairs.  The summary holds, per case and side, the
median and quartiles of seconds and of peak MiB; parent against change,
how many pairs the change won; and whether every side wrote the same CSV
bytes in every pair.  ``--smoke`` shrinks every case, to check the script.
The pair protocol is ``tools/pairs.py``.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile

from pairs import (PEAK_MIB, compare, host, run_child, run_pairs, src_lines, summarise,
                   tree_parser, write_json)

# case: (CLI arguments but --n and --reps, (n, reps), (n, reps) under
# --smoke, the CSV the call writes, whether the parent runs it)
CASES = {
    "check-bounds ucb n=100000": ("check-bounds --policy ucb --env env1 --b 10 --threads 1",
                                  (100_000, 1000), (2000, 20), "bounds.csv", True),
    "check-bounds ts n=2000": ("check-bounds --policy ts --env env1 --b 10 --threads 1",
                               (2000, 1000), (200, 20), "bounds.csv", True),
    "check-assumptions n=4000": ("check-assumptions", (4000, 100), (100, 5),
                                 "assumptions.csv", True),
    "check-assumptions n=20000": ("check-assumptions", (20_000, 100), (200, 5),
                                  "assumptions.csv", False),
    **{f"simulate {mode}": (f"simulate --env env3 --policy ucb --b 10 --threads 1 --mode {mode}",
                            (20_000, 256), (100, 2), "curves.csv", True)
       for mode in ("approx_delayed_start", "delayed_start")},
}
DEFAULT = tuple(CASES)
CASES.update({
    f"simulate {mode} b={b} reps=1024": (
        f"simulate --env env3 --policy ucb --b {b} --threads 1 --mode {mode}",
        (2000, 1024), (100, 2), "curves.csv", True)
    for mode in ("approx_delayed_start", "delayed_start") for b in (1, 10)})

# swept constants: side label prefix -> (batchband module, name)
SWEEPS = {"chunk": ("specifications", "CHUNK"), "check_pairs": ("meta", "CHECK_PAIRS"),
          "ahead_cells": ("specifications", "AHEAD_CELLS")}

# runs in the child: {"s", "peak_mib", "code", "digest"} of one CLI call
CHILD = PEAK_MIB + """
import contextlib, hashlib, importlib, io, json, os, sys, time
from batchband import cli
a = json.loads(sys.argv[1])
for module, name, value in a["set"]:
    setattr(importlib.import_module("batchband." + module), name, value)
t0 = time.perf_counter()
with contextlib.redirect_stdout(io.StringIO()):  # stdout carries the JSON
    code = cli.main(a["argv"] + ["--out-dir", a["out"]])
s = time.perf_counter() - t0
with open(os.path.join(a["out"], a["csv"]), "rb") as fh:
    digest = hashlib.sha256(fh.read()).hexdigest()
print(json.dumps({"s": s, "peak_mib": peak_mib(), "code": code, "digest": digest}))
"""


def case_argv(case: str, smoke: bool, reps: int = 0) -> list:
    args, full, small = CASES[case][:3]
    n, case_reps = small if smoke else full
    return args.split() + ["--n", str(n), "--reps", str(reps or case_reps)]


def main(argv=None) -> int:
    p = tree_parser(__doc__)
    p.add_argument("--pairs", type=int, default=3)
    p.add_argument("--chunks", default="", help="comma-separated CHUNK values to sweep")
    p.add_argument("--budgets", default="",
                   help="comma-separated meta.CHECK_PAIRS values to sweep")
    p.add_argument("--ahead", default="",
                   help="comma-separated specifications.AHEAD_CELLS values to sweep")
    p.add_argument("--cases", default=",".join(DEFAULT), help="comma-separated cases to run")
    p.add_argument("--reps", type=int, default=0, help="reps of every case, in place of its own")
    p.add_argument("--smoke", action="store_true", help="tiny cases, to check the script")
    args = p.parse_args(argv)
    if args.pairs < 2:
        p.error("--pairs must be >= 2 for quartiles")
    chosen = args.cases.split(",")
    if set(chosen) - set(CASES):
        p.error(f"unknown cases {sorted(set(chosen) - set(CASES))}")

    sides = {"parent": (args.parent, []), "change": (args.change, [])}
    for label, values in (("chunk", args.chunks), ("check_pairs", args.budgets),
                          ("ahead_cells", args.ahead)):
        sides.update({f"{label}={v}": (args.change, [[*SWEEPS[label], int(v)]])
                      for v in values.split(",") if v})
    with tempfile.TemporaryDirectory() as work:
        def run(case, side, pair):
            if side == "parent" and not CASES[case][4]:
                return None
            out = os.path.join(work, f"{side}-{pair}-{case.replace(' ', '_')}")
            tree, settings = sides[side]
            return run_child(tree, CHILD, json.dumps({
                "argv": case_argv(case, args.smoke, args.reps), "out": out,
                "csv": CASES[case][3], "set": settings}))

        runs = run_pairs(args.pairs, chosen, sides, run)

    cases = {}
    for case, by_side in runs.items():
        by_side = {side: rs for side, rs in by_side.items() if rs[0] is not None}
        results = [r for rs in by_side.values() for r in rs]
        entry = {
            "argv": case_argv(case, args.smoke, args.reps),
            "s": {side: summarise([r["s"] for r in rs]) for side, rs in by_side.items()},
            "peak_mib": {side: summarise([r["peak_mib"] for r in rs])
                         for side, rs in by_side.items()},
            "exit_codes": sorted({r["code"] for r in results}),
            "same_bytes_on_every_side": len({r["digest"] for r in results}) == 1,
        }
        if "parent" in by_side:
            entry["change_vs_parent"] = {
                metric: compare([r[metric] for r in by_side["parent"]],
                                [r[metric] for r in by_side["change"]])
                for metric in ("s", "peak_mib")}
        cases[case] = entry

    record = {
        "what": "peak RSS and wall time of long check-bounds, check-assumptions and "
                "delayed-start simulate calls, parent vs change and the change at each "
                "swept specifications.CHUNK, meta.CHECK_PAIRS and "
                "specifications.AHEAD_CELLS",
        "host": host(),
        "parent_commit": args.parent_commit,
        "order": "in each pair every case runs on every side back to back, one process at "
                 "a time; odd pairs in the order " + ", ".join(sides) + ", even pairs "
                 "reversed; the parent skips check-assumptions n=20000",
        "pairs": args.pairs,
        "src_lines": {"parent": src_lines(args.parent), "change": src_lines(args.change)},
        "cases": cases,
    }
    write_json(record, args.out)
    for case, entry in cases.items():
        line = ", ".join(f"{side} {entry['peak_mib'][side]['median']:.1f} MiB "
                         f"{entry['s'][side]['median']:.2f} s" for side in entry["s"])
        print(f"{case}: {line}; same bytes: {entry['same_bytes_on_every_side']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
