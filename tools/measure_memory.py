#!/usr/bin/env python3
"""Peak RSS and wall time of long ``check-bounds``, ``check-assumptions`` and
delayed-start ``simulate`` calls on two source trees.

Usage (from the repository root)::

    git archive <parent-rev> | tar -x -C /tmp/parent
    python3 tools/measure_memory.py --parent /tmp/parent --change . \\
        --parent-commit <parent-rev> --pairs 3 --out memory.json

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
* ``check-assumptions n=20000``: the same at n=20,000;
* ``simulate approx_delayed_start`` and ``simulate delayed_start``:
  ``simulate --env env3 --policy ucb --b 10 --threads 1 --n 20000 --reps
  256`` in that ``--mode``, one sweep cell of each delayed start.

``--cases`` runs only the named cases (comma-separated) and ``--reps``
replaces every case's reps.  Processes run one at a time: the parent's
``check-bounds`` at n=100,000 takes about 3.3 GB.  In each pair every case
runs on both sides back to back, the parent first on odd pairs and the
change first on even pairs.  The summary holds, per case and side, the
median and quartiles of seconds and of peak MiB; parent against change,
how many pairs the change won; and whether both sides wrote the same CSV
bytes in every pair.  ``--smoke`` shrinks every case, to check the script.
The pair protocol is ``tools/pairs.py``.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile

from pairs import (PEAK_MIB, compare, host, order, run_child, run_pairs, src_lines,
                   summarise, tree_parser, write_json)

# case: (CLI arguments but --n and --reps, (n, reps), (n, reps) under
# --smoke, the CSV the call writes)
CASES = {
    "check-bounds ucb n=100000": ("check-bounds --policy ucb --env env1 --b 10 --threads 1",
                                  (100_000, 1000), (2000, 20), "bounds.csv"),
    "check-bounds ts n=2000": ("check-bounds --policy ts --env env1 --b 10 --threads 1",
                               (2000, 1000), (200, 20), "bounds.csv"),
    "check-assumptions n=4000": ("check-assumptions", (4000, 100), (100, 5), "assumptions.csv"),
    "check-assumptions n=20000": ("check-assumptions", (20_000, 100), (200, 5),
                                  "assumptions.csv"),
    **{f"simulate {mode}": (f"simulate --env env3 --policy ucb --b 10 --threads 1 --mode {mode}",
                            (20_000, 256), (100, 2), "curves.csv")
       for mode in ("approx_delayed_start", "delayed_start")},
}

# runs in the child: {"s", "peak_mib", "code", "digest"} of one CLI call
CHILD = PEAK_MIB + """
import contextlib, hashlib, io, json, os, sys, time
from batchband import cli
a = json.loads(sys.argv[1])
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
    p.add_argument("--cases", default=",".join(CASES), help="comma-separated cases to run")
    p.add_argument("--reps", type=int, default=0, help="reps of every case, in place of its own")
    p.add_argument("--smoke", action="store_true", help="tiny cases, to check the script")
    args = p.parse_args(argv)
    if args.pairs < 2:
        p.error("--pairs must be >= 2 for quartiles")
    chosen = args.cases.split(",")
    if set(chosen) - set(CASES):
        p.error(f"unknown cases {sorted(set(chosen) - set(CASES))}")

    sides = {"parent": args.parent, "change": args.change}
    with tempfile.TemporaryDirectory() as work:
        def run(case, side, pair):
            out = os.path.join(work, f"{side}-{pair}-{case.replace(' ', '_')}")
            return run_child(sides[side], CHILD, json.dumps({
                "argv": case_argv(case, args.smoke, args.reps), "out": out,
                "csv": CASES[case][3]}))

        runs = run_pairs(args.pairs, chosen, sides, run)

    cases = {}
    for case, by_side in runs.items():
        results = [r for rs in by_side.values() for r in rs]
        cases[case] = {
            "argv": case_argv(case, args.smoke, args.reps),
            "s": {side: summarise([r["s"] for r in rs]) for side, rs in by_side.items()},
            "peak_mib": {side: summarise([r["peak_mib"] for r in rs])
                         for side, rs in by_side.items()},
            "exit_codes": sorted({r["code"] for r in results}),
            "same_bytes_on_every_side": len({r["digest"] for r in results}) == 1,
            "change_vs_parent": {
                metric: compare([r[metric] for r in by_side["parent"]],
                                [r[metric] for r in by_side["change"]])
                for metric in ("s", "peak_mib")},
        }

    record = {
        "what": "peak RSS and wall time of long check-bounds, check-assumptions and "
                "delayed-start simulate calls, parent vs change",
        "host": host(),
        "parent_commit": args.parent_commit,
        "order": order("case") + "; one process at a time",
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
