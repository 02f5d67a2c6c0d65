#!/usr/bin/env python3
"""Time and size logged-data I/O and 100k-row replays on two source trees.

Usage (from the repository root)::

    git archive <parent-rev> | tar -x -C /tmp/parent
    python3 tools/time_log_io.py --parent /tmp/parent --change . \\
        --parent-commit <parent-rev> --pairs 10 --out log_io.json

Two logs are built once, by the change tree: a 100,000-row env1 log and a
100,000-row contextual log (k=4, d=5), as the ``replay_log`` benchmark
workload builds its logs for ``--seed``.  Per log there are three cases,
each one fresh Python process per side whose ``PYTHONPATH`` is the side's
tree's ``src``:

* ``write``: ``synth_logged_dataset`` and ``write_logged_csv`` of the log,
  timing the write and hashing the file written;
* ``read``: ``read_logged_csv`` of the log, timed and hashing the columns
  read;
* ``replay``: ``batchband replay`` of the log, with the policies and batch
  sizes of the workload (ucb, ts and uniform, or linucb and lints, at b in
  {1, 50}), timed and hashing ``replay.csv``.

Every case records the process's peak resident set: ``VmHWM`` from
``/proc/self/status``, or ``ru_maxrss`` where that file is missing
(``pairs.PEAK_MIB``), since on Linux a child's ``ru_maxrss`` starts at the
peak its parent had reached.  In each pair every case runs on both sides
back to back, the parent first on odd pairs and the change first on even
pairs.  The summary holds, per case and side, the median and quartiles of
seconds and of peak MiB; parent against change, how many pairs the change
won; and whether both sides wrote the same log, read the same columns and
wrote the same ``replay.csv`` in every pair.
``--smoke`` shrinks the logs, to check the script.  The pair protocol is
``tools/pairs.py``.
"""

from __future__ import annotations

import json
import sys
import tempfile

from pairs import (PEAK_MIB, compare, host, order, run_child, run_pairs, src_lines,
                   summarise, tree_parser, write_json)

ROWS, SMOKE_ROWS = 100_000, 300
POLICIES = {"env1": "ucb,ts,uniform", "linear": "linucb,lints"}
CASES = tuple(f"{what} {log}" for log in POLICIES for what in ("write", "read", "replay"))

# runs in the child: {"s": seconds, "peak_mib": peak RSS, "digest": sha256}
# of one case; a write case writes to ``dest`` in ``work``
CHILD = PEAK_MIB + """
import contextlib, hashlib, io, json, os, sys, time
from batchband import (cli, derive_seed, make_linear_env, parse_env, read_logged_csv,
                       synth_logged_dataset, write_logged_csv)
a = json.loads(sys.argv[1])
what, log = a["case"].split()
path = os.path.join(a["work"], f"log_{log}.csv")
def sha(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()
if what == "write":
    seed = a["seed"]
    env = (parse_env("env1") if log == "env1"
           else make_linear_env(4, 5, seed=derive_seed(seed, "theta")))
    data = synth_logged_dataset(env, a["rows"], seed=derive_seed(seed, "log", log))
    path = os.path.join(a["work"], a["dest"])
    t0 = time.perf_counter()
    write_logged_csv(data, path)
    s = time.perf_counter() - t0
    digest = sha(path)
elif what == "read":
    t0 = time.perf_counter()
    data = read_logged_csv(path)
    s = time.perf_counter() - t0
    digest = hashlib.sha256(b"".join(getattr(data, name).tobytes() for name in
                                     ("contexts", "actions", "rewards", "probs"))).hexdigest()
else:
    out = os.path.join(a["work"], "out")
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()):  # stdout carries the JSON
        code = cli.main(["replay", "--data", path, "--policy", a["policies"], "--b", "1,50",
                         "--seed", str(a["seed"]), "--out-dir", out])
    s = time.perf_counter() - t0
    if code != 0:
        sys.exit(f"replay exited {code}")
    digest = sha(os.path.join(out, "replay.csv"))
print(json.dumps({"s": s, "peak_mib": peak_mib(), "digest": digest}))
"""


def main(argv=None) -> int:
    p = tree_parser(__doc__)
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--smoke", action="store_true", help="tiny logs, to check the script")
    args = p.parse_args(argv)
    if args.pairs < 2:
        p.error("--pairs must be >= 2 for quartiles")

    rows = SMOKE_ROWS if args.smoke else ROWS
    sides = {"parent": args.parent, "change": args.change}
    with tempfile.TemporaryDirectory() as work:
        def child(tree, case, dest="written.csv"):
            return run_child(tree, CHILD, json.dumps({
                "case": case, "work": work, "seed": args.seed, "rows": rows,
                "dest": dest, "policies": POLICIES[case.split()[1]]}))

        for log in POLICIES:  # the logs that both sides read
            child(args.change, f"write {log}", dest=f"log_{log}.csv")
        runs = run_pairs(args.pairs, CASES, sides,
                         lambda case, side, pair: child(sides[side], case))

    cases = {}
    for case, by_side in runs.items():
        digests = {r["digest"] for results in by_side.values() for r in results}
        cases[case] = {
            "s": {side: summarise([r["s"] for r in rs]) for side, rs in by_side.items()},
            "peak_mib": {side: summarise([r["peak_mib"] for r in rs])
                         for side, rs in by_side.items()},
            "change_vs_parent": {
                metric: compare([r[metric] for r in by_side["parent"]],
                                [r[metric] for r in by_side["change"]])
                for metric in ("s", "peak_mib")},
            "same_bytes_on_every_side": len(digests) == 1,
        }

    record = {
        "what": "write, read and batchband replay of 100k-row env1 and contextual logs, "
                "parent vs change",
        "host": host(),
        "parent_commit": args.parent_commit,
        "order": order("case"),
        "pairs": args.pairs,
        "seed": args.seed,
        "rows": rows,
        "src_lines": {"parent": src_lines(args.parent), "change": src_lines(args.change)},
        "cases": cases,
    }
    write_json(record, args.out)
    for case, entry in cases.items():
        line = ", ".join(f"{side} {entry['peak_mib'][side]['median']:.1f} MiB "
                         f"{entry['s'][side]['median'] * 1e3:.0f} ms" for side in sides)
        print(f"{case}: {line}; same bytes: {entry['same_bytes_on_every_side']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
