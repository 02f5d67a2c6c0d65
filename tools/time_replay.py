#!/usr/bin/env python3
"""Time replay and lone runs on two source trees in alternating pairs.

Usage (from the repository root)::

    git archive <parent-rev> | tar -x -C /tmp/parent
    python3 tools/time_replay.py --parent /tmp/parent --change . \\
        --parent-commit <parent-rev> --pairs 10 --out replay_pairs.json

Three cases, each one fresh Python process per tree whose ``PYTHONPATH`` is
the tree's ``src``; the timed calls exclude imports and set-up:

* ``replay``: ``replay_evaluate`` of every (policy, b) of the benchmark's
  ``replay_log`` workload, each timed alone: ucb, ts and uniform on a
  25,000-row env1 log, linucb and lints on a 5,000-row contextual log
  (k=4, d=5), at b in {1, 50}, with the logs built as that workload builds
  them for ``--seed``; and ts on a 25,000-row env4 log (k=4) at b in
  {1, 7, 50}, on both sides of its switch from one proposal per record to
  one array call per batch;
* ``lone``: one lone ucb run and one lone ts run, ``run_online`` on env1 at
  n=2000 with an integer seed;
* ``criterion4``: 200 lone ucb runs on env3 at n=10,000, the batch of
  ``tests/test_acceptance.py::test_criterion_4_suboptimal_count_bound``;
* ``linear``: one lockstep ``run_batch`` of 100 reps of linucb and of lints
  on ``make_linear_env(4, 5, 0)`` at n=1000, at b in {1, 10}.

Each lone run, and the first replay, follows one untimed warm-up call on
other inputs, so that first-call costs stay out of the times.  In each
pair every case runs on both trees back to back; odd pairs run the
parent first, even pairs the change first.  Per timed call the summary holds
each side's seconds, median and quartiles (``statistics.quantiles(values,
n=4)``), how many pairs the change won and the relative change of the
medians, and whether both trees returned the same result in every pair:
``(matched, successes)`` for a replay, the actions for a lone run, the
suboptimal pull counts for criterion 4, and a digest of the actions and
pseudo-regrets for a linear run.  ``--smoke`` shrinks every size, to
check the script.  The pair protocol is ``tools/pairs.py``.
"""

from __future__ import annotations

import json
import sys

from pairs import compare, host, order, run_child, run_pairs, src_lines, tree_parser, write_json

SIZES = {"rows": 25_000, "ctx_rows": 5_000, "n": 2_000, "c4_runs": 200, "c4_n": 10_000,
         "lin_reps": 100, "lin_n": 1_000}
SMOKE = {"rows": 300, "ctx_rows": 200, "n": 50, "c4_runs": 2, "c4_n": 100,
         "lin_reps": 3, "lin_n": 40}
CASES = ("replay", "lone", "criterion4", "linear")

# runs in the child: {label: {"s": seconds, "result": ...}} for one case
CHILD = """
import hashlib, json, sys, time
from batchband import (LinTsPolicy, LinUcbPolicy, ThompsonBetaPolicy, UcbPolicy, derive_seed,
                       make_grid, make_linear_env, make_policy, parse_env, preset,
                       replay_evaluate, run_batch, run_online, synth_logged_dataset)
case, seed, sizes = sys.argv[1], int(sys.argv[2]), json.loads(sys.argv[3])
out = {}
def timed(label, fn):
    t0 = time.perf_counter()
    result = fn()
    out[label] = {"s": time.perf_counter() - t0, "result": result}
if case == "replay":
    finite = synth_logged_dataset(parse_env("env1"), sizes["rows"],
                                  seed=derive_seed(seed, "log", "env1"))
    linear = make_linear_env(4, 5, seed=derive_seed(seed, "theta"))
    ctx = synth_logged_dataset(linear, sizes["ctx_rows"], seed=derive_seed(seed, "log", "linear"))
    replay_evaluate(make_policy("ucb", 2), finite, 1, 0)  # warm-up, untimed
    for names, data, k, p in ((("ucb", "ts", "uniform"), finite, 2, None),
                              (("linucb", "lints"), ctx, 4, 5)):
        for name in names:
            for b in (1, 50):
                policy = make_policy(name, k, p)
                rseed = derive_seed(seed, "replay", name, b)
                timed(f"{name} b={b}", lambda: (lambda r: [r.matched, r.successes])(
                    replay_evaluate(policy, data, b, rseed)))
    four = synth_logged_dataset(parse_env("env4"), sizes["rows"],
                                seed=derive_seed(seed, "log", "env4"))
    for b in (1, 7, 50):
        rseed = derive_seed(seed, "replay", "ts", "env4", b)
        timed(f"ts env4 b={b}", lambda: (lambda r: [r.matched, r.successes])(
            replay_evaluate(make_policy("ts", 4), four, b, rseed)))
elif case == "lone":
    for policy in (UcbPolicy(2), ThompsonBetaPolicy(2)):
        run_online(policy, preset("env1"), sizes["n"], seed + 1)  # warm-up, untimed
        timed(f"lone {policy.name} n={sizes['n']}",
              lambda: run_online(policy, preset("env1"), sizes["n"], seed).actions.tolist())
elif case == "linear":
    env, n = make_linear_env(4, 5, 0), sizes["lin_n"]
    seeds = [derive_seed(seed, "linear", i) for i in range(sizes["lin_reps"])]
    run_batch(LinUcbPolicy(4, 5), env, make_grid(20, 1), seeds[:2])  # warm-up, untimed
    for policy in (LinUcbPolicy(4, 5), LinTsPolicy(4, 5)):
        for b in (1, 10):
            timed(f"linear {policy.name} b={b}", lambda: (lambda run: hashlib.sha256(
                run.actions.tobytes() + run.pseudo_regret.tobytes()).hexdigest())(
                run_batch(policy, env, make_grid(n, b), seeds)))
else:
    n, env = sizes["c4_n"], preset("env3")
    timed(f"criterion4 {sizes['c4_runs']} runs n={n}", lambda: [
        n - run_online(UcbPolicy(2), env, n, derive_seed(44, "c4", i)).optimal_pulls
        for i in range(sizes["c4_runs"])])
print(json.dumps(out))
"""


def main(argv=None) -> int:
    p = tree_parser(__doc__)
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--smoke", action="store_true", help="tiny sizes, to check the script")
    args = p.parse_args(argv)
    if args.pairs < 2:
        p.error("--pairs must be >= 2 for quartiles")

    sizes = SMOKE if args.smoke else SIZES
    trees = {"parent": args.parent, "change": args.change}
    runs = run_pairs(args.pairs, CASES, trees, lambda case, side, pair: run_child(
        trees[side], CHILD, case, str(args.seed), json.dumps(sizes)))

    calls = {}
    for sides in runs.values():
        par, chg = sides["parent"], sides["change"]
        for label in par[0]:
            calls[label] = {
                "s": compare([r[label]["s"] for r in par], [r[label]["s"] for r in chg]),
                "results_equal_between_sides": all(
                    a[label]["result"] == b[label]["result"] for a, b in zip(par, chg)),
            }

    record = {
        "what": "replay_evaluate per (policy, b) on the replay_log workload's logs and of ts "
                "on an env4 log, lone ucb and ts runs, a criterion-4 batch of lone ucb "
                "runs and lockstep linucb and lints runs, parent vs change",
        "host": host(),
        "parent_commit": args.parent_commit,
        "order": order("case"),
        "pairs": args.pairs,
        "seed": args.seed,
        "sizes": sizes,
        "src_lines": {side: src_lines(tree) for side, tree in trees.items()},
        "calls": calls,
    }
    write_json(record, args.out)
    for label, entry in calls.items():
        s = entry["s"]
        print(f"{label}: {s['parent']['median'] * 1e3:.1f} -> {s['change']['median'] * 1e3:.1f} ms "
              f"(change won {s['change_wins']}), results equal: "
              f"{entry['results_equal_between_sides']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
