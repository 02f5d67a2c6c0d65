#!/usr/bin/env python3
"""Sweep ``policies._SCALAR_BETA_MAX`` over both callers of its switch.

Usage (from the repository root)::

    PYTHONPATH=src python3 tools/sweep_scalar_beta.py --rounds 5 --out sweep.json

One-rep Thompson sampling draws ``m`` steps of ``k`` arms as ``m * k``
scalar ``Generator.beta`` calls up to ``_SCALAR_BETA_MAX`` draws, else as
one array call; both draw the same variates.  Two callers take the switch:

* ``lone``: a lone ts run, ``run_batch`` on env1 (k=2) and env4 (k=4) at
  n=2000 and one integer seed, which asks for ``b`` steps per batch;
* ``replay``: ``replay_evaluate`` of ts on a 25,000-row uniform log of env1
  and of env4, which asks for one step per record while the pending batch
  lacks at most ``_SCALAR_BETA_MAX // k`` matches, else for what it lacks.

Each value of ``--values`` is set in ``policies`` and ``replay`` of this
process in turn (``10**9`` takes the scalar path always, 1 the array path
always), and every case runs once per value per round, the values in a
rotated order each round.  The summary holds, per value, each case's median
seconds over the rounds, each caller's sum of those medians, the median and
quartiles over the rounds of each caller's seconds per round, and whether
every value returned the same result as the first: the actions of a lone
run, ``(matched, successes)`` of a replay.  ``--smoke`` shrinks every size,
to check the script.
"""

from __future__ import annotations

import argparse
import statistics
import sys
import time

from pairs import host, summarise, write_json

from batchband import derive_seed, make_grid, parse_env, replay_evaluate, synth_logged_dataset
from batchband import policies, replay
from batchband.policies import ThompsonBetaPolicy
from batchband.specifications import run_batch

SIZES = {"n": 2000, "rows": 25_000, "lone_b": [1, 2, 3, 4, 6, 8, 12, 16, 32],
         "replay_b": [1, 2, 3, 4, 6, 8, 12, 16, 32, 50]}
SMOKE = {"n": 60, "rows": 300, "lone_b": [1, 4], "replay_b": [1, 7]}
ENVS = (("env1", 2), ("env4", 4))


def cases(sizes: dict, seed: int) -> dict:
    """``{label: (caller, fn)}``, each ``fn`` returning a comparable result."""
    out = {}
    for env, k in ENVS:
        for b in sizes["lone_b"]:
            grid = make_grid(sizes["n"], b)
            out[f"lone {env} b={b}"] = ("lone", lambda env=env, k=k, grid=grid: run_batch(
                ThompsonBetaPolicy(k), parse_env(env), grid, seed).actions.tolist())
    for env, k in ENVS:
        log = synth_logged_dataset(parse_env(env), sizes["rows"], derive_seed(seed, "log", env))
        for b in sizes["replay_b"]:
            out[f"replay {env} b={b}"] = ("replay", lambda log=log, k=k, b=b: (lambda r: [
                r.matched, r.successes])(replay_evaluate(ThompsonBetaPolicy(k), log, b, seed)))
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--values", default="1,2,4,6,8,12,16,24,32,64,1000000000")
    p.add_argument("--rounds", type=int, default=5)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--smoke", action="store_true", help="tiny sizes, to check the script")
    p.add_argument("--out", required=True)
    args = p.parse_args(argv)
    values = [int(v) for v in args.values.split(",")]
    sizes = SMOKE if args.smoke else SIZES
    todo = cases(sizes, args.seed)

    default = policies._SCALAR_BETA_MAX
    times = {v: {label: [] for label in todo} for v in values}
    results = {v: {} for v in values}
    try:
        for rnd in range(args.rounds):
            for v in values[rnd % len(values):] + values[: rnd % len(values)]:
                policies._SCALAR_BETA_MAX = replay._SCALAR_BETA_MAX = v
                for label, (_, fn) in todo.items():
                    t0 = time.perf_counter()
                    results[v][label] = fn()
                    times[v][label].append(time.perf_counter() - t0)
            print(f"round {rnd + 1}/{args.rounds} done", file=sys.stderr)
    finally:
        policies._SCALAR_BETA_MAX = replay._SCALAR_BETA_MAX = default

    callers = {caller: [label for label, (c, _) in todo.items() if c == caller]
               for caller in ("lone", "replay")}
    by_value = {}
    for v in values:
        medians = {label: statistics.median(ts) for label, ts in times[v].items()}
        by_value[str(v)] = {
            "caller_s": {caller: sum(medians[label] for label in labels)
                         for caller, labels in callers.items()},
            "caller_rounds_s": {caller: summarise([sum(times[v][label][r] for label in labels)
                                                   for r in range(args.rounds)])
                                for caller, labels in callers.items()},
            "case_s": medians,
        }
    record = {
        "what": "_SCALAR_BETA_MAX swept over lone ts runs and ts replay, set in-process in "
                "policies and replay; medians over rounds",
        "host": host(),
        "default": default,
        "rounds": args.rounds,
        "seed": args.seed,
        "sizes": sizes,
        "results_equal_across_values": all(results[v] == results[values[0]] for v in values),
        "best": {caller: min(by_value, key=lambda v: by_value[v]["caller_s"][caller])
                 for caller in callers},
        "by_value": by_value,
    }
    write_json(record, args.out)
    for v, entry in by_value.items():
        s = entry["caller_s"]
        print(f"{v}: lone {s['lone'] * 1e3:.1f} ms, replay {s['replay'] * 1e3:.1f} ms")
    print(f"best: {record['best']}, results equal: {record['results_equal_across_values']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
