#!/usr/bin/env python3
"""Sweep ``replay._SCALAR_BETA_MAX`` over ts replay, the caller of its switch.

Usage (from the repository root)::

    PYTHONPATH=src python3 tools/sweep_scalar_beta.py --rounds 5 --out sweep.json

``replay_evaluate`` of ts on a 25,000-row uniform log of env1 (k=2) and of
env4 (k=4) takes the switch: while the pending batch lacks at most
``_SCALAR_BETA_MAX // k`` matches, each record draws its ``k`` variates as
scalar ``Generator.beta`` calls, else one array call draws them for as
many records as the batch lacks; both draw the same variates.

Each value of ``--values`` is set in ``replay`` of this process in turn
(``10**9`` takes the scalar path always, 1 the array path always), and
every case runs once per value per round, the values in a rotated order
each round.  The summary holds, per value, each case's median
seconds over the rounds, the sum of those medians, the median and
quartiles over the rounds of the seconds per round, and whether every
value returned the same result as the first, ``(matched, successes)``.
``--smoke`` shrinks every size, to check the script.
"""

from __future__ import annotations

import argparse
import statistics
import sys
import time

from pairs import host, summarise, write_json

from batchband import derive_seed, parse_env, replay_evaluate, synth_logged_dataset
from batchband import replay
from batchband.policies import ThompsonBetaPolicy

SIZES = {"rows": 25_000, "replay_b": [1, 2, 3, 4, 6, 8, 12, 16, 32, 50]}
SMOKE = {"rows": 300, "replay_b": [1, 7]}
ENVS = (("env1", 2), ("env4", 4))


def cases(sizes: dict, seed: int) -> dict:
    """``{label: fn}``, each ``fn`` returning a comparable result."""
    out = {}
    for env, k in ENVS:
        log = synth_logged_dataset(parse_env(env), sizes["rows"], derive_seed(seed, "log", env))
        for b in sizes["replay_b"]:
            out[f"replay {env} b={b}"] = lambda log=log, k=k, b=b: (lambda r: [
                r.matched, r.successes])(replay_evaluate(ThompsonBetaPolicy(k), log, b, seed))
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

    default = replay._SCALAR_BETA_MAX
    times = {v: {label: [] for label in todo} for v in values}
    results = {v: {} for v in values}
    try:
        for rnd in range(args.rounds):
            for v in values[rnd % len(values):] + values[: rnd % len(values)]:
                replay._SCALAR_BETA_MAX = v
                for label, fn in todo.items():
                    t0 = time.perf_counter()
                    results[v][label] = fn()
                    times[v][label].append(time.perf_counter() - t0)
            print(f"round {rnd + 1}/{args.rounds} done", file=sys.stderr)
    finally:
        replay._SCALAR_BETA_MAX = default

    # keyed by caller, as in BENCH_22.json, so the two sweeps compare
    by_value = {}
    for v in values:
        medians = {label: statistics.median(ts) for label, ts in times[v].items()}
        by_value[str(v)] = {
            "caller_s": {"replay": sum(medians.values())},
            "caller_rounds_s": {"replay": summarise([sum(ts[r] for ts in times[v].values())
                                                     for r in range(args.rounds)])},
            "case_s": medians,
        }
    record = {
        "what": "_SCALAR_BETA_MAX swept over ts replay, set in-process in replay; "
                "medians over rounds",
        "host": host(),
        "default": default,
        "rounds": args.rounds,
        "seed": args.seed,
        "sizes": sizes,
        "results_equal_across_values": all(results[v] == results[values[0]] for v in values),
        "best": {"replay": min(by_value, key=lambda v: by_value[v]["caller_s"]["replay"])},
        "by_value": by_value,
    }
    write_json(record, args.out)
    for v, entry in by_value.items():
        s = entry["caller_s"]
        print(f"{v}: replay {s['replay'] * 1e3:.1f} ms")
    print(f"best: {record['best']}, results equal: {record['results_equal_across_values']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
