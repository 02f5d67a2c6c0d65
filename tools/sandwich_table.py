#!/usr/bin/env python3
"""Write the regret sandwich of every row of the Figure-1 grid as JSON.

Usage (from the repository root)::

    PYTHONPATH=src python3 tools/sandwich_table.py --seed 2026 --reps 500 \\
        --n 2000 --out sandwich.json

One ``run_experiment`` call runs the grid, envs env1-env6, ucb and ts, b in
{1, 2, 4, 8, 16, 32, 64}, over ``--n`` steps and ``--reps`` reps at master
seed ``--seed``, and ``bound_reports`` reads the sandwich
``R_n(online) <= R_n(b) <= b * R_M(online)`` off it.  There is one row per
(env, policy, b >= 2), 72 in all, in the table's order.  Each row holds the
cell's truncated horizon ``n`` and ``M = n // b``.  For each inequality it
holds lhs, rhs, stderr, ``z = (rhs - lhs) / stderr`` and the verdict.  It
also holds two ratios to ``R_n(online)``: the bound's ``b * R_M / R_n``
and the batch run's ``R_n(b) / R_n``.  A ``z`` or a ratio whose
denominator is 0 is null.
"""

from __future__ import annotations

import argparse
import sys

from pairs import host, write_json

from batchband import ExperimentConfig, bound_reports, run_experiment

FIG1 = {"envs": tuple(f"env{i}" for i in range(1, 7)), "policies": ("ucb", "ts"),
        "batch_sizes": (1, 2, 4, 8, 16, 32, 64)}


def grid(n: int, reps: int, seed: int) -> ExperimentConfig:
    return ExperimentConfig(n=n, reps=reps, master_seed=seed, **FIG1)


def ratio(x: float, y: float) -> float | None:
    return x / y if y else None


def row(report) -> dict:
    out = {"env": report.env, "policy": report.policy, "b": report.b, "n": report.n,
           "M": report.m}
    for iq in report.inequalities:
        out[iq.name] = {"lhs_label": iq.lhs_label, "rhs_label": iq.rhs_label, "lhs": iq.lhs,
                        "rhs": iq.rhs, "stderr": iq.stderr, "z": ratio(iq.diff, iq.stderr),
                        "verdict": iq.verdict}
    out["bound_ratio"] = ratio(report.b * report.mean_m, report.mean_online)
    out["batch_ratio"] = ratio(report.mean_batch, report.mean_online)
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--reps", type=int, default=500)
    p.add_argument("--n", type=int, default=2000)
    p.add_argument("--out", required=True)
    args = p.parse_args(argv)
    if args.reps < 2:
        p.error("--reps must be at least 2 for a standard error")
    table = run_experiment(grid(args.n, args.reps, args.seed))
    write_json({
        "command": f"PYTHONPATH=src python3 tools/sandwich_table.py --seed {args.seed} "
                   f"--reps {args.reps} --n {args.n}",
        "host": host(),
        "seed": args.seed,
        "reps": args.reps,
        "grid": {"n": args.n, **FIG1},
        "rows": [row(r) for r in bound_reports(table)],
    }, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
