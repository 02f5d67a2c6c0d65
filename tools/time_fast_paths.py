#!/usr/bin/env python3
"""Time the tree's tuning constants and fast paths against the same tree
with each path forced off, in alternating rounds.

Usage (from the repository root)::

    PYTHONPATH=src python3 tools/time_fast_paths.py --out fast_paths.json

Every case runs in this process, after one untimed warm-up of each side.
Round ``i`` runs both sides back to back, odd rounds ``on`` first and even
rounds ``off`` first (``tools/pairs.py``), and each side's results must be
equal:

* ``ucb_unpulled``: ``UcbPolicy.act_reps`` on a 2-armed state whose arms
  are all pulled, at 1, 10 and 100 reps, the best of 7 ``timeit`` repeats
  of 2,000 calls per round; ``off`` enters ``np.errstate`` around every
  call, which the ``unpulled`` branch spares once no count is zero.  The
  case also counts the ``act_reps`` calls of one iteration of the
  benchmark's ``certified_start`` workload (both modes, seed 1), which
  fell from 6,579 when two-phase runs began to run ahead (``ucb_run_ahead``);
* ``ucb_run_ahead``: the benchmark's ``certified_start`` sweep (both modes,
  ucb on env1, env3 and env6 at b in {1, 10, 100}, n=2000, 10 reps) as it
  is (``on``), with ``specifications.AHEAD_CELLS`` 0 (``off``: every batch
  is one ``act_reps`` and one ``update_reps`` call), with
  ``specifications.AHEAD_MIN`` 2 and 8 and with ``AHEAD_CELLS`` 2**10 and
  2**12, with the ``UcbPolicy`` calls of one iteration of it per method;
  and 256- and 1,024-rep ``delayed_start`` and ``approx_delayed_start``
  cells (ucb on env3, n=2000, b in {1, 10}) at ``AHEAD_CELLS`` of 0,
  2**10, 2**12 and 2**14, 2**12 with ``AHEAD_MIN`` 2 and 8, and 2**10 with
  ``AHEAD_MIN`` 8, with the traced peak (``tracemalloc``) of one untimed
  call at each;
* ``list_window``: the replays of the benchmark's ``replay_log`` workload
  on its 5,000-row contextual log, linucb and lints at b in {1, 50},
  timed together; ``off`` sets ``replay._LIST_WINDOW_MAX`` to 0, so every
  window compares as an array;
* ``play``: the benchmark's ``approx_delayed_start`` sweep (ucb on env1,
  env3 and env6 at b in {1, 10, 100}, n=2000, 10 reps); ``off`` sets
  ``meta._Certify.reduced``, so the engine reduces the certification's
  phase-1 run as it does a ``Curves`` keep's;
* ``pair_cells``: ``check_sublinearity`` on ucb's env1 regret curve at
  n=4,000 and at n=20,000, over 64 reps, at ``assumptions._PAIR_CELLS`` of
  2**14, 2**16, 2**18 and 2**20, with the traced peak (``tracemalloc``) of
  one untimed call at each size; the results are keyed ``n=<n>``.

``--rounds`` sets every case's rounds; ``--smoke`` shrinks every size, to
check the script.  ``harness.STACK_STEPS`` has its own script,
``tools/time_stacking.py``.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
import time
import timeit
import tracemalloc

import numpy as np
from pairs import compare, host, run_pairs, summarise, write_json

from batchband import (ExperimentConfig, UcbPolicy, derive_seed, make_grid, make_linear_env,
                       make_policy, preset, replay_evaluate, run_experiment,
                       synth_logged_dataset)
from batchband import assumptions, meta, replay, specifications
from batchband.harness import regret_curve

SIZES = {"rounds": {"ucb_unpulled": 5, "ucb_run_ahead": 10, "list_window": 10, "play": 20,
                    "pair_cells": 5},
         "reps": (1, 10, 100), "calls": 2000, "ctx_rows": 5000, "n": 2000, "cert_reps": 10,
         "curve_n": (4000, 20000), "curve_reps": 64, "wide_reps": (256, 1024)}
SMOKE = {"rounds": {"ucb_unpulled": 2, "ucb_run_ahead": 2, "list_window": 2, "play": 2,
                    "pair_cells": 2},
         "reps": (1, 3), "calls": 20, "ctx_rows": 200, "n": 200, "cert_reps": 2,
         "curve_n": (300, 600), "curve_reps": 4, "wide_reps": (32,)}
CERTIFIED = {"envs": ("env1", "env3", "env6"), "policies": ("ucb",), "batch_sizes": (1, 10, 100)}
MODES = ("delayed_start", "approx_delayed_start")


def timed(fn):
    t0 = time.perf_counter()
    result = fn()
    return time.perf_counter() - t0, result


def rows_digest(table) -> str:
    h = hashlib.sha256()
    for r in table.rows:
        h.update(repr((r.mean_final, r.stderr_final, r.tau_mean, r.tau_none)).encode())
        h.update(r.curve_mean.tobytes() + r.curve_stderr.tobytes())
    return h.hexdigest()


def ucb_unpulled(sizes, rounds):
    policy = UcbPolicy(2)
    states = {}
    for reps in sizes["reps"]:
        state = policy.init_reps(reps)
        policy.update_reps(state, np.tile([0, 1, 0, 1], (reps, 1)),
                           np.tile([1.0, 0.0, 0.0, 1.0], (reps, 1)))
        policy.act_reps(state, 1, None, np.arange(reps))  # clears ``unpulled``
        states[reps] = state

    def call(reps, side):
        state, rows = states[reps], np.arange(reps)
        if side == "on":
            def fn():
                return policy.act_reps(state, 1, None, rows)
        else:
            def fn():
                with np.errstate(divide="ignore", invalid="ignore"):
                    return policy.act_reps(state, 1, None, rows)
        best = min(timeit.repeat(fn, number=sizes["calls"], repeat=7))
        return {"us": best / sizes["calls"] * 1e6, "result": fn().tolist()}

    out = {}
    for reps in sizes["reps"]:
        runs = run_pairs(rounds, [reps], ("on", "off"), lambda case, side, _: call(case, side))
        out[f"reps={reps}"] = side_summary(runs[reps], "us")

    calls = []
    act_reps = UcbPolicy.act_reps

    def spy(self, *args, **kwargs):
        calls.append(1)
        return act_reps(self, *args, **kwargs)

    UcbPolicy.act_reps = spy
    try:
        certified_start(sizes)
    finally:
        UcbPolicy.act_reps = act_reps
    out["act_reps_calls_per_certified_start_iteration"] = len(calls)
    out["results_equal"] = all(v["results_equal"] for k, v in out.items() if k.startswith("reps="))
    return out


def certified_start(sizes):
    """One iteration of the benchmark's certified_start sweep: its tables' digests."""
    return [rows_digest(run_experiment(ExperimentConfig(
        n=sizes["n"], reps=sizes["cert_reps"], master_seed=1, mode=mode, **CERTIFIED)))
        for mode in MODES]


def ucb_run_ahead(sizes, rounds):
    defaults = {"AHEAD_CELLS": specifications.AHEAD_CELLS,
                "AHEAD_MIN": specifications.AHEAD_MIN}

    def at(fn, **settings):
        for name, value in settings.items():
            setattr(specifications, name, value)
        try:
            return fn()
        finally:
            for name, value in defaults.items():
                setattr(specifications, name, value)

    sweeps = {"on": {}, "off": {"AHEAD_CELLS": 0}, "from 2": {"AHEAD_MIN": 2},
              "from 8": {"AHEAD_MIN": 8}, "2**10": {"AHEAD_CELLS": 2**10},
              "2**12": {"AHEAD_CELLS": 2**12}}
    out = {"certified_start": sides(
        lambda side: at(lambda: timed(lambda: certified_start(sizes)), **sweeps[side]),
        rounds, tuple(sweeps))}
    calls = {}
    methods = {name: getattr(UcbPolicy, name)
               for name in ("act_reps", "update_reps", "run_ahead_reps")}
    for name, real in methods.items():
        def spy(self, *args, name=name, real=real):
            calls[name] = calls.get(name, 0) + 1
            return real(self, *args)
        setattr(UcbPolicy, name, spy)
    try:
        certified_start(sizes)
    finally:
        for name, real in methods.items():
            setattr(UcbPolicy, name, real)
    out["calls_per_certified_start_iteration"] = calls

    widths = {"off": {"AHEAD_CELLS": 0}, "2**10": {"AHEAD_CELLS": 2**10},
              "2**12": {"AHEAD_CELLS": 2**12}, "2**14": {"AHEAD_CELLS": 2**14},
              "2**12 from 2": {"AHEAD_CELLS": 2**12, "AHEAD_MIN": 2},
              "2**12 from 8": {"AHEAD_CELLS": 2**12, "AHEAD_MIN": 8},
              "2**10 from 8": {"AHEAD_CELLS": 2**10, "AHEAD_MIN": 8}}
    for reps in sizes["wide_reps"]:
        for mode in MODES:
            for b in (1, 10):
                config = ExperimentConfig(n=sizes["n"], reps=reps, master_seed=1, mode=mode,
                                          envs=("env3",), policies=("ucb",), batch_sizes=(b,))

                def run(label, config=config):
                    return at(lambda: timed(lambda: rows_digest(run_experiment(config))),
                              **widths[label])

                cell = sides(run, rounds, tuple(widths))
                for label, settings in widths.items():
                    tracemalloc.start()
                    try:
                        at(lambda: run_experiment(config), **settings)
                        cell[label]["traced_peak_mib"] = tracemalloc.get_traced_memory()[1] / 2**20
                    finally:
                        tracemalloc.stop()
                out[f"{mode} env3 b={b} reps={reps}"] = cell
    out["results_equal"] = all(v.get("results_equal", True) for v in out.values())
    return out


def list_window(sizes, rounds):
    seed = 1
    env = make_linear_env(4, 5, seed=derive_seed(seed, "theta"))
    log = synth_logged_dataset(env, sizes["ctx_rows"], seed=derive_seed(seed, "log", "linear"))
    window = replay._LIST_WINDOW_MAX

    def run(side):
        replay._LIST_WINDOW_MAX = window if side == "on" else 0
        try:
            return timed(lambda: [
                (r.matched, r.successes) for r in (
                    replay_evaluate(make_policy(name, 4, 5), log, b,
                                    derive_seed(seed, "replay", name, b))
                    for name in ("linucb", "lints") for b in (1, 50))])
        finally:
            replay._LIST_WINDOW_MAX = window

    return sides(run, rounds)


def play(sizes, rounds):
    config = ExperimentConfig(n=sizes["n"], reps=sizes["cert_reps"], master_seed=1,
                              mode="approx_delayed_start", **CERTIFIED)

    def run(side):
        meta._Certify.reduced = side == "off"
        try:
            seconds, table = timed(lambda: run_experiment(config))
        finally:
            meta._Certify.reduced = False
        return seconds, rows_digest(table)

    return sides(run, rounds)


def pair_cells(sizes, rounds):
    out = {f"n={n}": pair_cells_at(n, sizes["curve_reps"], rounds) for n in sizes["curve_n"]}
    out["results_equal"] = all(v["results_equal"] for v in out.values())
    return out


def pair_cells_at(n, reps, rounds):
    curve = regret_curve(UcbPolicy(2), preset("env1"), make_grid(n, 1), reps, master_seed=1)
    cells = assumptions._PAIR_CELLS
    settings = {f"2**{e}": 2**e for e in (14, 16, 18, 20)}

    def run(label):
        assumptions._PAIR_CELLS = settings[label]
        try:
            seconds, report = timed(lambda: assumptions.check_sublinearity(curve))
        finally:
            assumptions._PAIR_CELLS = cells
        return seconds, [report.holds, len(report.pairs)]

    out = sides(run, rounds, tuple(settings))
    for label, size in settings.items():
        assumptions._PAIR_CELLS = size
        tracemalloc.start()
        try:
            assumptions.check_sublinearity(curve)
            out[label]["traced_peak_mib"] = tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()
            assumptions._PAIR_CELLS = cells
    return out


def sides(run, rounds, names=("on", "off")):
    """Per side, the seconds of ``rounds`` alternating rounds of ``run(side)``
    (which returns seconds and a result), after one untimed warm-up each."""
    for side in names:
        run(side)
    runs = run_pairs(rounds, ["case"], names, lambda _, side, __: dict(
        zip(("s", "result"), run(side))))["case"]
    return side_summary(runs, "s")


def side_summary(runs, key):
    names = list(runs)
    out = {side: summarise([r[key] for r in runs[side]]) for side in names}
    if names[:2] == ["on", "off"]:
        out["on_against_off"] = compare([r[key] for r in runs["off"]],
                                        [r[key] for r in runs["on"]])
    results = [r["result"] for side in names for r in runs[side]]
    out["results_equal"] = all(r == results[0] for r in results)
    return out


CASES = {"ucb_unpulled": ucb_unpulled, "ucb_run_ahead": ucb_run_ahead,
         "list_window": list_window, "play": play, "pair_cells": pair_cells}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--out", required=True)
    p.add_argument("--cases", default=",".join(CASES), help="comma-separated cases to run")
    p.add_argument("--rounds", type=int, default=0,
                   help="rounds of every case, in place of its own")
    p.add_argument("--smoke", action="store_true", help="tiny sizes, to check the script")
    args = p.parse_args(argv)
    sizes = SMOKE if args.smoke else SIZES
    if args.rounds and args.rounds < 2:
        p.error("--rounds must be >= 2 for quartiles")
    cases = args.cases.split(",")
    unknown = sorted(set(cases) - set(CASES))
    if unknown:
        p.error(f"unknown case {unknown[0]!r}; choose from {sorted(CASES)}")
    record = {"command": " ".join(["PYTHONPATH=src python3 tools/time_fast_paths.py",
                                   *sys.argv[1:]]),
              "host": host(), "order": "odd rounds run the path on first, even rounds off first"}
    for case in cases:
        record[case] = CASES[case](sizes, args.rounds or sizes["rounds"][case])
        print(f"{case} done", file=sys.stderr)
    write_json(record, args.out)
    return 0 if all(record[case]["results_equal"] for case in cases) else 1


if __name__ == "__main__":
    sys.exit(main())
