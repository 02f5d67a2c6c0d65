#!/usr/bin/env python3
"""Time the tree's tuning constants and fast paths against the same tree
with each path forced off, in alternating rounds.

Usage (from the repository root)::

    PYTHONPATH=src python3 tools/time_fast_paths.py --out fast_paths.json

Every case runs in this process, after one untimed warm-up of each side.
Round ``i`` runs both sides back to back, odd rounds ``on`` first and even
rounds ``off`` first (``tools/pairs.py``), and each side's results must be
equal:

* ``switches``: the CLI calls of one iteration of a benchmark workload,
  taken from ``bench/run_bench.py``'s ``WORKLOADS`` (imported without
  writing bytecode, at its full sizes and seed 1) and run through
  ``batchband.cli.main``, with one switch as it is (``on``) and forced
  off: ``specifications.AHEAD_CELLS`` 0 and ``meta._Certify.reduced`` true
  on ``certified_start``, ``replay._SCALAR_BETA_MAX`` 0 on ``replay_log``,
  and ``harness.STACK_STEPS`` 0 on ``fig1_sweep``; each side's result is the
  digest of every file the calls write;
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
* ``pair_cells``: ``check_sublinearity`` on ucb's env1 regret curve at
  n=4,000 and at n=20,000, over 64 reps, at ``assumptions._PAIR_CELLS`` of
  2**14, 2**16, 2**18 and 2**20, with the traced peak (``tracemalloc``) of
  one untimed call at each size; the results are keyed ``n=<n>``.

``--rounds`` sets every case's rounds; ``--smoke`` shrinks every size, to
check the script.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import io
import sys
import tempfile
import time
import tracemalloc
from contextlib import redirect_stdout
from pathlib import Path

from pairs import compare, host, run_pairs, summarise, write_json

from batchband import ExperimentConfig, UcbPolicy, make_grid, preset, run_experiment
from batchband import assumptions, cli, harness, meta, replay, specifications
from batchband.harness import regret_curve

SIZES = {"rounds": {"switches": 30, "ucb_run_ahead": 10, "pair_cells": 5},
         "bench": "FULL", "n": 2000, "cert_reps": 10,
         "curve_n": (4000, 20000), "curve_reps": 64, "wide_reps": (256, 1024)}
SMOKE = {"rounds": {"switches": 2, "ucb_run_ahead": 2, "pair_cells": 2},
         "bench": "SMOKE", "n": 200, "cert_reps": 2,
         "curve_n": (300, 600), "curve_reps": 4, "wide_reps": (32,)}
CERTIFIED = {"envs": ("env1", "env3", "env6"), "policies": ("ucb",), "batch_sizes": (1, 10, 100)}
MODES = ("delayed_start", "approx_delayed_start")
BENCH = Path(__file__).resolve().parents[1] / "bench" / "run_bench.py"
# switch: (owner, attribute, value that forces its path off, benchmark workload)
SWITCHES = {
    "AHEAD_CELLS": (specifications, "AHEAD_CELLS", 0, "certified_start"),
    "_Certify.reduced": (meta._Certify, "reduced", True, "certified_start"),
    "_SCALAR_BETA_MAX": (replay, "_SCALAR_BETA_MAX", 0, "replay_log"),
    "STACK_STEPS": (harness, "STACK_STEPS", 0, "fig1_sweep"),
}


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


def switches(sizes, rounds):
    spec = importlib.util.spec_from_file_location("run_bench", BENCH)
    bench = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(bench)
    finally:
        sys.dont_write_bytecode = dont_write
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        workloads = {}
        for name in dict.fromkeys(w for *_, w in SWITCHES.values()):
            wl = workloads[name] = bench.WORKLOADS[name](1, getattr(bench, sizes["bench"]),
                                                         Path(tmp, name))
            wl.work.mkdir()
            wl.setup()
        for switch, (owner, attr, off, name) in SWITCHES.items():
            wl, default = workloads[name], getattr(owner, attr)

            def run(side, wl=wl, owner=owner, attr=attr, off=off, default=default):
                setattr(owner, attr, default if side == "on" else off)
                try:
                    return timed(lambda: iteration(wl, Path(tmp, "out")))
                finally:
                    setattr(owner, attr, default)

            cell = out[switch] = {"workload": name, "off_value": off, **sides(run, rounds)}
            cell["off_over_on_median"] = cell["off"]["median"] / cell["on"]["median"]
    out["results_equal"] = all(v["results_equal"] for v in out.values())
    return out


def iteration(wl, out: Path) -> str:
    """One iteration of workload ``wl``'s CLI calls: a digest of their exit
    codes and of every file they write."""
    h = hashlib.sha256()
    for i, argv in enumerate(wl.calls(wl.threads)):
        with redirect_stdout(io.StringIO()):
            h.update(str(cli.main([*argv, "--out-dir", str(out / str(i))])).encode())
        for path in sorted((out / str(i)).iterdir()):
            h.update(path.name.encode() + path.read_bytes())
    return h.hexdigest()


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


CASES = {"switches": switches, "ucb_run_ahead": ucb_run_ahead, "pair_cells": pair_cells}


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
