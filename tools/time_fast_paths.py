#!/usr/bin/env python3
"""Time the tree's switchable fast paths on the benchmark's own calls
against the same tree with each path forced off, in alternating rounds.

Usage (from the repository root)::

    PYTHONPATH=src python3 tools/time_fast_paths.py --out fast_paths.json

The calls are those of one iteration of a benchmark workload, taken from
``bench/run_bench.py``'s ``WORKLOADS`` (imported without writing bytecode,
at its full sizes and seed 1) and run through ``batchband.cli.main`` in
this process, with one switch as it is (``on``) and forced off:
``specifications.AHEAD_CELLS`` 0 and ``meta._Certify.reduced`` true on
``certified_start``, ``replay._SCALAR_BETA_MAX`` 0 on ``replay_log``, and
``harness.STACK_STEPS`` 0 on ``fig1_sweep``.  Each side has one untimed
warm-up; round ``i`` then runs both sides back to back, odd rounds ``on``
first and even rounds ``off`` first (``tools/pairs.py``).  Each side's
result is the digest of every file the calls write, and the sides' results
must be equal.

``--rounds`` sets the rounds (30 by default); ``--smoke`` runs the
workloads at their smoke sizes over 2 rounds, to check the script.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import io
import sys
import tempfile
import time
from contextlib import redirect_stdout
from pathlib import Path

from pairs import compare, host, run_pairs, summarise, write_json

from batchband import cli, harness, meta, replay, specifications

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


def switches(size, rounds):
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
            wl = workloads[name] = bench.WORKLOADS[name](1, getattr(bench, size),
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


def sides(run, rounds):
    """Per side, the seconds of ``rounds`` alternating rounds of ``run(side)``
    (which returns seconds and a result), after one untimed warm-up each."""
    names = ("on", "off")
    for side in names:
        run(side)
    runs = run_pairs(rounds, ["case"], names, lambda _, side, __: run(side))["case"]
    seconds = {side: [s for s, _ in runs[side]] for side in names}
    results = [result for side in names for _, result in runs[side]]
    return {**{side: summarise(seconds[side]) for side in names},
            "on_against_off": compare(seconds["off"], seconds["on"]),
            "results_equal": all(r == results[0] for r in results)}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--out", required=True)
    p.add_argument("--rounds", type=int, default=0, help="rounds (30, or 2 with --smoke)")
    p.add_argument("--smoke", action="store_true", help="smoke sizes, to check the script")
    args = p.parse_args(argv)
    rounds = args.rounds or (2 if args.smoke else 30)
    if rounds < 2:
        p.error("--rounds must be >= 2 for quartiles")
    record = {"command": " ".join(["PYTHONPATH=src python3 tools/time_fast_paths.py",
                                   *sys.argv[1:]]),
              "host": host(), "order": "odd rounds run the path on first, even rounds off first",
              "switches": switches("SMOKE" if args.smoke else "FULL", rounds)}
    write_json(record, args.out)
    return 0 if record["switches"]["results_equal"] else 1


if __name__ == "__main__":
    sys.exit(main())
