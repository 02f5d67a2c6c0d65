#!/usr/bin/env python3
"""batchband benchmark: four paper workloads driven through the CLI.

Usage (from the repository root)::

    python3 bench/run_bench.py --workload fig1_sweep --seed 1 --seconds 22 --trace 0

Each workload is a closed-loop batch job: one pass runs the workload's
``batchband.cli.main`` invocations back to back, and a run makes a fixed
number of passes over the same inputs, about ``--seconds`` worth on the
current code.  ``--trace 0`` reports the end-to-end metrics at a reference
host speed: each short piece of work is scaled by the host's slowdown
around it and counts with its fastest pass (see ``HostSpeed``,
``PieceTimer`` and ``reference_call``); ``--trace 1`` runs untraced iterations and one traced iteration and reports
per-layer metrics from spans recorded around calls into each module (see
``spans.py``).
Every run checks its outputs (see ``checks.py``) and prints, as the last
line of stdout, ``{"correct", "attempted", "failed", "metrics"}``.  A full
record with provenance and output digests goes to
``.bench_results/<workload>-seed<seed>-trace<t>.json``.

The package is imported from ``src/`` next to this directory; the run fails
with exit code 2 when that source tree is missing.  See ``README.md`` here
for why each workload exists and which layer metric should move which
end-to-end metric.
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import importlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from contextlib import contextmanager, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RESULTS_DIR = ROOT / ".bench_results"
WORK_DIR = ROOT / ".bench_run"

# wall_s, cpu_s and setup_s are quoted at the host speed at which the
# HostSpeed probe takes REF_PROBE_S, about the fastest it ran on the 2-vCPU
# VM (Python 3.11.7, numpy 2.4.6) the benchmark was written on.  The probe
# runs before a piece once the last probe is PROBE_GAP_S old; a piece is
# scaled by the fastest probe within PROBE_WINDOW_S of it.
REF_PROBE_S = 4.4e-4
PROBE_GAP_S = 0.1
PROBE_WINDOW_S = 0.5
# setup_s is scaled by a reference of its own kind: importing these stdlib
# modules, which batchband does not use, right after the set-up in the same
# interpreter.  REF_IMPORT_S is about the fastest that took on the VM above.
REF_IMPORTS = ("asyncio", "email.mime.multipart", "http.client", "sqlite3", "xml.dom.minidom")
REF_IMPORT_S = 0.035
# a traced iteration fails when the sum of its spans' self times and its
# wall time, timed around the CLI calls, differ by more than this share
TRACE_GAP_TOL = 0.01
# an end-to-end run makes at least this many passes; more when --seconds
# holds more than that many of the workload's nominal passes (Workload.pass_s)
MIN_PASSES = 2
# but stops early, on a host slow enough that the next pass would end after
# PASS_CAP times --seconds, to keep the run's length
PASS_CAP = 1.2
# per-cell timings go on in whole passes until at least this many cells are
# timed, so that the tail percentile (ten samples beyond it) is at least the
# 66th: one pass of fig1_sweep's 84 cells, two of certified_start's 18
MIN_CELL_SAMPLES = 30
FIG1_ENVS = ("env1", "env2", "env3", "env4", "env5", "env6")
FIG1_BATCHES = (1, 2, 4, 8, 16, 32, 64)

# (name, unit, better, bound): what a user of the workload sees.  The time
# bounds are the largest allowed because the 10-seed spread of these times
# on a shared 2-vCPU VM ranged from 0.08 to 0.24; see README.md.
END_TO_END = (
    ("wall_s", "s", "lower", 0.25),
    ("steps_per_s", "steps/s", "higher", 0.25),
    ("cpu_s", "s", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MiB", "lower", 0.1),
    ("ok_frac", "ratio", "higher", 0.001),
)

# (name, unit, better): one layer each, from the traced run.
PER_LAYER = (
    ("cli.self_s", "s", "lower"),
    ("core.derive_seed.calls", "count", "lower"),
    ("core.derive_seed.s", "s", "lower"),
    ("policies.make.calls", "count", "lower"),
    ("policies.make.s", "s", "lower"),
    ("policies.act.calls", "count", "lower"),
    ("policies.act.s", "s", "lower"),
    ("policies.update.calls", "count", "lower"),
    ("policies.update.s", "s", "lower"),
    ("environments.sample.calls", "count", "lower"),
    ("environments.sample.s", "s", "lower"),
    ("environments.features.calls", "count", "lower"),
    ("environments.features.s", "s", "lower"),
    ("environments.csv_read.rows", "count", "lower"),
    ("environments.csv_read.s", "s", "lower"),
    ("specifications.runs", "count", "lower"),
    ("specifications.self_s", "s", "lower"),
    ("meta.runs", "count", "lower"),
    ("meta.self_s", "s", "lower"),
    ("meta.check.calls", "count", "lower"),
    ("meta.check.s", "s", "lower"),
    ("meta.pessimistic.calls", "count", "lower"),
    ("meta.handover_frac", "ratio", "higher"),
    ("harness.cell.s_p50", "s", "lower"),
    ("harness.cell.s_tail", "s", "lower"),
    ("harness.cell.tail_pct", "%", "higher"),
    ("harness.cell.samples", "count", "higher"),
    ("harness.reduce.s", "s", "lower"),
    ("harness.csv_write.rows", "count", "lower"),
    ("harness.csv_write.bytes", "bytes", "lower"),
    ("harness.csv_write.s", "s", "lower"),
    ("harness.pool.child_cpu_s", "s", "lower"),
    ("harness.pool.parallelism", "ratio", "higher"),
    ("harness.pool.startup_s", "s", "lower"),
    ("replay.records", "count", "lower"),
    ("replay.match_frac", "ratio", "higher"),
    ("replay.self_s", "s", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
    ("trace.spans", "count", "lower"),
    ("trace.self_sum_err", "ratio", "lower"),
)


def import_batchband():
    """Import batchband from this checkout's ``src/`` and nowhere else."""
    if not (SRC / "batchband" / "__init__.py").is_file():
        raise SystemExit(f"error: no batchband source under {SRC}")
    sys.path.insert(0, str(SRC))
    import batchband

    if Path(batchband.__file__).resolve().parent != SRC / "batchband":
        raise SystemExit(f"error: imported batchband from {batchband.__file__}, not {SRC}")


@dataclass(frozen=True)
class Sizes:
    """Run-length knobs; ``SMOKE`` shrinks every workload for the self-check."""

    fig1_n: int = 2000
    fig1_reps: int = 10
    sandwich_n: int = 1000
    sandwich_reps: int = 100
    certified_n: int = 2000
    certified_reps: int = 10
    replay_rows: int = 25_000
    replay_ctx_rows: int = 5_000


FULL = Sizes()
SMOKE = Sizes(fig1_n=128, fig1_reps=2, sandwich_n=100, sandwich_reps=4,
              certified_n=200, certified_reps=2, replay_rows=2000, replay_ctx_rows=500)


class Workload:
    """One benchmark workload: its inputs, CLI calls, step count and checks.

    ``plan()`` has one entry per CLI call of an iteration; ``argv`` turns an
    entry into arguments, ``ops`` counts its operations and ``check_call``
    judges the call's outputs, returning (operations attempted, operations
    failed, problems).
    """

    name = ""
    threads = 1
    ok_codes = (0,)
    # seconds one pass takes on the current code (2-vCPU VM, Python 3.11.7,
    # numpy 2.4.6); a run makes round(--seconds / pass_s) passes, so the
    # number of passes, which the fastest-pass estimate depends on, does not
    # grow for a faster version of the program (PASS_CAP may cut it on a
    # slow host)
    pass_s = 10.0
    # set-ups timed for setup_s
    setup_probes = 5

    def __init__(self, seed: int, sizes: Sizes, work: Path):
        self.seed = seed
        self.sizes = sizes
        self.work = work

    def setup(self) -> None:
        """Generate input files; timed as part of ``setup_s``."""

    def plan(self) -> list:
        raise NotImplementedError

    def argv(self, item, threads: int) -> list[str]:
        raise NotImplementedError

    def steps(self) -> int:
        raise NotImplementedError

    def ops(self, item) -> int:
        raise NotImplementedError

    def check_call(self, item, out: Path, code: int):
        raise NotImplementedError

    def single_cells(self) -> list:
        """ExperimentConfig per cell, for per-cell timing; empty if no cells."""
        return []

    def passes(self, seconds: float) -> int:
        return max(MIN_PASSES, round(seconds / self.pass_s))

    def calls(self, threads: int) -> list[list[str]]:
        return [self.argv(item, threads) for item in self.plan()]

    def check(self, out_dirs, codes):
        attempted = failed = 0
        problems = []
        for item, out, code in zip(self.plan(), out_dirs, codes):
            if code not in self.ok_codes:
                a, f, p = self.ops(item), self.ops(item), [f"{out}: exit code {code}"]
            else:
                try:
                    a, f, p = self.check_call(item, out, code)
                except (OSError, ValueError, KeyError, IndexError) as exc:
                    a, f, p = self.ops(item), self.ops(item), [f"{out}: unreadable output: {exc!r}"]
            attempted += a
            failed += f
            problems += p
        return attempted, failed, problems


class SimulateWorkload(Workload):
    """``simulate`` calls; plan entries are (mode, envs, policies, batches)."""

    n = 0
    reps = 0
    extra_flags: tuple = ()

    @staticmethod
    def _cells(item):
        _mode, envs, policies, batches = item
        return [(e, p, b) for e in envs for p in policies for b in batches]

    def argv(self, item, threads):
        mode, envs, policies, batches = item
        return [
            "simulate", "--env", ",".join(envs), "--policy", ",".join(policies),
            "--n", str(self.n), "--b", ",".join(map(str, batches)),
            "--reps", str(self.reps), "--seed", str(self.seed), "--mode", mode,
            "--threads", str(threads), *self.extra_flags,
        ]

    def steps(self):
        return sum(self.reps * (self.n // b) * b
                   for item in self.plan() for _e, _p, b in self._cells(item))

    def ops(self, item):
        return len(self._cells(item))

    def check_call(self, item, out, code):
        import checks
        from batchband import parse_env

        gaps = {e: float(parse_env(e).gap_vector().max()) for e in item[1]}
        return checks.check_simulate(out, self._cells(item), self.n, self.reps, item[0], gaps)

    def single_cells(self):
        from batchband import ExperimentConfig

        return [
            ExperimentConfig(envs=(e,), policies=(p,), n=self.n, batch_sizes=(b,),
                             reps=self.reps, master_seed=self.seed, mode=item[0])
            for item in self.plan()
            for e, p, b in self._cells(item)
        ]


class Fig1Sweep(SimulateWorkload):
    name = "fig1_sweep"
    extra_flags = ("--plot",)
    pass_s = 8.5

    def __init__(self, seed, sizes, work):
        super().__init__(seed, sizes, work)
        self.n, self.reps = sizes.fig1_n, sizes.fig1_reps

    def plan(self):
        return [("plain", FIG1_ENVS, ("ucb", "ts"), FIG1_BATCHES)]


class CertifiedStart(SimulateWorkload):
    name = "certified_start"
    pass_s = 6.0

    def __init__(self, seed, sizes, work):
        super().__init__(seed, sizes, work)
        self.n, self.reps = sizes.certified_n, sizes.certified_reps

    def plan(self):
        envs, batches = ("env1", "env3", "env6"), (1, 10, 100)
        return [(mode, envs, ("ucb",), batches)
                for mode in ("delayed_start", "approx_delayed_start")]


class Sandwich(Workload):
    """``check-bounds`` calls; plan entries are (policy, b)."""

    name = "sandwich"
    threads = 2
    pass_s = 4.3
    # exit 1 is a failed gate, which checks.check_bounds cross-checks
    ok_codes = (0, 1)

    def plan(self):
        return [("ucb", 5), ("ucb", 10), ("ts", 5), ("ts", 10)]

    def argv(self, item, threads):
        policy, b = item
        return ["check-bounds", "--policy", policy, "--env", "env1",
                "--n", str(self.sizes.sandwich_n), "--b", str(b),
                "--reps", str(self.sizes.sandwich_reps), "--seed", str(self.seed),
                "--threads", str(threads)]

    def steps(self):
        total = 0
        for _policy, b in self.plan():
            n = (self.sizes.sandwich_n // b) * b
            total += self.sizes.sandwich_reps * (2 * n + n // b)
        return total

    def ops(self, item):
        return 1

    def check_call(self, item, out, code):
        import checks

        return checks.check_bounds(out, code)


class ReplayLog(Workload):
    """``replay`` calls; plan entries are (log path, rows, policies, batches)."""

    name = "replay_log"
    pass_s = 3.2
    setup_probes = 3

    @property
    def logs(self):
        return self.work / "log_env1.csv", self.work / "log_linear.csv"

    def setup(self):
        from batchband import (derive_seed, make_linear_env, parse_env,
                               synth_logged_dataset, write_logged_csv)

        finite_log, ctx_log = self.logs
        write_logged_csv(
            synth_logged_dataset(parse_env("env1"), self.sizes.replay_rows,
                                 seed=derive_seed(self.seed, "log", "env1")),
            finite_log,
        )
        linear = make_linear_env(4, 5, seed=derive_seed(self.seed, "theta"))
        write_logged_csv(
            synth_logged_dataset(linear, self.sizes.replay_ctx_rows,
                                 seed=derive_seed(self.seed, "log", "linear")),
            ctx_log,
        )

    def plan(self):
        finite_log, ctx_log = self.logs
        return [
            (finite_log, self.sizes.replay_rows, ("ucb", "ts", "uniform"), (1, 50)),
            (ctx_log, self.sizes.replay_ctx_rows, ("linucb", "lints"), (1, 50)),
        ]

    @staticmethod
    def _labels(item):
        _log, _rows, policies, batches = item
        return [("baseline(uniform)", 1)] + [(p, b) for p in policies for b in batches]

    def argv(self, item, threads):
        log, _rows, policies, batches = item
        return ["replay", "--data", str(log), "--policy", ",".join(policies),
                "--b", ",".join(map(str, batches)), "--seed", str(self.seed)]

    def records_offered(self) -> int:
        return sum(item[1] * len(self._labels(item)) for item in self.plan())

    def steps(self):
        return self.records_offered()

    def ops(self, item):
        return len(self._labels(item))

    def check_call(self, item, out, code):
        import checks

        return checks.check_replay(out, item[1], self._labels(item))


WORKLOADS = {w.name: w for w in (Fig1Sweep, Sandwich, CertifiedStart, ReplayLog)}


def cpu_seconds() -> tuple[float, float]:
    """CPU seconds of this process (all its threads) and of its waited-for
    children."""
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time(), kids.ru_utime + kids.ru_stime


class HostSpeed:
    """How much slower than the reference speed the host runs right now.

    The host this benchmark was written on (a 2-vCPU VM) runs the same code
    at changing speeds: it flips between a fast and a 35-80% slower state
    every few tenths of a second, and sometimes stays slow on both CPUs for
    half a minute or more, longer than a whole run.  So no choice among a
    run's own timings can stand for the fast state.  Instead a fixed probe,
    a 100-step UCB loop on 8 arms written here so that no change to the
    package can change it, is timed between the pieces of the workload,
    and each piece's time is divided by the slowdown the probe shows around
    it (``slowdown``).
    """

    def __init__(self) -> None:
        import numpy as np

        self._rng = np.random.default_rng(0)
        self._counts = np.ones(8)
        self._sums = np.zeros(8)
        self.samples: list[tuple[float, float, int]] = []  # (end time, seconds, CPU or -1)
        self._last = -math.inf

    def _probe(self) -> float:
        import numpy as np

        counts, sums = self._counts, self._sums
        counts[:] = 1.0
        sums[:] = 0.0
        t0 = time.perf_counter()
        for t in range(100):
            arm = int(np.argmax(sums / counts + np.sqrt(2.0 * math.log(t + 2) / counts)))
            counts[arm] += 1.0
            sums[arm] += self._rng.random()
        return time.perf_counter() - t0

    def sample(self, force: bool = False, every_cpu: bool = False) -> None:
        """Time the probe (the faster of two runs) where this process runs,
        or on each allowed CPU in turn; at most every PROBE_GAP_S unless
        forced."""
        if not force and time.perf_counter() - self._last < PROBE_GAP_S:
            return
        allowed = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []
        for cpu in (allowed if every_cpu and len(allowed) > 1 else [None]):
            if cpu is not None:
                os.sched_setaffinity(0, {cpu})
            d = min(self._probe(), self._probe())
            self._last = time.perf_counter()
            if cpu is None:
                cpu = allowed[0] if len(allowed) == 1 else -1
            self.samples.append((self._last, d, cpu))
        if every_cpu and len(allowed) > 1:
            os.sched_setaffinity(0, allowed)

    def slowdown(self, start: float, end: float) -> float:
        """Slowdown over [start, end]: per CPU the fastest probe within
        PROBE_WINDOW_S of it, averaged over the CPUs probed, over
        REF_PROBE_S.

        The fastest rather than a typical probe: where the host flips
        between speeds the piece's own fastest pass is taken at the fast
        one, and where it stays slow every probe is slow too.  The average
        over CPUs is for pool calls, whose workers run on all of them; a
        single-process pass runs pinned to one CPU and probes only there.
        """
        times = [t for t, _, _ in self.samples]
        lo = bisect.bisect_left(times, start - PROBE_WINDOW_S)
        hi = bisect.bisect_right(times, end + PROBE_WINDOW_S)
        if lo >= hi:
            # no probe close by: the nearest one
            j = min(bisect.bisect_left(times, start), len(times) - 1)
            lo, hi = j, j + 1
        fastest: dict[int, float] = {}
        for _t, d, cpu in self.samples[lo:hi]:
            fastest[cpu] = min(d, fastest.get(cpu, d))
        return statistics.fmean(fastest.values()) / REF_PROBE_S


class PieceTimer:
    """Wall and CPU time of the short pieces a CLI call is made of.

    Wrappers at the names callers look up time one engine run (one rep of a
    cell), one results/curves CSV write, one log read and one replay
    evaluation, and time the host-speed probe before a piece when the last
    probe is PROBE_GAP_S old.  A piece started inside another is part of
    the outer one.  Only this process is seen: ``check-bounds`` runs its
    reps in pool workers, so its calls are timed whole.
    """

    def __init__(self) -> None:
        self.speed = HostSpeed()
        self.pieces: list[tuple[str, float, float, float]] = []
        self._busy = False
        self._saved: list = []

    @staticmethod
    def _points():
        import batchband.cli as cli
        import batchband.harness as harness

        return [
            (harness, "run_batch"), (harness, "run_online"),
            (harness, "delayed_start_run"), (harness, "approx_delayed_start_run"),
            (harness.RegretTable, "to_results_csv"), (harness.RegretTable, "to_curves_csv"),
            (cli, "read_logged_csv"), (cli, "replay_evaluate"),
        ]

    def _wrap(self, name: str, fn):
        timer = self
        wall, cpu = time.perf_counter, time.process_time

        def timed(*args, **kwargs):
            if timer._busy:
                return fn(*args, **kwargs)
            timer._busy = True
            timer.speed.sample()
            w0, c0 = wall(), cpu()
            try:
                return fn(*args, **kwargs)
            finally:
                timer.pieces.append((name, wall() - w0, cpu() - c0, w0))
                timer._busy = False

        return timed

    def take(self) -> list:
        """(name, wall, cpu, start) of each piece since the last call, in
        the order they ran."""
        out, self.pieces = self.pieces, []
        return out

    def __enter__(self):
        for owner, attr in self._points():
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(attr, original))
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        return False


@contextmanager
def on_cpu(i: int, threads: int):
    """Pin this process (and what it starts) to the i-th allowed CPU, round
    robin, for a single-process body; do nothing for several workers or one
    CPU.

    The two CPUs of the host this benchmark was written on flip between
    speeds independently of each other (the correlation of their half-second
    speeds was 0.08), so spreading a piece's passes over them makes a fast
    pass more likely.
    """
    allowed = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []
    if threads > 1 or len(allowed) < 2:
        yield
        return
    os.sched_setaffinity(0, {allowed[i % len(allowed)]})
    try:
        yield
    finally:
        os.sched_setaffinity(0, allowed)


def reference_call(passes, speed: HostSpeed) -> tuple[float, float]:
    """(wall, cpu) seconds of one CLI call at the reference speed, from
    several passes of it.

    Each piece's time, and the rest of the call's (its time outside the
    pieces), is divided by the host's slowdown around it and counts with
    its fastest pass.  The pieces of a call are the same in every pass,
    because the program is deterministic.
    """
    def scaled(c):
        parts = []
        for _name, w, u, t in c["pieces"]:
            k = speed.slowdown(t, t + w)
            parts.append((w / k, u / k))
        k = speed.slowdown(c["t0"], c["t0"] + c["wall_s"])
        rest_wall = c["wall_s"] - sum(p[1] for p in c["pieces"])
        rest_cpu = c["cpu_s"] - sum(p[2] for p in c["pieces"])
        parts.append((rest_wall / k, rest_cpu / k))
        return parts

    if len({tuple(p[0] for p in c["pieces"]) for c in passes}) != 1:
        raise RuntimeError("a CLI call ran different pieces in different passes")
    rows = [scaled(c) for c in passes]
    wall = sum(min(r[j][0] for r in rows) for j in range(len(rows[0])))
    cpu = sum(min(r[j][1] for r in rows) for j in range(len(rows[0])))
    return wall, cpu


def file_digests(out_dirs) -> dict:
    out = {}
    for i, d in enumerate(out_dirs):
        for p in sorted(Path(d).iterdir()):
            out[f"call{i}/{p.name}"] = hashlib.sha256(p.read_bytes()).hexdigest()
    return out


def run_iteration(wl: Workload, out_root: Path, threads: int, timer=None) -> dict:
    """Run one iteration's CLI calls; CLI stdout is captured, not printed.

    With a ``PieceTimer`` installed, each call's pieces are kept with it.
    """
    import batchband.cli

    calls = wl.calls(threads)
    out_dirs = [out_root / f"call{i}" for i in range(len(calls))]
    codes = []
    per_call = []
    cpu0, kids0 = cpu_seconds()
    t0 = time.perf_counter()
    for argv, out in zip(calls, out_dirs):
        if timer:
            timer.speed.sample(force=True, every_cpu=threads > 1)
        c_cpu, c_kids = cpu_seconds()
        c_t = time.perf_counter()
        try:
            with redirect_stdout(io.StringIO()):
                codes.append(batchband.cli.main(argv + ["--out-dir", str(out)]))
        except Exception:
            # a crash fails this call's operations; the run goes on to report it
            traceback.print_exc()
            codes.append(-1)
        c_wall = time.perf_counter() - c_t
        cpu1, kids1 = cpu_seconds()
        if timer:
            timer.speed.sample(force=True, every_cpu=threads > 1)
        per_call.append({
            "t0": c_t,
            "wall_s": c_wall,
            "cpu_s": (cpu1 - c_cpu) + (kids1 - c_kids),
            "pieces": timer.take() if timer else [],
        })
    wall = time.perf_counter() - t0
    cpu1, kids1 = cpu_seconds()
    return {
        "wall_s": wall,
        "cpu_s": (cpu1 - cpu0) + (kids1 - kids0),
        "child_cpu_s": kids1 - kids0,
        "calls": per_call,
        "codes": codes,
        "out_dirs": out_dirs,
        "digests": file_digests(out_dirs),
    }


def setup_once(workload: str, seed: int, smoke: bool, work: str) -> float:
    """Import batchband and build the workload's inputs; return seconds taken."""
    t0 = time.perf_counter()
    import_batchband()
    wl = WORKLOADS[workload](seed, SMOKE if smoke else FULL, Path(work))
    wl.setup()
    return time.perf_counter() - t0


def reference_import_s() -> float:
    """Seconds to import REF_IMPORTS, in an interpreter that has not."""
    loaded = [m for m in REF_IMPORTS if m in sys.modules]
    if loaded:
        raise RuntimeError(f"set-up imported {loaded}; REF_IMPORTS must be modules it does not use")
    t0 = time.perf_counter()
    for name in REF_IMPORTS:
        importlib.import_module(name)
    return time.perf_counter() - t0


def probe_setup(workload: str, seed: int, smoke: bool, work: Path) -> tuple[float, float]:
    """Time ``setup_once`` in a fresh interpreter, as a user's run pays it,
    and then ``reference_import_s`` there."""
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import run_bench; "
        "print(repr(run_bench.setup_once(sys.argv[2], int(sys.argv[3]), "
        "sys.argv[4] == '1', sys.argv[5])), repr(run_bench.reference_import_s()))"
    )
    res = subprocess.run(
        [sys.executable, "-c", code, str(BENCH_DIR), workload, str(seed),
         "1" if smoke else "0", str(work)],
        capture_output=True, text=True, timeout=170, check=True,
    )
    took, ref = map(float, res.stdout.strip().splitlines()[-1].split())
    return took, ref


def l3_bytes():
    """Last-level cache size from ``getconf``; None where it is unknown."""
    try:
        res = subprocess.run(["getconf", "LEVEL3_CACHE_SIZE"],
                             capture_output=True, text=True, timeout=30)
        size = int(res.stdout.strip())
    except (OSError, ValueError, subprocess.TimeoutExpired):
        return None
    return size if size > 0 else None


def git_sha():
    if not (ROOT / ".git").exists():
        return None
    try:
        res = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return res.stdout.strip() or None


def provenance(seed: int) -> dict:
    import numpy

    files = sorted((SRC / "batchband").glob("*.py"))
    src_hash = hashlib.sha256()
    lines = 0
    for f in files:
        data = f.read_bytes()
        src_hash.update(f.name.encode() + b"\0" + data)
        lines += data.count(b"\n")
    return {
        "git_sha": git_sha(),
        "src_sha256": src_hash.hexdigest(),
        "src_lines": lines,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "l3_bytes": l3_bytes(),
        "machine": platform.machine(),
        "seed": seed,
    }


def tail_percentile(samples):
    """Highest percentile with at least ten samples beyond it.

    Returns (value, percentile); with ten or fewer samples there is no
    such percentile and the maximum is returned as the 100th.
    """
    xs = sorted(samples)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100.0
    return xs[n - 11], 100.0 * (n - 10) / n


def check_runs(wl, runs):
    """Validate the first run's outputs; later runs must reproduce its bytes.

    Every run repeats the same inputs, so a run whose exit codes or output
    digests differ from the first counts all its operations as failed.
    """
    first = runs[0]
    per_run, first_failed, problems = wl.check(first["out_dirs"], first["codes"])
    failed = first_failed
    for r in runs[1:]:
        if r["codes"] != first["codes"] or r["digests"] != first["digests"]:
            failed += per_run
            problems.append(f"outputs of a rerun ({r['label']}) differ from the first run")
        else:
            failed += first_failed
    return per_run * len(runs), failed, problems


def add_setup_sample(args, work: Path, setup_samples: list) -> None:
    """One more ``probe_setup``, on the next CPU round robin."""
    probe_dir = work / f"probe{len(setup_samples)}"
    probe_dir.mkdir()
    with on_cpu(len(setup_samples), 1):
        setup_samples.append(probe_setup(args.workload, args.seed, args.smoke, probe_dir))
    shutil.rmtree(probe_dir)


def measure_e2e(wl, args, work):
    """End-to-end metrics from ``wl.passes(--seconds)`` passes, fewer when
    the next pass would end after PASS_CAP times ``--seconds``.

    ``wall_s`` and ``cpu_s`` sum ``reference_call`` over the workload's CLI
    calls.  ``setup_s`` is the median of ``wl.setup_probes`` set-ups in
    fresh interpreters, spread over the passes and, round robin, over the
    CPUs, each scaled by its REF_IMPORTS time.  Set-up is not scaled by ``HostSpeed``, whose probe slows down
    twice as much on a slow host, where an import slows by about half.
    """
    planned = wl.passes(args.seconds)
    setup_samples = []
    extra = wl.setup_probes
    # fresh-interpreter set-ups to run after each pass, spread evenly
    after = [sum(1 for j in range(extra) if (j * planned) // extra == i) for i in range(planned)]
    runs = []
    t_start = time.perf_counter()
    with PieceTimer() as timer:
        for i in range(planned):
            spent = time.perf_counter() - t_start
            if i >= MIN_PASSES and spent + spent / i > args.seconds * PASS_CAP:
                break
            with on_cpu(i, wl.threads):
                runs.append(run_iteration(wl, work / "out", wl.threads, timer))
            runs[-1]["label"] = f"pass {i + 1}"
            for _ in range(after[i]):
                add_setup_sample(args, work, setup_samples)
    # set-ups a shortened run did not reach
    while len(setup_samples) < wl.setup_probes:
        add_setup_sample(args, work, setup_samples)
    speed = timer.speed
    attempted, failed, problems = check_runs(wl, runs)
    per_call = [reference_call([r["calls"][i] for r in runs], speed)
                for i in range(len(runs[0]["calls"]))]
    wall = sum(w for w, _ in per_call)
    me = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    metrics = {
        "wall_s": wall,
        "steps_per_s": wl.steps() / wall,
        "cpu_s": sum(c for _, c in per_call),
        "setup_s": statistics.median(t * REF_IMPORT_S / r for t, r in setup_samples),
        "peak_rss_mb": max(me, kids) / 1024.0,
    }
    probes = [d for _, d, _ in speed.samples]
    detail = {
        "passes": len(runs),
        "pass_wall_samples": [r["wall_s"] for r in runs],
        "pass_cpu_samples": [r["cpu_s"] for r in runs],
        "pieces_per_pass": sum(len(c["pieces"]) for c in runs[0]["calls"]),
        "call_reference_wall_s": [w for w, _ in per_call],
        "probes": len(probes),
        "probe_fastest_s": min(probes),
        "probe_median_s": statistics.median(probes),
        "setup_samples": [t for t, _ in setup_samples],
        "setup_ref_import_s": [r for _, r in setup_samples],
        "steps": wl.steps(),
        "digests": runs[0]["digests"],
    }
    return metrics, attempted, failed, problems, detail


def pool_startup_s(workers: int, samples: int = 5) -> float:
    """Median time to start a process pool, run one trivial task per worker
    and shut it down: the per-call cost ``check-bounds`` pays whatever reps is."""
    from concurrent.futures import ProcessPoolExecutor

    times = []
    for _ in range(samples):
        t0 = time.perf_counter()
        with ProcessPoolExecutor(max_workers=workers) as pool:
            list(pool.map(abs, range(workers)))
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def measure_layers(wl, args, work):
    """Per-cell timings, then untraced and traced iterations.

    A workload with several workers first runs one iteration with them, for
    the pool metrics.  Per-cell timings come next, in whole passes over the
    cells until at least MIN_CELL_SAMPLES are timed; they also warm the
    process up.  A warm single-process iteration then runs directly before
    the traced one, which is single-process too because spans recorded in
    pool workers would be lost; ``trace.overhead_frac`` compares those two.
    """
    import batchband.harness
    from spans import Tracer

    runs = []
    if wl.threads > 1:
        runs.append(run_iteration(wl, work / "out", wl.threads))
        runs[-1]["label"] = f"untraced, {wl.threads} workers"

    cell_times = []
    configs = wl.single_cells()
    while configs and len(cell_times) < MIN_CELL_SAMPLES:
        for cfg in configs:
            t0 = time.perf_counter()
            batchband.harness.run_experiment(cfg, threads=1)
            cell_times.append(time.perf_counter() - t0)

    single = run_iteration(wl, work / "out", 1)
    single["label"] = "untraced, 1 worker"
    tracer = Tracer()
    with tracer:
        traced = run_iteration(wl, work / "out", 1)
    traced["label"] = "traced"
    runs += [single, traced]
    pooled = runs[0]
    attempted, failed, problems = check_runs(wl, runs)
    span = tracer.summary()
    if span["nesting_errors"]:
        failed += 1
        problems.append(f"{span['nesting_errors']} spans leave their parent's interval")
    # Every span is inside a cli.main call, so the self times of all spans
    # must add up to the wall time run_iteration measured around those calls.
    span["self_sum_err"] = abs(traced["wall_s"] - span["self_s_total"]) / traced["wall_s"]
    if span["self_sum_err"] > TRACE_GAP_TOL:
        failed += 1
        problems.append(f"span self times sum to {span['self_s_total']:.6f} s but the "
                        f"traced iteration took {traced['wall_s']:.6f} s")
    RESULTS_DIR.mkdir(exist_ok=True)
    tracer.write(RESULTS_DIR / f"spans-{wl.name}.csv")

    m = layer_metrics(span, wl, traced, single, pooled, cell_times)
    m["harness.pool.startup_s"] = pool_startup_s(wl.threads) if wl.threads > 1 else 0.0
    detail = {
        "span_summary": span,
        "cell_samples": len(cell_times),
        "wall_samples": {r["label"]: r["wall_s"] for r in runs},
        "digests": pooled["digests"],
    }
    return m, attempted, failed, problems, detail


def layer_metrics(span, wl, traced, single, pooled, cell_times):
    import csv

    by = span["by_name"]

    def get(name, key):
        return by.get(name, {}).get(key, 0)

    m = {
        "cli.self_s": get("cli.main", "self_s"),
        "core.derive_seed.calls": get("core.derive_seed", "calls"),
        "core.derive_seed.s": get("core.derive_seed", "s"),
        "policies.make.calls": get("policies.make", "calls"),
        "policies.make.s": get("policies.make", "s"),
        "policies.act.calls": get("policies.act", "calls"),
        "policies.act.s": get("policies.act", "s"),
        "policies.update.calls": get("policies.update", "calls"),
        "policies.update.s": get("policies.update", "s"),
        "environments.sample.calls": get("environments.sample", "calls"),
        "environments.sample.s": get("environments.sample", "s"),
        "environments.features.calls": get("environments.features", "calls"),
        "environments.features.s": get("environments.features", "s"),
        "environments.csv_read.s": get("environments.csv_read", "s"),
        "specifications.runs": get("specifications.run", "calls"),
        "specifications.self_s": get("specifications.run", "self_s"),
        "meta.runs": get("meta.run", "calls"),
        "meta.self_s": get("meta.run", "self_s"),
        "meta.check.calls": get("meta.check", "calls"),
        "meta.check.s": get("meta.check", "s"),
        "meta.pessimistic.calls": get("meta.pessimistic", "calls"),
        "harness.reduce.s": get("harness.cell", "self_s") + get("harness.bounds", "self_s"),
        "harness.csv_write.s": get("harness.csv_write", "s"),
        "replay.self_s": get("replay.evaluate", "self_s"),
        "harness.pool.child_cpu_s": pooled["child_cpu_s"],
        "harness.pool.parallelism": pooled["child_cpu_s"] / pooled["wall_s"],
        "trace.overhead_frac": traced["wall_s"] / single["wall_s"] - 1.0,
        "trace.spans": span["spans"],
        "trace.self_sum_err": span["self_sum_err"],
    }
    rows = nbytes = 0
    handed = meta_reps = 0
    offered = matched = 0
    for out in traced["out_dirs"]:
        for name in ("results.csv", "curves.csv"):
            p = out / name
            if p.exists():
                data = p.read_bytes()
                rows += data.count(b"\n")
                nbytes += len(data)
        if (out / "results.csv").exists():
            with open(out / "results.csv", newline="") as fh:
                for r in csv.DictReader(fh):
                    if r["tau_hat_none"]:
                        meta_reps += int(r["reps"])
                        handed += int(r["reps"]) - int(r["tau_hat_none"])
        if (out / "replay.csv").exists():
            with open(out / "replay.csv", newline="") as fh:
                for r in csv.DictReader(fh):
                    matched += int(r["matched"])
    if isinstance(wl, ReplayLog):
        offered = wl.records_offered()
        m["environments.csv_read.rows"] = sum(item[1] for item in wl.plan())
    else:
        m["environments.csv_read.rows"] = 0
    m["harness.csv_write.rows"] = rows
    m["harness.csv_write.bytes"] = nbytes
    m["meta.handover_frac"] = handed / meta_reps if meta_reps else 0.0
    m["replay.records"] = offered
    m["replay.match_frac"] = matched / offered if offered else 0.0
    if cell_times:
        tail, pct = tail_percentile(cell_times)
        m["harness.cell.s_p50"] = statistics.median(cell_times)
        m["harness.cell.s_tail"] = tail
        m["harness.cell.tail_pct"] = pct
        m["harness.cell.samples"] = len(cell_times)
    else:
        m.update({"harness.cell.s_p50": 0.0, "harness.cell.s_tail": 0.0,
                  "harness.cell.tail_pct": 0.0, "harness.cell.samples": 0})
    return m


def naive_cases(seed: int, smoke: bool):
    from batchband import derive_seed

    n = 300 if smoke else 2000
    return [
        (means, n, b, derive_seed(seed, "naive", i))
        for i, (means, b) in enumerate(
            [([0.7, 0.5], 1), ([0.7, 0.5], 8), ([0.7, 0.5, 0.3, 0.1], 1),
             ([0.7, 0.5, 0.3, 0.1], 8)]
        )
    ]


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="minimal sizes, for bench/selfcheck.py")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "batchband" / "__init__.py").is_file():
        print(f"error: no batchband source under {SRC}", file=sys.stderr)
        return 2
    WORK_DIR.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_DIR))
    try:
        return run(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def run(args, work: Path) -> int:
    setup_once(args.workload, args.seed, args.smoke, str(work))
    import checks

    sizes = SMOKE if args.smoke else FULL
    wl = WORKLOADS[args.workload](args.seed, sizes, work)
    if not args.trace:
        metrics, attempted, failed, problems, detail = measure_e2e(wl, args, work)
    else:
        metrics, attempted, failed, problems, detail = measure_layers(wl, args, work)

    a, f, p = checks.check_naive_ucb(naive_cases(args.seed, args.smoke))
    attempted += a
    failed += f
    problems += p
    if not args.trace:
        metrics["ok_frac"] = (attempted - failed) / attempted

    units = {d[0]: d[1] for d in (PER_LAYER if args.trace else END_TO_END)}
    missing = sorted(set(units) - set(metrics))
    if missing:
        problems.append(f"metrics not produced: {missing}")
        failed += 1
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units if k in metrics},
    }
    record = {
        "workload": args.workload,
        "trace": args.trace,
        "seconds": args.seconds,
        "smoke": args.smoke,
        "provenance": provenance(args.seed),
        "problems": problems,
        "detail": detail,
        "result": result,
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    out = RESULTS_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    for msg in problems:
        print(f"problem: {msg}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
