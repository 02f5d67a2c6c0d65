"""Monte-Carlo experiment runner and theorem-bound checker.

``run_experiment`` sweeps (environment x policy x batch size) cells, runs
``reps`` independent trajectories per cell with seeds derived from
``(master_seed, cell key, rep index)``, and aggregates into a
``RegretTable``.  Where a policy draws, a cell simulates whole blocks of
reps and drops the surplus, so its first ``reps`` trajectories do not
depend on ``reps``.  Plain cells of equal policy and batch size share
engine calls (``STACK_STEPS``), whose groups are split over ``threads``
working processes, the caller and children it forks, each pulling the next
group when it is free (see ``_map``).  Any thread count produces
byte-identical output because seeds never depend on scheduling or stacking.

``bound_reports`` reads the regret sandwich off a plain ``RegretTable``:
no policy reads its horizon, so a pair's b=1 curve holds R_n(online) and,
at step M = n // b, R_M(online) for each b cell's R_n(b).  Each inequality
gets a 2-standard-error verdict, and its gate passes unless that verdict
is ``violated``.  ``check_theorem_bounds`` is ``bound_reports`` of a
sweep over b in {1, b}.
"""

from __future__ import annotations

import numbers
import operator
import os
import pickle
import sys
from dataclasses import dataclass, field

import numpy as np

from .core import _verdict, make_grid, write_csv
from .core import derive_seed  # noqa: F401  bench/spans.py wraps it
from .environments import parse_env
from .meta import MonotoneBound, approx_delayed_start_run, delayed_start_run
from .policies import POLICY_NAMES, PolicyError, UniformPolicy, make_policy
from .specifications import Curves, run_batch, sim_seeds, whole_blocks
from .specifications import run_online  # noqa: F401  bench/run_bench.py and bench/spans.py wrap it

MODES = ("plain", "delayed_start", "approx_delayed_start")


class ConfigError(ValueError):
    """Raised for invalid experiment configuration, before any run starts."""


def resolve_threads(requested: int | None = None) -> int:
    """Thread count: explicit value, else BATCHBAND_THREADS, else cpu count."""
    if requested is not None:
        if requested < 1:
            raise ConfigError("threads must be >= 1")
        return requested
    env_val = os.environ.get("BATCHBAND_THREADS")
    if env_val:
        try:
            n = int(env_val)
        except ValueError:
            raise ConfigError(f"BATCHBAND_THREADS={env_val!r} is not an integer")
        if n < 1:
            raise ConfigError("BATCHBAND_THREADS must be >= 1")
        return n
    return os.cpu_count() or 1


def _reject_repeats(label: str, values) -> None:
    """Raise ``ConfigError`` for an entry of ``values`` given twice, which
    would run, and write, the same cells twice."""
    for v in values:
        if values.count(v) > 1:
            raise ConfigError(f"{label} {v!r} is given twice")


def _integer(label: str, value) -> int:
    """``value`` as an ``int``, or ``ConfigError`` unless ``operator.index``
    takes it: a float would be truncated, or would seed runs by its text."""
    try:
        return operator.index(value)
    except TypeError:
        raise ConfigError(f"{label} must be an integer, got {value!r}") from None


@dataclass(frozen=True)
class ExperimentConfig:
    """Declarative sweep description.

    ``envs`` entries are preset names or inline comma-separated means;
    ``policies`` are registry names.  ``mode`` selects plain runs or one of
    the delayed-start wrappers (``delta`` and ``bound_from`` apply to the
    approximate one).  ``n``, ``reps``, ``master_seed`` and the batch sizes
    must be integers and ``delta`` a real number, which enters seeds as a float.
    """

    envs: tuple
    policies: tuple
    n: int
    batch_sizes: tuple
    reps: int
    master_seed: int
    mode: str = "plain"
    delta: float = 0.01
    bound_from: str = "instance"
    policy_params: dict = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "envs", tuple(self.envs))
        object.__setattr__(self, "policies", tuple(self.policies))
        for name in ("n", "reps", "master_seed"):
            object.__setattr__(self, name, _integer(name, getattr(self, name)))
        object.__setattr__(self, "batch_sizes",
                           tuple(_integer("batch size", b) for b in self.batch_sizes))
        if not isinstance(self.delta, numbers.Real):
            raise ConfigError(f"delta must be a real number, got {self.delta!r}")
        object.__setattr__(self, "delta", float(self.delta))
        object.__setattr__(self, "policy_params", dict(self.policy_params))

    def validate(self) -> None:
        """Reject, before any cell runs, a configuration some cell cannot run."""
        if self.reps < 1:
            raise ConfigError("reps must be >= 1")
        for name in ("n", "reps"):
            if getattr(self, name) > sys.maxsize:
                raise ConfigError(
                    f"{name} must be at most {sys.maxsize}, the largest size numpy indexes")
        if not self.envs or not self.policies or not self.batch_sizes:
            raise ConfigError("envs, policies, and batch_sizes must be non-empty")
        _reject_repeats("env", self.envs)
        _reject_repeats("policy", self.policies)
        _reject_repeats("batch size", self.batch_sizes)
        if self.mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}")
        if not 0.0 < self.delta < 1.0:
            raise ConfigError("delta must lie in (0, 1)")
        if self.bound_from not in ("instance", "oracle"):
            raise ConfigError("bound_from must be 'instance' or 'oracle'")
        for p in self.policies:
            if p not in POLICY_NAMES:
                raise ConfigError(f"unknown policy {p!r}; choose from {POLICY_NAMES}")
            if p in ("linucb", "lints"):
                raise ConfigError(
                    f"policy {p!r} needs contextual environments; the sweep "
                    "harness runs finite-armed presets (see replay for contextual use)"
                )
        for p in self.policy_params:
            if p not in self.policies:
                raise ConfigError(f"policy_params names {p!r}, which the sweep does not run")
        for b in self.batch_sizes:
            if b < 1:
                raise ConfigError(f"batch size {b} must be >= 1")
            if self.n < b:
                raise ConfigError(f"horizon {self.n} shorter than batch {b}")
        for e in self.envs:
            if not isinstance(e, str):
                raise ConfigError(f"env {e!r} must be a preset name or a mean list")
            try:
                env = parse_env(e)
                if self.mode == "delayed_start":
                    MonotoneBound(env.means)
            except (ValueError, KeyError) as exc:
                raise ConfigError(f"bad env {e!r}: {exc}") from exc
            for p in self.policies:
                try:
                    _cell_policy(p, env, self.n, self.policy_params.get(p, {}))
                except PolicyError as exc:
                    raise ConfigError(f"policy {p!r} on env {e!r}: {exc}") from exc

    def cells(self):
        """Cell tuples in deterministic configured order."""
        return [
            (e, p, b)
            for e in self.envs
            for p in self.policies
            for b in self.batch_sizes
        ]


@dataclass(eq=False)
class CellResult:
    env: str
    policy: str
    spec: str
    b: int
    n: int
    reps: int
    mean_final: float
    stderr_final: float
    opt_frac: float
    mean_pull_counts: np.ndarray
    tau_mean: float | None
    tau_none: int | None
    curve_mean: np.ndarray
    curve_stderr: np.ndarray


@dataclass(eq=False)
class RegretTable:
    rows: list
    config: ExperimentConfig

    def row(self, env: str, policy: str, b: int) -> CellResult:
        for r in self.rows:
            if r.env == env and r.policy == policy and r.b == b:
                return r
        raise KeyError(f"no cell ({env}, {policy}, b={b})")

    def to_results_csv(self, path) -> None:
        header = [
            "env", "policy", "spec", "b", "n", "reps", "mean_final_regret",
            "stderr_final_regret", "mean_optimal_fraction", "tau_hat_mean", "tau_hat_none",
        ]
        write_csv(path, header, [zip(*(
            [r.env, r.policy, r.spec, r.b, r.n, r.reps, r.mean_final,
             r.stderr_final, r.opt_frac, r.tau_mean, r.tau_none]
            for r in self.rows
        ))])

    def to_curves_csv(self, path) -> None:
        """One block per cell, so one cell's rows are held at a time."""
        write_csv(path, ["cell", "t", "mean", "stderr"], (
            ([f"{r.env}|{r.policy}|{r.spec}|{r.b}"] * r.n, range(1, r.n + 1),
             r.curve_mean, r.curve_stderr)
            for r in self.rows
        ))


def _cell_policy(name: str, env, n: int, params: dict):
    """Policy ``name`` for ``env`` over horizon ``n``; two_phase switches at
    ``n // 2`` unless ``params`` sets ``switch_t``."""
    if name == "two_phase":
        params = {"switch_t": n // 2, **params}
    return make_policy(name, env.k, params=params, env_means=env.means)


# payload indices per round of ``_map``: 1,024 indices of 4 bytes fill one
# page, which an empty pipe always holds, so the caller writes a round's
# indices before it forks and never waits on a full pipe
_ROUND = 1024


def _map(fn, payloads, threads: int) -> list:
    """``[fn(p) for p in payloads]`` over ``threads`` working processes, the
    caller included, and never more than there are payloads.

    The other workers are children forked from the caller, so payloads reach
    them by fork, not by pickle.  Each process first runs a payload of its
    own, the caller payload 0 and child ``i`` payload ``i``, so which process
    runs which of the first ``threads`` payloads never depends on when each
    one starts.  The caller writes every other payload index to one pipe,
    and each process reads the next index only when it is free: nothing is
    prefetched, and no process idles while payloads remain.  Once the pipe
    is empty, each child sends its ``{index: result}`` pickled once,
    over a pipe of its own, and leaves by ``os._exit``.  Results come back
    in payload order, whichever process ran them.  A payload that raises
    makes its process drain the index pipe, so that no process starts
    another; the caller waits for every child and re-raises the error of the
    first failed payload, and a child that dies without a reply raises
    ``RuntimeError``.  Where ``os.fork`` does not exist the caller runs every
    payload: outputs never depend on the process count.
    """
    workers = min(threads, len(payloads)) if hasattr(os, "fork") else 1
    if workers <= 1:
        return [fn(p) for p in payloads]
    if len(payloads) > _ROUND:
        return _map(fn, payloads[:_ROUND], threads) + _map(fn, payloads[_ROUND:], threads)
    tasks, feed = os.pipe()
    os.write(feed, np.arange(workers, len(payloads), dtype="<u4").tobytes())
    os.close(feed)
    done, errors, replies = {}, [], {}  # replies: child pid -> read end of its pipe
    try:
        for first in range(1, workers):
            reply, out = os.pipe()
            pid = os.fork()
            if pid == 0:  # the child leaves by os._exit, so no caller code runs twice
                code = 1
                try:
                    _pull(fn, payloads, first, tasks, done, errors)
                    with open(out, "wb") as fh:
                        fh.write(pickle.dumps((done, errors)))
                    code = 0
                finally:
                    os._exit(code)
            os.close(out)
            replies[pid] = reply
        _pull(fn, payloads, 0, tasks, done, errors)
        for pid, reply in replies.items():
            with open(reply, "rb", closefd=False) as fh:
                data = fh.read()
            if not data:
                errors.append((len(payloads), RuntimeError(
                    f"worker process {pid} exited without a reply")))
                continue
            got, failed = pickle.loads(data)
            done.update(got)
            errors += failed
    finally:
        _drain(tasks)
        for fd in (tasks, *replies.values()):
            os.close(fd)
        for pid in replies:
            os.waitpid(pid, 0)
    if errors:
        raise min(errors, key=lambda e: e[0])[1]
    return [done[i] for i in range(len(payloads))]


def _pull(fn, payloads, first: int, tasks: int, done: dict, errors: list) -> None:
    """Run into ``done`` payload ``first`` and then each payload whose index
    this process reads from the pipe ``tasks``, one at a time, until the
    pipe is empty.  A payload that raises goes into ``errors`` as ``(index,
    error)``, and the pipe is drained so that no process starts another."""
    i = first
    while True:
        try:
            done[i] = fn(payloads[i])
        except Exception as exc:
            errors.append((i, exc))
            _drain(tasks)
        if not (index := os.read(tasks, 4)):
            return
        i = int.from_bytes(index, "little")


def _drain(tasks: int) -> None:
    """Empty the index pipe ``tasks``: every read takes whole indices, since
    all were written before any was read."""
    while os.read(tasks, 4096):
        pass


def _cell_seeds(c: ExperimentConfig, env: str, p: str, b: int, pads: bool) -> list:
    """The seeds that ``c``'s cell ``(env, p, b)`` simulates, whole blocks of
    reps if it ``pads`` (``sim_seeds``), on a key that ``c.delta`` and
    ``c.bound_from`` enter only in the mode that reads them."""
    key = f"{env}|{p}|{c.mode}|{c.n}|{b}"
    key += f"|{c.delta!r}|{c.bound_from}" if c.mode == "approx_delayed_start" else ""
    return sim_seeds(pads, c.reps, c.master_seed, key)


def _run_cell(group):
    """A ``CellResult`` per env of ``group``, ``(config, policy name, b,
    policy, pads, envs)``: cells of one policy and batch size, padded when
    ``pads``, from one engine call."""
    c, p, b, policy, pads, env_specs = group
    envs = [parse_env(e) for e in env_specs]
    seeds = [s for e in env_specs for s in _cell_seeds(c, e, p, b, pads)]
    sim = len(seeds) // len(envs)
    grid = make_grid(c.n, b)
    env = envs[0]
    keep = Curves((i * sim, i * sim + c.reps) for i in range(len(envs)))
    if c.mode == "plain":
        run_batch(policy, tuple((e, sim) for e in envs), grid, seeds, keep=keep)
    elif c.mode == "delayed_start":
        delayed_start_run(policy, UniformPolicy(env.k), MonotoneBound(env.means), env, grid,
                          seeds, keep=keep)
    else:
        approx_delayed_start_run(policy, env, grid, c.delta, seeds, bound_from=c.bound_from,
                                 keep=keep)

    results, run = [], keep.run
    for env_spec, (lo, hi), curve_mean, curve_stderr in zip(
            env_specs, keep.groups, keep.mean, keep.stderr):
        taus = run.tau[lo:hi]
        done = taus[taus >= 0]
        results.append(CellResult(
            env=env_spec, policy=run.policy, spec=run.spec, b=b, n=grid.n, reps=c.reps,
            mean_final=float(curve_mean[-1]), stderr_final=float(curve_stderr[-1]),
            opt_frac=float((keep.hits[lo:hi] / grid.n).mean()),
            mean_pull_counts=keep.pulls[lo:hi].sum(axis=0) / c.reps,
            tau_mean=float(np.mean(done)) if done.size else None,
            tau_none=int((taus < 0).sum()) if c.mode != "plain" else None,
            curve_mean=curve_mean, curve_stderr=curve_stderr,
        ))
    return results


# An engine call holds up to this many simulated rep-steps, unless one cell
# needs more; a full call of 16 ts cells of 32 reps at n=2048 peaks at 6.9 MiB.
# Calls of 0.2M to 3M at 256 and 512 reps took 0.90-1.16 times their cells alone
# and peaked 4.9-12.7 MiB higher (BENCH_29.json); with every cell alone the
# benchmark's fig1_sweep took 1.41 times as long (30/30 rounds, BENCH_35.json;
# tools/time_fast_paths.py re-measures it)
STACK_STEPS = 2**20


def run_experiment(config: ExperimentConfig, threads: int = 1) -> RegretTable:
    """Run every configured cell and aggregate; output is thread-invariant.

    Plain cells of equal policy and batch size are grouped, in configured
    order, into one engine call while their simulated rep-steps fit
    ``STACK_STEPS``, at every thread count; other cells run alone."""
    if _integer("threads", threads) < 1:
        raise ConfigError("threads must be >= 1")
    config.validate()
    c, groups, open_groups = config, [], {}
    budget = STACK_STEPS if c.mode == "plain" else 0
    for e, p, b in c.cells():
        policy = _cell_policy(p, parse_env(e), c.n, c.policy_params.get(p, {}))
        # the delayed starts' first phase is uniform play, which draws
        pads = policy.draws or c.mode != "plain"
        group = open_groups.get((policy, b))
        if group is None or (len(group[-1]) + 1) * whole_blocks(c.reps, pads) * c.n > budget:
            group = open_groups[policy, b] = (c, p, b, policy, pads, [])
            groups.append(group)
        group[-1].append(e)
    results = _map(_run_cell, groups, threads)
    rows = {(e, g[1], g[2]): r for g, rs in zip(groups, results) for e, r in zip(g[-1], rs)}
    return RegretTable(rows=[rows[cell] for cell in c.cells()], config=c)


@dataclass(eq=False)
class BoundInequality:
    name: str
    lhs_label: str
    rhs_label: str
    lhs: float
    rhs: float
    stderr: float

    @property
    def diff(self) -> float:
        return self.rhs - self.lhs

    @property
    def verdict(self) -> str:
        return _verdict(self.diff, self.stderr)

    @property
    def gate_pass(self) -> bool:
        """The non-strict inequality within 2 standard errors."""
        return self.verdict != "violated"


@dataclass(eq=False)
class BoundReport:
    policy: str
    env: str
    n: int
    b: int
    m: int
    reps: int
    mean_online: float
    se_online: float
    mean_batch: float
    se_batch: float
    mean_m: float
    se_m: float
    inequalities: list

    @property
    def gate_pass(self) -> bool:
        return all(iq.gate_pass for iq in self.inequalities)


def check_theorem_bounds(policy_name: str, env_spec: str, n: int, b: int, reps: int,
                         master_seed: int = 0, policy_params: dict | None = None,
                         threads: int = 1) -> BoundReport:
    """Monte-Carlo check of R_n(online) <= R_n(batch b) <= b * R_M(online):
    the ``bound_reports`` row of the sweep of ``policy_name`` on ``env_spec``
    over b in {1, ``b``}, whose cells are ``run_experiment``'s own.

    Batch size 1 collapses all three quantities and is rejected.  The
    strict lower inequality is reported with a 2-standard-error verdict but
    only its non-strict version gates; the upper inequality gates at the
    same slack.
    """
    n, b, reps, master_seed = map(
        _integer, ("n", "b", "reps", "master_seed"), (n, b, reps, master_seed))
    if b < 2:
        raise ConfigError("bound check needs b >= 2; at b=1 the sandwich collapses")
    if reps < 2:
        raise ConfigError("bound check needs reps >= 2 for a standard error")
    config = ExperimentConfig(
        envs=(env_spec,), policies=(policy_name,), n=n, batch_sizes=(1, b), reps=reps,
        master_seed=master_seed, policy_params={policy_name: policy_params or {}})
    return bound_reports(run_experiment(config, threads=threads))[0]


def bound_reports(table: RegretTable) -> list[BoundReport]:
    """A ``BoundReport`` per (env, policy, b >= 2) cell of ``table``, in row
    order: R_n(online) and R_M(online) off the pair's b=1 curve at the cell's
    truncated n and at M = n // b, and R_n(b) the cell's final mean, each
    inequality's error the ``hypot`` of its independent sides'.
    ``ConfigError`` unless ``table`` is plain, of at least 2 reps, and has
    the b=1 cell of each pair it has a b >= 2 cell of."""
    c = table.config
    if c.mode != "plain":
        raise ConfigError(f"bound reports read plain tables, not mode {c.mode!r}")
    if c.reps < 2:
        raise ConfigError("bound reports need reps >= 2 for a standard error")
    online = {(r.env, r.policy): r for r in table.rows if r.b == 1}
    reports = []
    for r in (r for r in table.rows if r.b > 1):
        if (r.env, r.policy) not in online:
            raise ConfigError(f"cell ({r.env}, {r.policy}, b={r.b}) has no b=1 cell "
                              "to read R_n(online) off")
        b, m, curve = r.b, r.n // r.b, online[r.env, r.policy]
        mean_on, mean_m = curve.curve_mean[[r.n - 1, m - 1]].tolist()
        se_on, se_m = curve.curve_stderr[[r.n - 1, m - 1]].tolist()
        reports.append(BoundReport(
            policy=r.policy, env=r.env, n=r.n, b=b, m=m, reps=r.reps,
            mean_online=mean_on, se_online=se_on, mean_batch=r.mean_final,
            se_batch=r.stderr_final, mean_m=mean_m, se_m=se_m, inequalities=[
                BoundInequality("lower", "R_n(online)", f"R_n(b={b})", mean_on,
                                r.mean_final, float(np.hypot(r.stderr_final, se_on))),
                BoundInequality("upper", f"R_n(b={b})", f"{b}*R_{m}(online)", r.mean_final,
                                b * mean_m, float(np.hypot(b * se_m, r.stderr_final))),
            ],
        ))
    return reports
