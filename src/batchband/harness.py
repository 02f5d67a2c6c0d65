"""Monte-Carlo experiment runner and theorem-bound checker.

``run_experiment`` sweeps (environment x policy x batch size) cells, runs
``reps`` independent trajectories per cell with seeds derived from
``(master_seed, cell key, rep index)``, and aggregates into a
``RegretTable``.  Work is split per cell; any thread count produces
byte-identical output because seeds never depend on scheduling and the
reduction walks cells in configured order.

``check_theorem_bounds`` estimates the three quantities of the regret
sandwich for a batch specification: the online regret R_n, the batch
regret R_n(b), and b times the regret of an online run over the number of
batches M (the short-specification identity).  Each inequality gets a
2-standard-error verdict; the gate passes on the upper bound and the
non-strict lower bound.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from itertools import repeat

import numpy as np

from .assumptions import RegretCurve, _mean_se, _verdict
from .core import derive_seed, make_grid, write_csv
from .environments import parse_env
from .meta import MonotoneBound, approx_delayed_start_run, delayed_start_run
from .policies import POLICY_NAMES, PolicyError, UniformPolicy, make_policy
from .specifications import run_batch, run_online, run_short

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


@dataclass(frozen=True)
class ExperimentConfig:
    """Declarative sweep description.

    ``envs`` entries are preset names or inline comma-separated means;
    ``policies`` are registry names.  ``mode`` selects plain runs or one of
    the delayed-start wrappers (``delta`` and ``bound_from`` apply to the
    approximate one).
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
        object.__setattr__(self, "batch_sizes", tuple(int(b) for b in self.batch_sizes))
        object.__setattr__(self, "policy_params", dict(self.policy_params))

    def validate(self) -> None:
        """Reject, before any cell runs, a configuration some cell cannot run."""
        if self.reps < 1:
            raise ConfigError("reps must be >= 1")
        if not self.envs or not self.policies or not self.batch_sizes:
            raise ConfigError("envs, policies, and batch_sizes must be non-empty")
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
        for b in self.batch_sizes:
            if b < 1:
                raise ConfigError(f"batch size {b} must be >= 1")
            if self.n < b:
                raise ConfigError(f"horizon {self.n} shorter than batch {b}")
        for e in self.envs:
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
        write_csv(path, header, (
            [r.env, r.policy, r.spec, r.b, r.n, r.reps, r.mean_final,
             r.stderr_final, r.opt_frac, r.tau_mean, r.tau_none]
            for r in self.rows
        ))

    def to_curves_csv(self, path) -> None:
        write_csv(path, ["cell", "t", "mean", "stderr"], (
            row
            for r in self.rows
            for row in zip(
                repeat(f"{r.env}|{r.policy}|{r.spec}|{r.b}"), range(1, r.n + 1),
                r.curve_mean.tolist(), r.curve_stderr.tolist(),
            )
        ))


def _cell_policy(name: str, env, n: int, params: dict):
    """Policy ``name`` for ``env`` over horizon ``n``; two_phase switches at
    ``n // 2`` unless ``params`` sets ``switch_t``."""
    if name == "two_phase":
        params = {"switch_t": n // 2, **params}
    return make_policy(name, env.k, params=params, env_means=env.means)


def _map(fn, payloads, threads: int) -> list:
    """``[fn(p) for p in payloads]``, in a pool of ``threads`` processes
    when there is more than one of each."""
    if threads <= 1 or len(payloads) == 1:
        return [fn(p) for p in payloads]
    with ProcessPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, payloads))


def _cell_key(env: str, policy: str, mode: str, n: int, b: int, delta, bound_from) -> str:
    if mode == "plain":
        return f"{env}|{policy}|{mode}|{n}|{b}"
    return f"{env}|{policy}|{mode}|{n}|{b}|{delta!r}|{bound_from}"


def _run_cell(payload):
    """One cell's repetitions as one lockstep engine call; module-level so
    process pools can pickle it."""
    (env_spec, policy_name, params, n, b, reps, master_seed, mode, delta, bound_from) = payload
    env = parse_env(env_spec)
    grid = make_grid(n, b)
    key = _cell_key(env_spec, policy_name, mode, n, b, delta, bound_from)
    seeds = [derive_seed(master_seed, key, i) for i in range(reps)]
    policy = _cell_policy(policy_name, env, n, params)
    if mode == "plain":
        run = run_batch(policy, env, grid, seeds)
    elif mode == "delayed_start":
        run = delayed_start_run(
            policy, UniformPolicy(env.k), MonotoneBound(env.means), env, grid, seeds,
        )
    else:
        run = approx_delayed_start_run(
            policy, env, grid, delta, seeds, bound_from=bound_from,
        )

    curve_mean, curve_stderr = _mean_se(run.pseudo_regret, axis=0)
    taus = [] if run.phases is None else [p.tau_hat for p in run.phases]
    done = [t for t in taus if t is not None]
    return CellResult(
        env=env_spec, policy=run.policy, spec=run.spec, b=b, n=grid.n, reps=reps,
        mean_final=float(curve_mean[-1]), stderr_final=float(curve_stderr[-1]),
        opt_frac=float((run.optimal_pulls / grid.n).mean()),
        mean_pull_counts=run.pull_counts.sum(axis=0) / reps,
        tau_mean=float(np.mean(done)) if done else None,
        tau_none=len(taus) - len(done) if mode != "plain" else None,
        curve_mean=curve_mean, curve_stderr=curve_stderr,
    )


def run_experiment(config: ExperimentConfig, threads: int = 1) -> RegretTable:
    """Run every configured cell and aggregate; output is thread-invariant."""
    config.validate()
    payloads = [
        (
            e, p, config.policy_params.get(p, {}), config.n, b, config.reps,
            config.master_seed, config.mode, config.delta, config.bound_from,
        )
        for (e, p, b) in config.cells()
    ]
    return RegretTable(rows=_map(_run_cell, payloads, threads), config=config)


@dataclass(eq=False)
class BoundInequality:
    name: str
    lhs_label: str
    rhs_label: str
    lhs: float
    rhs: float
    stderr: float
    verdict: str
    gate_pass: bool

    @property
    def diff(self) -> float:
        return self.rhs - self.lhs


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


def check_theorem_bounds(
    policy_name: str,
    env_spec: str,
    n: int,
    b: int,
    reps: int,
    master_seed: int = 0,
    policy_params: dict | None = None,
    threads: int = 1,
) -> BoundReport:
    """Monte-Carlo check of R_n(online) <= R_n(batch b) <= b * R_M(online).

    Batch size 1 collapses all three quantities and is rejected.  The
    strict lower inequality is reported with a 2-standard-error verdict but
    only its non-strict version gates; the upper inequality gates at the
    same slack.
    """
    if b < 2:
        raise ConfigError("bound check needs b >= 2; at b=1 the sandwich collapses")
    if reps < 2:
        raise ConfigError("bound check needs reps >= 2 for a standard error")
    env = parse_env(env_spec)
    policy = _cell_policy(policy_name, env, n, policy_params or {})
    grid = make_grid(n, b)
    n, m = grid.n, grid.M

    payloads = [
        (policy_name, env_spec, policy, n, b, master_seed, lo, hi)
        for lo, hi in _split_reps(reps, threads)
    ]
    parts = _map(_bound_chunk, payloads, threads)
    means, ses = _mean_se(np.concatenate(parts))
    mean_on, mean_b, mean_m = (float(x) for x in means)
    se_on, se_b, se_m = (float(x) for x in ses)

    d_low = mean_b - mean_on
    se_low = float(np.hypot(se_b, se_on))
    d_up = b * mean_m - mean_b
    se_up = float(np.hypot(b * se_m, se_b))
    inequalities = [
        BoundInequality(
            name="lower", lhs_label="R_n(online)", rhs_label=f"R_n(b={b})",
            lhs=mean_on, rhs=mean_b, stderr=se_low,
            verdict=_verdict(d_low, se_low), gate_pass=d_low >= -2 * se_low,
        ),
        BoundInequality(
            name="upper", lhs_label=f"R_n(b={b})", rhs_label=f"{b}*R_{m}(online)",
            lhs=mean_b, rhs=b * mean_m, stderr=se_up,
            verdict=_verdict(d_up, se_up), gate_pass=d_up >= -2 * se_up,
        ),
    ]
    return BoundReport(
        policy=policy_name, env=env_spec, n=n, b=b, m=m, reps=reps,
        mean_online=mean_on, se_online=se_on, mean_batch=mean_b, se_batch=se_b,
        mean_m=mean_m, se_m=se_m, inequalities=inequalities,
    )


def _split_reps(reps: int, threads: int):
    """One contiguous chunk of reps per worker: an engine call costs mostly
    per batch, whatever its rep count, so fewer and larger chunks are
    cheaper."""
    per = -(-reps // max(threads, 1))
    return [(lo, min(lo + per, reps)) for lo in range(0, reps, per)]


def _bound_chunk(payload):
    """Final regrets of reps ``lo..hi-1`` as a (reps, 3) array: online over
    n, batch b over n, online over M; one lockstep engine call each."""
    policy_name, env_spec, policy, n, b, master_seed, lo, hi = payload
    env = parse_env(env_spec)
    grid = make_grid(n, b)
    key = f"thm|{env_spec}|{policy_name}|{n}|{b}"

    def seeds(tag):
        return [derive_seed(master_seed, key, tag, i) for i in range(lo, hi)]

    r_on = run_online(policy, env, n, seeds("online"))
    r_b = run_batch(policy, env, grid, seeds("batch"))
    r_m = run_online(policy, env, grid.M, seeds("short"))
    return np.column_stack([r_on.final_regret, r_b.final_regret, r_m.final_regret])


def regret_curve(
    policy, env, spec: str, grid, reps: int, master_seed: int = 0,
) -> RegretCurve:
    """Pointwise mean and stderr of cumulative pseudo-regret over reps."""
    if spec not in ("online", "batch", "short"):
        raise ConfigError("spec must be online, batch, or short")
    seeds = [derive_seed(master_seed, "curve", spec, grid.n, grid.b, i) for i in range(reps)]
    if spec == "online":
        run = run_online(policy, env, grid.n, seeds)
    elif spec == "batch":
        run = run_batch(policy, env, grid, seeds)
    else:
        run = run_short(policy, env, grid, seeds)
    return RegretCurve.from_runs(run.pseudo_regret)
