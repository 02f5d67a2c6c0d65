"""Delayed-start meta-algorithms and the certification machinery behind them.

The closed-form bound ``MonotoneBound`` lower-bounds, for an index policy on
a finite-armed instance, the probability that the next decision is optimal:
each suboptimal arm ``a`` contributes ``min(1, 4 ln(t+1) / (t Delta_a^2) +
8/t)`` and the bound is one minus their sum, clamped to [0, 1].  It is
non-decreasing in ``t`` and never decreases when every gap widens.

Two meta-runners wrap a candidate policy:

* ``delayed_start_run`` plays a naive policy until the first batch boundary
  where a supplied bound becomes positive, then hands the candidate the full
  accumulated history (the bound is typically built from the true instance,
  so this is the oracle variant).
* ``approx_delayed_start_run`` estimates the instance on the fly.  At each
  batch boundary it forms a pessimistic instance from confidence intervals
  (leader shrunk by its interval, every other arm inflated by its own) and
  certifies the switch only when the bound of that pessimistic instance
  beats uniform play and the failure probability ``2K/t^2`` is below the
  requested ``delta``.

Both run their reps in lockstep; the uniform first phase draws from the
engine's block streams, so a caller reporting ``reps`` results simulates
whole blocks and drops the surplus (``specifications.whole_blocks``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import BatchGrid
from .environments import BernoulliEnv
from .policies import UniformPolicy
from .specifications import run_lockstep, seed_list


class InsufficientDataError(ValueError):
    """Raised when a certification check is asked before every arm has data."""


@dataclass(frozen=True, eq=False)
class MonotoneBound:
    """Aggregate lower bound on the chance of an optimal next pull.

    Requires a unique best arm.  ``per_arm(t)`` gives each suboptimal arm's
    clamped contribution (zero at the best arm); ``aggregate(t)`` is the
    bound itself.  Both accept scalar or array ``t``.
    """

    theta: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.theta, dtype=float)
        if arr.ndim != 1 or arr.size < 2:
            raise ValueError("need a 1-D instance with at least two arms")
        best = arr.max()
        if int((arr == best).sum()) != 1:
            raise ValueError("bound needs a unique best arm")
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "theta", arr)

    def per_arm(self, t) -> np.ndarray:
        """Clamped per-arm terms, shape (..., k); zero at the best arm."""
        t_arr = np.asarray(t, dtype=float)
        if np.any(t_arr < 1):
            raise ValueError("bound defined for t >= 1")
        return _terms(self.theta.max() - self.theta, t_arr[..., None])

    def aggregate(self, t):
        """The bound ``max(0, 1 - sum of per-arm terms)`` at time(s) ``t``."""
        total = self.per_arm(t).sum(axis=-1)
        out = _unit(1.0 - total)
        return float(out) if np.isscalar(t) or np.asarray(t).ndim == 0 else out

    def __call__(self, t):
        return self.aggregate(t)


def _terms(gaps, tt) -> np.ndarray:
    """Clamped per-arm bound terms for gaps broadcast against times ``tt``."""
    with np.errstate(divide="ignore"):
        raw = 4.0 * np.log(tt + 1.0) / (tt * gaps**2) + 8.0 / tt
    return _unit(np.where(gaps > 0, raw, 0.0))


def _unit(x):
    """``x`` clamped to [0, 1], as ``np.clip`` would, at less dispatch cost."""
    return np.minimum(np.maximum(x, 0.0), 1.0)


def _stays(theta, t: int, k: int, delta: float):
    """Tail of the certification on instances ``theta`` (..., k) with a
    unique best arm: stay while their bound at ``t`` does not beat uniform
    play or the failure budget ``2k/t^2`` is not below ``delta``."""
    gaps = theta.max(axis=-1, keepdims=True) - theta
    total = _terms(gaps, np.asarray(t, dtype=float)[..., None]).sum(axis=-1)
    bound = _unit(1.0 - total)
    return (bound <= 1.0 / k) | (2.0 * k / (t * t) >= delta)


def pessimistic_instance(counts, means, t: int) -> np.ndarray:
    """Confidence-box corner least favourable to the current leader.

    The empirical leader is shrunk by its interval width
    ``sqrt(ln t / pulls)`` and every other arm is inflated by its own width.
    ``counts`` and ``means`` are one instance (k,) or one per row (R, k).
    """
    counts = np.asarray(counts, dtype=float)
    means = np.asarray(means, dtype=float)
    return _pessimistic(counts, means, t)[0]


def _pessimistic(counts, means, t: int):
    """``pessimistic_instance`` of float arrays, and the index pair
    ``(rows, leaders)`` of each row's leader in its (R, k) view."""
    if counts.shape != means.shape or counts.ndim not in (1, 2):
        raise ValueError("counts and means must be matching 1-D or 2-D arrays")
    if np.any(counts < 1):
        raise InsufficientDataError("every arm needs at least one pull")
    if t < 2:
        raise ValueError("certification needs t >= 2")
    widths = np.sqrt(math.log(t) / counts)
    theta_hat = means + widths
    k = means.shape[-1]
    means, widths = means.reshape(-1, k), widths.reshape(-1, k)
    at = (np.arange(len(means)), means.argmax(axis=1))
    theta_hat.reshape(-1, k)[at] = means[at] - widths[at]
    return theta_hat, at


def check_phase(counts, means, t: int, k: int, delta: float):
    """One certification check; True means "stay in phase 1".

    The check passes (returns False) only when the pessimistic instance
    still has the empirical leader on top, its bound at ``t`` beats uniform
    play, and the failure probability ``2k/t^2`` is below ``delta``.  Rows
    of (R, k) inputs are checked independently into a boolean array.
    """
    counts = np.asarray(counts, dtype=float)
    means = np.asarray(means, dtype=float)
    if counts.shape[-1] != k or means.shape[-1] != k:
        raise ValueError(f"expected {k} arms")
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    theta_hat, at = _pessimistic(counts, means, t)
    thetas = theta_hat.reshape(-1, k)
    others = thetas.copy()
    others[at] = -np.inf
    # where intervals still overlap the ordering is uncertified
    stay = (thetas[at] <= others.max(axis=1)) | _stays(thetas, t, k, delta)
    return bool(stay[0]) if theta_hat.ndim == 1 else stay


@dataclass(eq=False)
class PhaseState:
    """Outcome of a delayed-start run's phase structure.

    ``tau_hat`` is the last phase-1 timestep (always a batch boundary, 0
    when the candidate runs from the start, None when phase 1 never ends).
    The diagnostic fields record what the certification saw at the switch.
    """

    phase1: bool
    tau_hat: int | None
    delta: float | None = None
    counts: np.ndarray | None = None
    means: np.ndarray | None = None
    theta_hat: np.ndarray | None = None


def _require_bernoulli(env) -> None:
    if not isinstance(env, BernoulliEnv):
        raise TypeError("delayed-start runners support finite-armed environments only")


def delayed_start_run(
    candidate,
    naive,
    bound,
    env: BernoulliEnv,
    grid: BatchGrid,
    seed,
):
    """Oracle delayed start: switch at the first epoch where ``bound > 0``.

    ``bound`` is any callable mapping a timestep to a real number, normally
    a ``MonotoneBound`` built from the true instance.  The naive policy
    plays (and history accrues on the batch schedule) before the switch;
    the candidate then takes over with the full accumulated history.
    ``seed`` is one integer, for a ``RunRecord``, or a sequence of per-rep
    seeds, for a ``RunSet`` of lockstep reps.
    """
    _require_bernoulli(env)
    seeds, single = seed_list(seed)

    def gate(t, naive_state, rows):
        # the epoch starting at step t + 1; the bound is the same for every rep
        return np.full(rows.size, t < grid.n and bound(t + 1) > 0.0)

    run = run_lockstep(candidate, env, grid, seeds, naive=naive, gate=gate)
    run.phases = [
        PhaseState(phase1=tau < 0, tau_hat=None if tau < 0 else tau)
        for tau in run.tau.tolist()
    ]
    run.policy = f"delayed_start({candidate.name})"
    return run.record(0) if single else run


def approx_delayed_start_run(
    candidate,
    env: BernoulliEnv,
    grid: BatchGrid,
    delta: float,
    seed,
    bound_from: str = "instance",
):
    """Estimated delayed start: certify the switch from data at batch ends.

    Uniform play runs phase 1.  At each phase-1 boundary ``t = jb`` the
    check needs every arm pulled at least once; otherwise it simply stays in
    phase 1.  ``bound_from`` picks
    what feeds the bound: ``"instance"`` uses the pessimistic estimate (the
    real algorithm), ``"oracle"`` substitutes the true means, a diagnostic
    that isolates estimation error.  ``seed`` is one integer or a sequence,
    as for ``delayed_start_run``; each boundary is checked once for all
    phase-1 reps together.
    """
    _require_bernoulli(env)
    if bound_from not in ("instance", "oracle"):
        raise ValueError("bound_from must be 'instance' or 'oracle'")
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    seeds, single = seed_list(seed)
    k = env.k
    truth = env.means
    truth_unique = int((truth == truth.max()).sum()) == 1
    switched = {}  # rep -> (counts, means, theta_hat) at its switch

    def gate(t, naive_state, rows):
        switch = np.zeros(rows.size, dtype=bool)
        counts, sums = naive_state.counts, naive_state.sums
        if rows.size < len(counts):
            counts, sums = counts[rows], sums[rows]
        ready = counts.min(axis=1) >= 1
        if t < 2 or not ready.any():
            return switch
        if not ready.all():
            counts, sums = counts[ready], sums[ready]
        means = sums / counts
        if bound_from == "oracle":
            oracle_stays = not truth_unique or bool(_stays(truth, t, k, delta))
            passed = np.full(len(counts), not oracle_stays)
        else:
            passed = ~check_phase(counts, means, t, k, delta)
        if passed.any():
            switch[ready] = passed
            counts, means = counts[passed], means[passed]
            if bound_from == "oracle":
                thetas = np.broadcast_to(truth, counts.shape)
            else:
                thetas = pessimistic_instance(counts, means, t)
            for r, c, m, th in zip(rows[switch], counts, means, thetas):
                switched[int(r)] = (c.copy(), m.copy(), th.copy())
        return switch

    run = run_lockstep(candidate, env, grid, seeds, naive=UniformPolicy(k), gate=gate)
    run.phases = [
        PhaseState(phase1=True, tau_hat=None, delta=delta)
        if tau < 0 else
        PhaseState(False, tau, delta, *switched[r])
        for r, tau in enumerate(run.tau.tolist())
    ]
    run.policy = f"approx_delayed_start({candidate.name})"
    return run.record(0) if single else run
