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

Phase 1 never reads the candidate, so both play it first, as a plain
lockstep run of the naive policy on the engine's block streams, kept as
its actions and rewards alone (``specifications.Play``): up to the
common hand-over boundary for the oracle start, whose bound depends on
``t`` alone, and up to ``n`` for the certified start.  Uniform play ignores
feedback, so the engine plays that run in one policy call, one draw per
block.  The certified start then finds every rep's hand-over at once: it
checks all boundaries of all reps still in phase 1, a fixed-size chunk of
boundaries per ``check_phase`` call, and stops once every rep has
certified.  The engine replays that run as each rep's
prefix and lets the candidate, which draws from block streams of its own,
play the rest.  A caller reporting ``reps`` results simulates whole blocks
and drops the surplus (``specifications.whole_blocks``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import BatchGrid, make_grid
from .environments import BernoulliEnv
from .policies import UniformPolicy, rep_bincount
from .specifications import Play, check_arms, run_lockstep, seed_list

# Boundaries certified per ``check_phase`` call; bounds the work arrays at
# ``(reps, CHECK_CHUNK, k)`` whatever the horizon.
CHECK_CHUNK = 256


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
        out = np.clip(1.0 - total, 0.0, 1.0)
        return float(out) if np.isscalar(t) or np.asarray(t).ndim == 0 else out

    def __call__(self, t):
        return self.aggregate(t)


def _terms(gaps, tt) -> np.ndarray:
    """Clamped per-arm bound terms for gaps broadcast against times ``tt``."""
    with np.errstate(divide="ignore"):
        raw = 4.0 * np.log(tt + 1.0) / (tt * gaps**2) + 8.0 / tt
    return np.clip(np.where(gaps > 0, raw, 0.0), 0.0, 1.0)


def _stays(theta, t, delta: float):
    """Tail of the certification on instances ``theta`` (..., k) with a
    unique best arm: stay while their bound at ``t`` (one time, or one per
    instance) does not beat uniform play or the failure budget ``2k/t^2`` is
    not below ``delta``."""
    k = theta.shape[-1]
    gaps = theta.max(axis=-1, keepdims=True) - theta
    total = _terms(gaps, np.asarray(t, dtype=float)[..., None]).sum(axis=-1)
    bound = np.clip(1.0 - total, 0.0, 1.0)
    return (bound <= 1.0 / k) | (2.0 * k / (t * t) >= delta)


def pessimistic_instance(counts, means, t) -> np.ndarray:
    """Confidence-box corner least favourable to the current leader.

    The empirical leader is shrunk by its interval width
    ``sqrt(ln t / pulls)`` and every other arm is inflated by its own width.
    ``counts`` and ``means`` are one instance (k,) or one per row (R, k);
    ``t`` is one time, or one per row of (R, k) inputs.
    """
    return _pessimistic(counts, means, t)[0]


def _log(t):
    """``math.log`` of ``t`` or of each element of an array ``t``: numpy's
    SIMD log need not match libm to the last bit."""
    if np.ndim(t) == 0:
        return math.log(t)
    times, at = np.unique(t, return_inverse=True)
    return np.array([math.log(x) for x in times.tolist()])[at][:, None]


def _pessimistic(counts, means, t):
    """``pessimistic_instance`` as a float array, and the index pair
    ``(rows, leaders)`` of each row's leader in its (R, k) view."""
    counts = np.asarray(counts, dtype=float)
    means = np.asarray(means, dtype=float)
    if counts.shape != means.shape or counts.ndim not in (1, 2):
        raise ValueError("counts and means must be matching 1-D or 2-D arrays")
    if np.ndim(t) and (counts.ndim != 2 or np.shape(t) != counts.shape[:1]):
        raise ValueError("per-row times need one time per row of 2-D counts")
    if np.any(counts < 1):
        raise InsufficientDataError("every arm needs at least one pull")
    if np.any(np.asarray(t) < 2):
        raise ValueError("certification needs t >= 2")
    widths = np.sqrt(_log(t) / counts)
    theta_hat = means + widths
    k = means.shape[-1]
    means, widths = means.reshape(-1, k), widths.reshape(-1, k)
    at = (np.arange(len(means)), means.argmax(axis=1))
    theta_hat.reshape(-1, k)[at] = means[at] - widths[at]
    return theta_hat, at


def check_phase(counts, means, t, delta: float):
    """One certification check; True means "stay in phase 1".

    The check passes (returns False) only when the pessimistic instance
    still has the empirical leader on top, its bound at ``t`` beats uniform
    play, and the failure probability ``2k/t^2`` is below ``delta``, for
    the k arms of the last axis.  Rows of (R, k) inputs are checked
    independently into a boolean array, at one time ``t`` or at ``t[i]``
    for row ``i``.
    """
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    theta_hat, at = _pessimistic(counts, means, t)
    thetas = theta_hat.reshape(-1, theta_hat.shape[-1])
    others = thetas.copy()
    others[at] = -np.inf
    # where intervals still overlap the ordering is uncertified
    stay = (thetas[at] <= others.max(axis=1)) | _stays(thetas, t, delta)
    return bool(stay[0]) if theta_hat.ndim == 1 else stay


def _certify(actions, rewards, b: int, k: int, delta: float, truth=None):
    """Every rep's certified hand-over from its phase-1 play.

    ``actions`` and ``rewards`` ``(R, m)`` are phase-1 play on a grid of
    batch size ``b``.  Rep ``r`` hands over at the first boundary ``t``
    (0, b, ..., m) with ``t >= 2``, every arm pulled and ``check_phase``
    passing on its counts and means there; with ``truth`` the true means
    stand in for the pessimistic instance, and a tied best arm never
    passes.  Returns ``(tau, seen)``: ``tau[r]`` is that boundary or -1,
    and ``seen[:, r]`` the counts, means and ``theta_hat`` the check saw.
    """
    reps, m = actions.shape
    tau, seen = np.full(reps, -1), np.zeros((3, reps, k))
    if truth is not None and int((truth == truth.max()).sum()) != 1:
        return tau, seen
    counts, sums = np.zeros((reps, k)), np.zeros((reps, k))
    todo = np.arange(reps)
    for lo in range(0, m // b, CHECK_CHUNK):
        hi = min(lo + CHECK_CHUNK, m // b)
        times = np.arange(lo + 1, hi + 1) * b
        # counts and sums at each of the chunk's boundaries, per open rep
        acts = actions[todo, lo * b : hi * b].reshape(-1, b)
        rews = rewards[todo, lo * b : hi * b].reshape(-1, b)
        shape = (len(todo), hi - lo, k)
        at_c = counts[todo, None] + rep_bincount(acts, k).reshape(shape).cumsum(axis=1)
        at_s = sums[todo, None] + rep_bincount(acts, k, rews).reshape(shape).cumsum(axis=1)
        counts[todo], sums[todo] = at_c[:, -1], at_s[:, -1]
        rows, cols = np.nonzero((at_c.min(axis=2) >= 1) & (times >= 2))
        if not rows.size:
            continue
        c, t = at_c[rows, cols], times[cols]
        mu = at_s[rows, cols] / c
        stay = check_phase(c, mu, t, delta) if truth is None else _stays(truth, t, delta)
        # each rep's first passing boundary: the pairs run rep by rep
        hit, first = np.unique(rows[~stay], return_index=True)
        if not hit.size:
            continue
        pick, r = np.flatnonzero(~stay)[first], todo[hit]
        c, mu, t = c[pick], mu[pick], t[pick]
        tau[r], seen[0, r], seen[1, r] = t, c, mu
        seen[2, r] = truth if truth is not None else pessimistic_instance(c, mu, t)
        todo = np.delete(todo, hit)
        if not todo.size:
            break
    return tau, seen


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


def _second_phase(label, candidate, env, grid, seeds, single, head, tau, delta=None, seen=None):
    """The candidate's run from each rep's hand-over ``tau`` after phase-1 play
    ``head``, with a ``PhaseState`` per rep from what the check ``seen``."""
    run = run_lockstep(candidate, env, grid, seeds, prefix=(head, tau))
    run.phases = [
        PhaseState(True, None, delta) if tau < 0 else
        PhaseState(False, tau, delta, *(() if seen is None else seen[:, r]))
        for r, tau in enumerate(run.tau.tolist())
    ]
    run.policy = f"{label}({candidate.name})"
    return run.record(0) if single else run


def delayed_start_run(
    candidate,
    naive,
    bound,
    env: BernoulliEnv,
    grid: BatchGrid,
    seed,
):
    """Oracle delayed start: switch at the first epoch where ``bound > 0``.

    ``bound`` maps an array of timesteps to an array of reals (or to one
    real for all of them); it is normally a ``MonotoneBound`` built from the
    true instance, and is asked for the epoch starts ``t + 1`` of the
    boundaries ``t < n``, a chunk at a time.  The naive policy plays (and
    history accrues on the batch schedule) before the switch; the candidate
    then takes over with the full accumulated history.  ``seed`` is one
    integer, for a ``RunRecord``, or a sequence of per-rep seeds, for a
    ``RunSet`` of lockstep reps.
    """
    _require_bernoulli(env)
    check_arms(naive, env)
    seeds, single = seed_list(seed)
    switch = -1
    starts = np.arange(0, grid.n, grid.b)
    for lo in range(0, grid.M, CHECK_CHUNK):
        times = starts[lo : lo + CHECK_CHUNK]
        fires = np.flatnonzero(np.broadcast_to(np.asarray(bound(times + 1)) > 0.0, times.shape))
        if fires.size:
            switch = int(times[fires[0]])
            break
    upto = grid.n if switch < 0 else switch
    head = (
        run_lockstep(naive, env, make_grid(upto, grid.b), seeds, keep=Play()).actions if upto
        else np.empty((len(seeds), 0), dtype=np.int64)
    )
    return _second_phase("delayed_start", candidate, env, grid, seeds, single,
                         head, np.full(len(seeds), switch))


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
    as for ``delayed_start_run``; every rep's boundary is found from one
    uniform run over the whole horizon.
    """
    _require_bernoulli(env)
    if bound_from not in ("instance", "oracle"):
        raise ValueError("bound_from must be 'instance' or 'oracle'")
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    seeds, single = seed_list(seed)
    phase1 = run_lockstep(UniformPolicy(env.k), env, grid, seeds, keep=Play())
    truth = env.means if bound_from == "oracle" else None
    tau, seen = _certify(phase1.actions, phase1.rewards, grid.b, env.k, delta, truth)
    return _second_phase("approx_delayed_start", candidate, env, grid, seeds, single,
                         phase1.actions, tau, delta, seen)
