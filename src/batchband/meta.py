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

Phase 1 never reads the candidate and its naive policy ignores feedback,
so a rep's phase 1 is its row of a plain lockstep run of the naive policy.
The certified start finds every rep's hand-over from a plain uniform run
reduced as it goes (``_Certify``), at most ``CHECK_PAIRS`` (open rep,
boundary) pairs per ``check_phase`` call, so the check's memory does not
grow with reps; the run stops drawing once a check has closed every rep.
Neither start stores phase 1: the engine plays the naive policy again, a
chunk at a time, up to each rep's hand-over, and the candidate, which draws
from block streams of its own, plays the rest, reduced by the caller's
``keep``.  A caller reporting ``reps`` results
simulates whole blocks and drops the surplus (``specifications.whole_blocks``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import BatchGrid
from .environments import BernoulliEnv
from .policies import UniformPolicy, rep_bincount
from .specifications import Keep, run_lockstep, seed_list

# (open rep, boundary) pairs per ``check_phase`` call, at least one boundary,
# and boundaries per call of an oracle bound: the check's work arrays are
# ``(CHECK_PAIRS, k)`` whatever the reps.  A 16-rep cell checks 256 boundaries
# per call.  An env3 cell at n=20,000, b=10 and 256 reps peaked at 44-45 MiB
# from 2^10 to 2^14 and 53 MiB at 2^16, in like time (``BENCH_28.json``).
CHECK_PAIRS = 4096


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
    # where intervals still overlap the ordering is uncertified; the bound
    # is computed on the other rows alone, each with the same arithmetic
    stay = thetas[at] <= others.max(axis=1)
    rows = np.flatnonzero(~stay)
    stay[rows] = _stays(thetas[rows], t if np.ndim(t) == 0 else np.asarray(t)[rows], delta)
    return bool(stay[0]) if theta_hat.ndim == 1 else stay


class _Certify(Keep):
    """Every rep's certified hand-over, found from its phase-1 play as the run
    goes: rep ``r`` hands over at the first boundary ``t`` (0, b, ..., n)
    with ``t >= 2``, every arm pulled and ``check_phase`` passing on its
    counts and means there; with ``truth`` the true means stand in for the
    pessimistic instance, and a tied best arm never passes.  Counts and sums
    carry across chunks, and the open reps' totals at each boundary are held
    until they make ``CHECK_PAIRS`` (rep, boundary) pairs, or one boundary
    when the open reps alone make more, for one call.  ``result()`` is
    ``(tau, seen)``: ``tau[r]`` is that boundary or -1, and ``seen[:, r]``
    the counts, means and ``theta_hat`` the check saw.
    """

    # reduced, certified_start's calls took 1.04 times as long (20/30 rounds,
    # BENCH_37.json; tools/time_fast_paths.py re-measures it) and would hold two
    # more (reps, CHUNK) buffers, 4 MiB at 1,024 reps
    reduced = False

    def __init__(self, reps: int, b: int, k: int, delta: float, truth=None):
        self.b, self.k, self.delta, self.truth = b, k, delta, truth
        self.tau, self.seen = np.full(reps, -1), np.zeros((3, reps, k))
        self.totals = np.zeros((2, reps, k))  # counts and sums
        self.held, self.checked = [], 0  # boundaries held from batch ``checked`` on
        tied = truth is not None and int((truth == truth.max()).sum()) != 1
        self.todo = np.arange(0 if tied else reps)

    def add(self, lo, part) -> bool:
        """Check the chunk's boundaries; true once no rep is open, so the
        engine draws no further chunk."""
        b, k = self.b, self.k
        j0, j1 = lo // b, (lo + part.actions.shape[1]) // b
        p0 = j0
        while p0 < j1 and self.todo.size:
            # the chunk's batches, split where the held pairs reach the budget
            todo = self.todo
            end = self.checked + max(1, CHECK_PAIRS // todo.size)
            p1 = min(end, j1)
            acts, rews = (x[todo, (p0 - j0) * b : (p1 - j0) * b].reshape(-1, b)
                          for x in (part.actions, part.rewards))
            at = [total[todo, None] + steps.reshape(len(todo), p1 - p0, k).cumsum(axis=1)
                  for total, steps in zip(self.totals, (rep_bincount(acts, k),
                                                        rep_bincount(acts, k, rews)))]
            self.totals[:, todo] = [a[:, -1] for a in at]
            self.held.append(at)
            if p1 == end:
                self._check()
            p0 = p1
        return not self.todo.size

    def _check(self) -> None:
        """Check every held boundary of the open reps in one call."""
        at_c, at_s = (x[0] if len(x) == 1 else np.concatenate(x, axis=1) for x in zip(*self.held))
        times = np.arange(self.checked + 1, self.checked + at_c.shape[1] + 1) * self.b
        self.held, self.checked = [], self.checked + at_c.shape[1]
        rows, cols = np.nonzero((at_c.min(axis=2) >= 1) & (times >= 2))
        if not rows.size:
            return
        c, t = at_c[rows, cols], times[cols]
        mu = at_s[rows, cols] / c
        truth, delta = self.truth, self.delta
        stay = check_phase(c, mu, t, delta) if truth is None else _stays(truth, t, delta)
        # each rep's first passing boundary: the pairs run rep by rep
        hit, first = np.unique(rows[~stay], return_index=True)
        if not hit.size:
            return
        pick, r = np.flatnonzero(~stay)[first], self.todo[hit]
        c, mu, t = c[pick], mu[pick], t[pick]
        self.tau[r], self.seen[0, r], self.seen[1, r] = t, c, mu
        self.seen[2, r] = truth if truth is not None else pessimistic_instance(c, mu, t)
        self.todo = np.delete(self.todo, hit)

    def result(self):
        if self.held:
            self._check()
        return self.tau, self.seen


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


def _second_phase(label, candidate, naive, env, grid, seeds, single, tau, keep,
                  delta=None, seen=None):
    """The candidate's run from each rep's hand-over ``tau`` after ``naive``'s
    play, with a ``PhaseState`` per rep from what the check ``seen``."""
    out = run_lockstep(candidate, env, grid, seeds, prefix=(naive, tau), keep=keep)
    run = out if keep is None else keep.run
    run.phases = [
        PhaseState(True, None, delta) if tau < 0 else
        PhaseState(False, tau, delta, *(() if seen is None else seen[:, r]))
        for r, tau in enumerate(run.tau.tolist())
    ]
    run.policy = f"{label}({candidate.name})"
    return run.record(0) if single and keep is None else out


def delayed_start_run(
    candidate,
    naive,
    bound,
    env: BernoulliEnv,
    grid: BatchGrid,
    seed,
    *, keep: Keep | None = None,
):
    """Oracle delayed start: switch at the first epoch where ``bound > 0``.

    ``bound`` maps an array of timesteps to an array of reals (or to one
    real for all of them); it is normally a ``MonotoneBound`` built from the
    true instance, and is asked for the epoch starts ``t + 1`` of the
    boundaries ``t < n``, a chunk at a time.  The naive policy plays (and
    history accrues on the batch schedule) before the switch; the candidate
    then takes over with the full accumulated history.  ``naive`` must
    ignore feedback (uniform or fixed-arm play), else ``ValueError``.
    ``seed`` is one integer, for a ``RunRecord``, or a sequence of per-rep
    seeds, for a ``RunSet`` of lockstep reps, or with ``keep`` for what
    ``keep`` reduces it to (``specifications.run_lockstep``).
    """
    _require_bernoulli(env)
    seeds, single = seed_list(seed)
    switch = -1
    starts = np.arange(0, grid.n, grid.b)
    for lo in range(0, grid.M, CHECK_PAIRS):
        times = starts[lo : lo + CHECK_PAIRS]
        fires = np.flatnonzero(np.broadcast_to(np.asarray(bound(times + 1)) > 0.0, times.shape))
        if fires.size:
            switch = int(times[fires[0]])
            break
    return _second_phase("delayed_start", candidate, naive, env, grid, seeds, single,
                         np.full(len(seeds), switch), keep)


def approx_delayed_start_run(
    candidate,
    env: BernoulliEnv,
    grid: BatchGrid,
    delta: float,
    seed,
    bound_from: str = "instance",
    *, keep: Keep | None = None,
):
    """Estimated delayed start: certify the switch from data at batch ends.

    Uniform play runs phase 1.  At each phase-1 boundary ``t = jb`` the
    check needs every arm pulled at least once; otherwise it simply stays in
    phase 1.  ``bound_from`` picks
    what feeds the bound: ``"instance"`` uses the pessimistic estimate (the
    real algorithm), ``"oracle"`` substitutes the true means, a diagnostic
    that isolates estimation error.  ``seed`` and ``keep`` are as for
    ``delayed_start_run``; every rep's boundary is found from one uniform
    run, which stops drawing once a check has closed every rep.
    """
    _require_bernoulli(env)
    if bound_from not in ("instance", "oracle"):
        raise ValueError("bound_from must be 'instance' or 'oracle'")
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    seeds, single = seed_list(seed)
    naive = UniformPolicy(env.k)
    truth = env.means if bound_from == "oracle" else None
    tau, seen = run_lockstep(naive, env, grid, seeds,
                             keep=_Certify(len(seeds), grid.b, env.k, delta, truth))
    return _second_phase("approx_delayed_start", candidate, naive, env, grid, seeds, single,
                         tau, keep, delta, seen)
