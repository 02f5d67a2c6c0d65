"""Empirical verifiers for the structural assumptions behind the theory.

Each check returns a small report object rather than a bare boolean so the
CLI can render verdicts with the statistics that produced them.  Verdicts
follow one scheme:

* ``holds`` / ``consistent``: the property was observed beyond noise;
* ``boundary``: the property held only with equality (or the configuration
  degenerates, like batch size 1);
* ``fails`` / ``violated``: contradicted beyond two standard errors;
* ``inconclusive``: the noise swamped the comparison.

Monte-Carlo checks derive per-rep seeds with ``derive_seed`` so results are
reproducible and extendable, run their reps in lockstep through the
policies' rep-batched protocol, and share one reduction (``_mean_se``)
and one two-standard-error verdict (``_verdict``) with the harness.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import PROB_TOL, DecisionRule, derive_seed, rule_value
from .environments import BernoulliEnv
from .meta import MonotoneBound
from .policies import UniformPolicy
from .specifications import run_online

Z_ONE_SIDED_95 = 1.645


class UnsupportedPolicyError(TypeError):
    """Raised when a check has no registered bound for the given policy."""


def _mean_se(samples, axis=0):
    """Mean and standard error ``std(ddof=1) / sqrt(R)`` over the rep axis;
    the error is zero for a single rep."""
    reps = samples.shape[axis]
    mean = samples.mean(axis=axis)
    if reps < 2:
        return mean, np.zeros_like(mean)
    return mean, samples.std(axis=axis, ddof=1) / np.sqrt(reps)


def _verdict(diff: float, se: float) -> str:
    """Two-standard-error verdict on ``diff > 0``; with no noise, the sign."""
    if se == 0.0:
        return "holds" if diff > 0 else ("boundary" if diff == 0.0 else "violated")
    if diff > 2 * se:
        return "holds"
    if diff < -2 * se:
        return "violated"
    return "inconclusive"


@dataclass(eq=False)
class RegretCurve:
    """Mean cumulative pseudo-regret per step, with standard errors."""

    values: np.ndarray
    stderr: np.ndarray
    reps: int

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=float)
        self.stderr = np.asarray(self.stderr, dtype=float)
        if self.values.shape != self.stderr.shape or self.values.ndim != 1:
            raise ValueError("values and stderr must be matching 1-D arrays")

    @property
    def n(self) -> int:
        return int(self.values.size)

    @staticmethod
    def from_runs(per_run_regret: np.ndarray) -> "RegretCurve":
        """Aggregate a (reps, n) matrix of cumulative regret trajectories."""
        arr = np.asarray(per_run_regret, dtype=float)
        if arr.ndim != 2:
            raise ValueError("need a (reps, n) matrix")
        return RegretCurve(*_mean_se(arr, axis=0), arr.shape[0])


@dataclass(eq=False)
class SublinearityReport:
    holds: bool
    pairs: np.ndarray  # (m, 2) timesteps (n1, n2) that violate
    min_t: int

    def __bool__(self) -> bool:
        return self.holds


def check_sublinearity(curve: RegretCurve, min_t: int = 1) -> SublinearityReport:
    """Check that per-step regret ratios R_t / t strictly decrease.

    A pair (n1 < n2) violates when the ratio at n1 is no larger than at n2
    beyond pooled noise: ``r_n1 <= r_n2 - 2 se_pool``.  With zero standard
    errors this flags plain equality, so deterministic linear curves fail.
    """
    if not 1 <= min_t <= curve.n:
        raise ValueError(f"min_t {min_t} outside 1..{curve.n}")
    ts = np.arange(min_t, curve.n + 1, dtype=float)
    r = curve.values[min_t - 1 :] / ts
    se = curve.stderr[min_t - 1 :] / ts
    pooled = 2.0 * np.sqrt(se[:, None] ** 2 + se[None, :] ** 2)
    bad = r[:, None] <= r[None, :] - pooled
    bad &= np.triu(np.ones(bad.shape, dtype=bool), k=1)
    pairs = np.argwhere(bad) + min_t
    return SublinearityReport(holds=pairs.shape[0] == 0, pairs=pairs, min_t=min_t)


@dataclass(eq=False)
class Lemma31Report:
    prefix_verdict: str
    pointwise_verdict: str
    values: np.ndarray
    prefix_values: np.ndarray


def _strictness_verdict(margins: np.ndarray) -> str:
    if margins.size == 0:
        return "holds"
    if np.any(margins < -PROB_TOL):
        return "fails"
    if np.any(np.abs(margins) <= PROB_TOL):
        return "boundary"
    return "holds"


def check_lemma31(rules, instance) -> Lemma31Report:
    """Averaging diagnostics for a per-step rule sequence.

    Prefix property: the running-average rule strictly gains value with
    every added step.  Pointwise property: from t = 2 on, the current rule
    strictly beats the running average (at t = 1 they coincide by
    definition, so it is excluded).  Equalities are reported as boundary.
    """
    rules = list(rules)
    if not rules:
        raise ValueError("need at least one rule")
    values = np.array([rule_value(r, instance) for r in rules])
    prefix = np.cumsum(values) / np.arange(1, values.size + 1)
    prefix_margins = np.diff(prefix)
    pointwise_margins = values[1:] - prefix[1:]
    return Lemma31Report(
        prefix_verdict=_strictness_verdict(prefix_margins),
        pointwise_verdict=_strictness_verdict(pointwise_margins),
        values=values,
        prefix_values=prefix,
    )


def _rep_rules(policy, states, rngs):
    """Each rep's realised rule for its next step, shape ``(R, k)``: a point
    mass on the arm ``act_reps`` plays, or the flat rule of uniform play."""
    reps, k = len(rngs), policy.k
    if isinstance(policy, UniformPolicy):
        return np.full((reps, k), 1.0 / k)
    rows = np.arange(reps)
    probs = np.zeros((reps, k))
    probs[rows, policy.act_reps(states, 1, rngs, rows)[:, 0]] = 1.0
    return probs


def mean_rule_trace(policy, env, n: int, reps: int, master_seed: int = 0):
    """Per-step decision rules of an online run, averaged over repetitions.

    Each repetition replays an online trajectory but records the full
    decision rule at every step; the action fed back is sampled from that
    rule, so the trajectory distribution matches a normal run.  The mean
    rule at step ``t`` estimates the policy's marginal action distribution
    there, which is what the averaging diagnostics of ``check_lemma31``
    quantify over.  Finite-armed policies only.
    """
    if not isinstance(env, BernoulliEnv):
        raise UnsupportedPolicyError("rule traces support Bernoulli environments only")
    if n < 1 or reps < 1:
        raise ValueError("need n >= 1 and reps >= 1")
    k = env.k
    rngs = [
        np.random.default_rng(derive_seed(master_seed, "trace", i)) for i in range(reps)
    ]
    states = policy.init_reps(reps)
    probs_sum = np.zeros((n, k))
    for t in range(n):
        probs = _rep_rules(policy, states, rngs)
        probs_sum[t] = probs.sum(axis=0)
        actions = np.array([[g.choice(k, p=p)] for g, p in zip(rngs, probs)])
        rewards = np.array([env.sample_rewards(a, g) for g, a in zip(rngs, actions)])
        states = policy.update_reps(states, actions, rewards)
    return [DecisionRule(probs_sum[t] / reps) for t in range(n)]


@dataclass(eq=False)
class NegationReport:
    """Did the policy provably worsen: R_n > b * R_M beyond noise?"""

    holds: bool
    verdict: str
    d: float
    stderr: float
    mean_n: float
    mean_m: float
    b: int

    def __bool__(self) -> bool:
        return self.holds


def check_negated_sublinearity(
    policy, env, grid, reps: int, master_seed: int = 0
) -> NegationReport:
    """Estimate R_n and R_M online and test R_n > b * R_M strictly.

    Batch size 1 is a degenerate identity and is reported as boundary
    without simulation.
    """
    if reps < 2:
        raise ValueError("need at least 2 reps for a standard error")
    if grid.b == 1:
        return NegationReport(
            holds=False, verdict="boundary", d=0.0, stderr=0.0,
            mean_n=float("nan"), mean_m=float("nan"), b=1,
        )
    mean_n, se_n = _mean_se(run_online(
        policy, env, grid.n, [derive_seed(master_seed, "neg_n", i) for i in range(reps)]
    ).final_regret)
    mean_m, se_m = _mean_se(run_online(
        policy, env, grid.M, [derive_seed(master_seed, "neg_m", i) for i in range(reps)]
    ).final_regret)
    mean_n, mean_m = float(mean_n), float(mean_m)
    d = mean_n - grid.b * mean_m
    se = float(np.hypot(se_n, grid.b * se_m))
    verdict = _verdict(d, se)
    return NegationReport(
        holds=verdict == "holds", verdict=verdict, d=float(d), stderr=se,
        mean_n=mean_n, mean_m=mean_m, b=grid.b,
    )


@dataclass(eq=False)
class InformativenessReport:
    mean_diff: float
    stderr: float
    ci_low: float
    ci_high: float
    verdict: str
    k: int
    k_prime: int


def probe_informativeness(
    policy,
    env: BernoulliEnv,
    t: int,
    reps: int,
    k: int | None = None,
    k_prime: int | None = None,
    master_seed: int = 0,
) -> InformativenessReport:
    """Does more optimal experience improve the next rule's value?

    Builds paired histories of length ``t``: one with ``k`` optimal pulls,
    one with ``k_prime < k`` (non-optimal pulls round-robin over the other
    arms), rewards sampled from the environment.  The statistic is the
    paired mean difference of next-rule values, with a 2-standard-error
    interval; the verdict is ``violated`` only when the whole interval is
    below zero.
    """
    if not isinstance(env, BernoulliEnv):
        raise TypeError("informativeness probe supports finite-armed environments")
    if t < 2:
        raise ValueError("need t >= 2")
    k = int(round(0.8 * t)) if k is None else int(k)
    k_prime = int(round(0.2 * t)) if k_prime is None else int(k_prime)
    if not 0 <= k_prime <= k <= t:
        raise ValueError("need 0 <= k_prime <= k <= t")
    opt = env.optimal_arm
    others = [a for a in range(env.k) if a != opt]

    def actions_with(n_opt: int) -> np.ndarray:
        acts = np.full(t, opt, dtype=np.int64)
        fill = [others[i % len(others)] for i in range(t - n_opt)]
        acts[n_opt:] = fill
        return acts

    rngs = [
        np.random.default_rng(derive_seed(master_seed, "informativeness", i))
        for i in range(reps)
    ]
    states = []
    for acts in (actions_with(k), actions_with(k_prime)):
        acts = np.broadcast_to(acts, (reps, t))
        states.append(policy.update_reps(
            policy.init_reps(reps), acts,
            np.array([env.sample_rewards(a, g) for g, a in zip(rngs, acts)]),
        ))
    v_hi, v_lo = (_rep_rules(policy, st, rngs) @ env.means for st in states)
    mean, se = (float(x) for x in _mean_se(v_hi - v_lo))
    lo, hi = mean - 2 * se, mean + 2 * se
    verdict = "violated" if hi < 0 else "consistent"
    return InformativenessReport(mean, se, lo, hi, verdict, k, k_prime)


@dataclass(eq=False)
class EnvelopeReport:
    verdict: str
    violations: list
    reps: int
    t_max: int
    evaluated_from: int

    def __bool__(self) -> bool:
        return self.verdict == "consistent"


def check_monotone_envelope(
    policy, env, reps: int, t_max: int, master_seed: int = 0, bound=None
) -> EnvelopeReport:
    """Check suboptimal pull fractions against the closed-form bound terms.

    The per-arm term ``min(1, 4 ln(t+1)/(t Delta_a^2) + 8/t)`` bounds the
    expected cumulative pull fraction ``T_a(t) / t`` of suboptimal arm
    ``a``.  The check runs the shipped policy trajectory by trajectory and
    flags any (t, a) where the empirical mean fraction, lowered by 1.645
    one-sided standard errors, still exceeds the term.

    Only the index policy has a registered bound; passing any other policy
    raises ``UnsupportedPolicyError`` unless an explicit ``bound`` is
    supplied (useful as a negative control: uniform play violates the
    envelope once the bound term drops below 1/k).  Steps inside the
    forced-initialisation window (t <= k) are not evaluated and
    ``evaluated_from`` records where evaluation starts.
    """
    if not isinstance(env, BernoulliEnv):
        raise UnsupportedPolicyError("envelope check supports finite-armed environments")
    if bound is None:
        if getattr(policy, "name", None) != "ucb":
            raise UnsupportedPolicyError(
                "no envelope bound registered for this policy; pass bound= explicitly"
            )
        bound = MonotoneBound(env.means)  # validates the unique best arm
    if reps < 2:
        raise ValueError("need at least 2 reps")
    per_arm = bound.per_arm(np.arange(1, t_max + 1))  # (t_max, k)
    ts = np.arange(1, t_max + 1, dtype=float)
    seeds = [derive_seed(master_seed, "envelope", i) for i in range(reps)]
    actions = run_online(policy, env, t_max, seeds).actions
    mean = np.empty((t_max, env.k))
    lower = np.empty((t_max, env.k))
    for a in range(env.k):
        frac = np.cumsum(actions == a, axis=1) / ts  # (reps, t_max)
        mean[:, a], se = _mean_se(frac, axis=0)
        lower[:, a] = mean[:, a] - Z_ONE_SIDED_95 * se
    evaluated_from = env.k + 1
    violations = []
    sub = np.nonzero(env.gap_vector() > 0)[0]
    for a in sub:
        bad_t = np.nonzero(lower[:, a] > per_arm[:, a])[0]
        for ti in bad_t:
            if ti + 1 < evaluated_from:
                continue
            violations.append(
                (int(ti + 1), int(a), float(mean[ti, a]), float(per_arm[ti, a]))
            )
    verdict = "consistent" if not violations else "violated"
    return EnvelopeReport(verdict, violations, reps, t_max, evaluated_from)
