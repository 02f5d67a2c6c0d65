"""Empirical verifiers for the structural assumptions behind the theory.

Each check returns a small report object rather than a bare boolean so the
CLI can render verdicts with the statistics that produced them.  Verdicts
follow one scheme:

* ``holds`` / ``consistent``: the property was observed beyond noise;
* ``boundary``: the property held only with equality (or the configuration
  degenerates, like batch size 1);
* ``fails`` / ``violated``: contradicted beyond two standard errors;
* ``inconclusive``: the noise swamped the comparison.

The Monte-Carlo checks are statistics on the arrays of one online run, which
check-assumptions reads off the b=1 sweep cell (``specifications.Readings``),
and reduce with ``core``'s mean/stderr reduction (``_mean_se``) and
two-standard-error verdict (``_verdict``), as the harness does.  Only the
informativeness probe simulates, from fixed histories on its own seeds.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import PROB_TOL, DecisionRule, _interval, _mean_se, _verdict, rule_value
from .environments import BernoulliEnv
from .meta import MonotoneBound
from .policies import UniformPolicy, rep_bincount
from .specifications import check_arms, policy_streams, sim_seeds

Z_ONE_SIDED_95 = 1.645

# Pairs ``check_sublinearity`` judges per block of rows, so each of its
# float work arrays holds 512 KiB whatever the horizon.  On 4,000- and
# 20,000-step curves 2**16 and 2**18 timed alike (63 and 1,280 ms) and
# traced 1.7 and 2.2 MiB against 6.3 and 7.0 MiB; 2**14 and 2**20 took
# 1.15x or more (BENCH_30.json).
_PAIR_CELLS = 2**16


class UnsupportedPolicyError(TypeError):
    """Raised when a check has no registered bound for the given policy."""


@dataclass(eq=False)
class SublinearityReport:
    holds: bool
    min_t: int
    blocks: object  # yields (first row, violation mask) per block; holds reads up to the first bad

    @cached_property
    def pairs(self) -> np.ndarray:
        """``(m, 2)`` timesteps (n1, n2) that violate, found on first read."""
        return np.concatenate([np.argwhere(bad) + (lo + self.min_t) for lo, bad in self.blocks()])

    def __bool__(self) -> bool:
        return self.holds


def check_sublinearity(mean, stderr, min_t: int = 1) -> SublinearityReport:
    """Check that per-step regret ratios R_t / t strictly decrease.

    ``mean`` and ``stderr`` are matching 1-D arrays: the mean cumulative
    regret at steps 1..n and its standard errors.  A pair (n1 < n2)
    violates when the ratio at n1 is no larger than at n2 beyond pooled
    noise: ``r_n1 <= r_n2 - 2 se_pool``.  With zero standard errors this
    flags plain equality, so deterministic linear curves fail.
    """
    mean, stderr = np.asarray(mean, dtype=float), np.asarray(stderr, dtype=float)
    if mean.shape != stderr.shape or mean.ndim != 1:
        raise ValueError("mean and stderr must be matching 1-D arrays")
    n = mean.size
    if not 1 <= min_t <= n:
        raise ValueError(f"min_t {min_t} outside 1..{n}")
    ts = np.arange(min_t, n + 1, dtype=float)
    r = mean[min_t - 1 :] / ts
    se = stderr[min_t - 1 :] / ts
    m = r.size
    rows = max(_PAIR_CELLS // m, 1)

    def blocks():  # a block of rows at a time, each against the columns from its first row
        for lo in range(0, m, rows):
            hi = min(lo + rows, m)
            pooled = 2.0 * np.sqrt(se[lo:hi, None] ** 2 + se[None, lo:] ** 2)
            bad = r[lo:hi, None] <= r[None, lo:] - pooled
            bad &= np.arange(lo, m) > np.arange(lo, hi)[:, None]
            yield lo, bad

    return SublinearityReport(not any(bad.any() for _, bad in blocks()), min_t, blocks)


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


def _rep_rules(policy, states, streams):
    """Each rep's realised rule for its next step, shape ``(R, k)``: a point
    mass on the arm ``act_reps`` plays from the spans ``streams``, or the
    flat rule of uniform play."""
    reps, k = len(states.counts), policy.k
    if isinstance(policy, UniformPolicy):
        return np.full((reps, k), 1.0 / k)
    rows = np.arange(reps)
    probs = np.zeros((reps, k))
    probs[rows, policy.act_reps(states, 1, streams, rows)[:, 0]] = 1.0
    return probs


def _check_actions(actions, k: int) -> np.ndarray:
    """``actions`` as a non-empty ``(reps, steps)`` array of arms ``0..k-1``, or ``ValueError``."""
    actions = np.asarray(actions)
    if (actions.ndim != 2 or not actions.size or actions.dtype.kind not in "iu"
            or actions.min() < 0 or actions.max() >= k):
        raise ValueError(f"actions must be a non-empty (reps, steps) array of arms in 0..{k - 1}")
    return actions


def mean_rule_trace(policy, actions):
    """Per-step decision rules of an online run, averaged over its reps.

    ``actions`` holds the run's arms, one row per rep.  Every finite-armed
    policy but uniform play realises a point mass on the arm it plays, so
    the mean rule at step ``t``, the marginal action distribution that
    ``check_lemma31`` judges, is the arm frequency in column ``t``.  Uniform
    play's rule is the flat ``1/k``, whatever it played.
    """
    actions, k = _check_actions(actions, policy.k), policy.k
    if isinstance(policy, UniformPolicy):
        return [DecisionRule(np.full(k, 1.0 / k))] * actions.shape[1]
    return [DecisionRule(p) for p in rep_bincount(actions.T, k) / len(actions)]


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


def check_negated_sublinearity(r_n, r_m, b: int) -> NegationReport:
    """Test R_n > b * R_M strictly, paired within each rep.

    ``r_n`` and ``r_m`` are matching 1-D arrays of each rep's cumulative
    regret at steps n and M of one online run, which gives both since no
    policy reads its horizon.  The statistic is the mean of the per-rep
    differences ``R_n - b * R_M`` with its standard error.  At batch size 1
    every difference is 0, a degenerate identity reported as boundary.
    """
    r_n, r_m = np.asarray(r_n, dtype=float), np.asarray(r_m, dtype=float)
    if r_n.shape != r_m.shape or r_n.ndim != 1:
        raise ValueError("r_n and r_m must be matching 1-D arrays")
    if r_n.size < 2:
        raise ValueError("need at least 2 reps for a standard error")
    d, se = (float(x) for x in _mean_se(r_n - b * r_m))
    verdict = _verdict(d, se)
    return NegationReport(
        holds=verdict == "holds", verdict=verdict, d=d, stderr=se,
        mean_n=float(r_n.mean()), mean_m=float(r_m.mean()), b=b,
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
    if reps < 2:
        raise ValueError("need at least 2 reps for a standard error")
    check_arms(policy, env)
    if t < 2:
        raise ValueError("need t >= 2")
    k = int(round(0.8 * t)) if k is None else operator.index(k)
    k_prime = int(round(0.2 * t)) if k_prime is None else operator.index(k_prime)
    if not 0 <= k_prime <= k <= t:
        raise ValueError("need 0 <= k_prime <= k <= t")
    opt = env.optimal_arm
    others = np.delete(np.arange(env.k), opt)
    seeds = sim_seeds(reps, master_seed, "informativeness")
    # each rep's uniforms for both histories, drawn as the engine draws them
    uniforms = np.array([np.random.default_rng(s).random(2 * t) for s in seeds])
    # uniform play's rule is flat: only an adaptive policy's draws are read
    streams = policy_streams(policy, seeds, [reps]) if policy.adaptive else lambda j: None
    states = []
    for u, n_opt in zip(np.hsplit(uniforms, 2), (k, k_prime)):
        acts = np.concatenate([np.full(n_opt, opt), np.resize(others, t - n_opt)])
        states.append(policy.update_reps(
            policy.init_reps(len(seeds)), np.broadcast_to(acts, u.shape),
            (u < env.means[acts]).astype(float),
        ))
    v_hi, v_lo = (_rep_rules(policy, st, streams(j)) @ env.means for j, st in enumerate(states))
    mean, se = (float(x) for x in _mean_se(v_hi - v_lo))
    verdict = "violated" if _verdict(mean, se) == "violated" else "consistent"
    return InformativenessReport(mean, se, *_interval(mean, se), verdict, k, k_prime)


@dataclass(eq=False)
class EnvelopeReport:
    verdict: str
    violations: list
    reps: int
    t_max: int
    evaluated_from: int

    def __bool__(self) -> bool:
        return self.verdict == "consistent"


def check_monotone_envelope(policy, env, actions, bound=None) -> EnvelopeReport:
    """Check suboptimal pull fractions against the closed-form bound terms.

    The per-arm term ``min(1, 4 ln(t+1)/(t Delta_a^2) + 8/t)`` bounds the
    expected cumulative pull fraction ``T_a(t) / t`` of suboptimal arm
    ``a``.  ``actions`` holds the arms ``policy`` played on ``env`` in an
    online run, one row per rep, up to step ``t_max``.  The check flags any
    (t, a) where the mean fraction over the reps, lowered by 1.645
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
    actions = _check_actions(actions, env.k)
    reps, t_max = actions.shape
    if reps < 2:
        raise ValueError("need at least 2 reps")
    per_arm = bound.per_arm(np.arange(1, t_max + 1))  # (t_max, k)
    ts = np.arange(1, t_max + 1, dtype=float)
    mean, lower = np.empty((2, t_max, env.k))
    for a in range(env.k):
        frac = np.cumsum(actions == a, axis=1) / ts  # (reps, t_max)
        mean[:, a], se = _mean_se(frac, axis=0)
        lower[:, a] = mean[:, a] - Z_ONE_SIDED_95 * se
    evaluated_from = env.k + 1
    bad = (lower > per_arm) & (env.gap_vector() > 0)
    bad[: evaluated_from - 1] = False
    violations = [(int(ti + 1), int(a), float(mean[ti, a]), float(per_arm[ti, a]))
                  for a, ti in np.argwhere(bad.T)]
    verdict = "consistent" if not violations else "violated"
    return EnvelopeReport(verdict, violations, reps, t_max, evaluated_from)
