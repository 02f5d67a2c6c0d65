"""Auditing the structural assumptions behind the regret guarantees.

The sandwich bound and the delayed-start analysis lean on properties of
the policy itself, not just of the environment: regret should grow
sublinearly, suboptimal pull fractions should stay under the closed-form
envelope, and batching should not provably multiply regret beyond the
b-fold factor.  None of these are axioms; each can be checked
numerically, and a policy can fail them.

This demo audits UCB (expected: healthy) and a deliberately broken
two-phase switching policy (expected: sublinear growth fails) on the
same environment, using the same Monte Carlo checks the CLI's
check-assumptions command wires together.

Run:  python3 demos/assumption_audit.py
"""

from __future__ import annotations

import numpy as np

from batchband import (
    MonotoneBound,
    TwoPhaseSwitchPolicy,
    UcbPolicy,
    derive_seed,
    make_grid,
    preset,
    run_online,
)
from batchband.assumptions import (
    check_monotone_envelope,
    check_negated_sublinearity,
    check_sublinearity,
)

ENV = "env2"
N = 800
REPS = 80


def online_runs(policy, env, n: int, reps: int, *key):
    """``reps`` online runs over ``n`` steps on the seeds ``derive_seed(*key, i)``."""
    # one lockstep call; neither audited policy draws, so each rep is its lone run
    return run_online(policy, env, n, [derive_seed(*key, i) for i in range(reps)])


def curve_for(policy, env, n: int, reps: int, tag: str):
    """Per-step mean cumulative regret over ``reps`` runs and its standard errors."""
    regret = online_runs(policy, env, n, reps, 9, "audit", tag).pseudo_regret
    return regret.mean(axis=0), regret.std(axis=0, ddof=1) / np.sqrt(reps)


def main() -> None:
    env = preset(ENV)
    print(f"environment {ENV}: means {env.means.tolist()}\n")

    print(f"-- UCB, n={N}, {REPS} repetitions --")
    ucb = UcbPolicy(env.k)
    ucb_mean, ucb_se = curve_for(ucb, env, N, REPS, "ucb")
    sub = check_sublinearity(ucb_mean, ucb_se, min_t=100)
    print(f"sublinear regret growth: {'holds' if sub.holds else 'violated'}")
    print(f"  per-step regret falls to {ucb_mean[-1] / N:.4f} at t={N}")

    actions = online_runs(ucb, env, N, REPS, 11, "envelope").actions
    envelope = check_monotone_envelope(ucb, env, actions)
    print(f"suboptimal-pull envelope: {envelope.verdict}")

    # R_n and R_M of each rep, read off one online run over n
    grid = make_grid(N, 8)
    regret = online_runs(ucb, env, grid.n, 40, 12, "neg_n").pseudo_regret
    rev = check_negated_sublinearity(regret[:, -1], regret[:, grid.M - 1], grid.b)
    print(f"b-fold reversal probe (is R_n > b * R_M?): {rev.verdict}")
    print(f"  ('violated' is the healthy outcome: d = {rev.d:+.1f}, no reversal)\n")

    print("-- two-phase switcher (good arm until t=40, then bad arm) --")
    two_phase = TwoPhaseSwitchPolicy(env.k, good_arm=0, bad_arm=1, switch_t=40)
    bad_mean, bad_se = curve_for(two_phase, env, N, REPS, "two_phase")
    sub = check_sublinearity(bad_mean, bad_se, min_t=100)
    print(f"sublinear regret growth: {'holds' if sub.holds else 'violated'}")
    print(f"  {sub.pairs.shape[0]} violating time pairs; per-step regret climbs to")
    print(
        f"  {bad_mean[-1] / N:.4f} at t={N}: the policy pays the full"
        " gap forever after switching"
    )

    bound = MonotoneBound(env.means)
    print("\ncertified optimal-play fraction from the monotone envelope:")
    for t in (100, 400, 800):
        print(f"  t={t:4d}: at least {bound(t):.3f} of pulls on the best arm")
    print(
        "\nA policy that fails the sublinearity audit cannot be certified by"
        "\nthe delayed-start wrapper, and the sandwich bound stops applying."
    )


if __name__ == "__main__":
    main()
