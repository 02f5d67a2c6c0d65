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
    RegretCurve,
    check_monotone_envelope,
    check_negated_sublinearity,
    check_sublinearity,
)

ENV = "env2"
N = 800
REPS = 80


def curve_for(policy, env, n: int, reps: int, tag: str) -> RegretCurve:
    # one lockstep call; neither audited policy draws, so each rep is its lone run
    seeds = [derive_seed(9, "audit", tag, i) for i in range(reps)]
    return RegretCurve.from_runs(run_online(policy, env, n, seeds).pseudo_regret)


def main() -> None:
    env = preset(ENV)
    print(f"environment {ENV}: means {env.means.tolist()}\n")

    print(f"-- UCB, n={N}, {REPS} repetitions --")
    ucb = UcbPolicy(env.k)
    ucb_curve = curve_for(ucb, env, N, REPS, "ucb")
    sub = check_sublinearity(ucb_curve, min_t=100)
    print(f"sublinear regret growth: {'holds' if sub.holds else 'violated'}")
    print(f"  per-step regret falls to {ucb_curve.values[-1] / N:.4f} at t={N}")

    envelope = check_monotone_envelope(ucb, env, reps=REPS, t_max=N, master_seed=11)
    print(f"suboptimal-pull envelope: {envelope.verdict}")

    rev = check_negated_sublinearity(ucb, env, make_grid(N, 8), reps=40, master_seed=12)
    print(f"b-fold reversal probe (is R_n > b * R_M?): {rev.verdict}")
    print(f"  ('violated' is the healthy outcome: d = {rev.d:+.1f}, no reversal)\n")

    print("-- two-phase switcher (good arm until t=40, then bad arm) --")
    two_phase = TwoPhaseSwitchPolicy(env.k, good_arm=0, bad_arm=1, switch_t=40)
    bad_curve = curve_for(two_phase, env, N, REPS, "two_phase")
    sub = check_sublinearity(bad_curve, min_t=100)
    print(f"sublinear regret growth: {'holds' if sub.holds else 'violated'}")
    print(f"  {sub.pairs.shape[0]} violating time pairs; per-step regret climbs to")
    print(
        f"  {bad_curve.values[-1] / N:.4f} at t={N}: the policy pays the full"
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
