"""The sandwich bound on batched regret, and how an adversary breaks it.

For a policy run on a batch grid with M batches of size b, the batched
regret R_n(b) is bounded on both sides:

    R_n(online)  <=  R_n(b)  <=  b * R_M(online)

The left side says delayed feedback cannot help; the right side says a
batched run is at worst b copies of a horizon-M online run.  Part 1
checks both inequalities for UCB by Monte Carlo.  Part 2 constructs a
two-phase switching policy whose regret is *lower* with batching: stale
history keeps it playing the good arm past its built-in switch point, so
the lower inequality genuinely fails.  The bound is a statement about
policies that process feedback consistently, and this policy does not.

Run:  python3 demos/theorem_sandwich.py
"""

from __future__ import annotations

from batchband import check_theorem_bounds

N = 600
B = 10
REPS = 150


def show(report) -> None:
    print(
        f"  online R_{report.n}      = {report.mean_online:7.2f}"
        f" (se {report.se_online:.2f})"
    )
    print(
        f"  batched R_{report.n}(b={report.b}) = {report.mean_batch:7.2f}"
        f" (se {report.se_batch:.2f})"
    )
    print(
        f"  b * online R_{report.m}  = {report.b * report.mean_m:7.2f}"
        f" (se {report.b * report.se_m:.2f})"
    )
    for iq in report.inequalities:
        print(
            f"  {iq.name:5}: {iq.lhs_label} <= {iq.rhs_label}"
            f"  margin {iq.diff:+.2f}  verdict={iq.verdict}"
            f"  gate={'pass' if iq.gate_pass else 'FAIL'}"
        )


def main() -> None:
    print(f"part 1: UCB on env2, n={N}, b={B}, {REPS} repetitions")
    report = check_theorem_bounds("ucb", "env2", n=N, b=B, reps=REPS, master_seed=7)
    show(report)
    print(
        "\nBoth margins are nonnegative within noise: batching hurts, but by"
        f"\nno more than the b-fold horizon-{report.m} bound allows.\n"
    )

    print("part 2: adversarial two-phase policy, n=20, b=5, switch at t=8")
    print("(plays the good arm while it has seen fewer than 8 rewards,")
    print(" then deliberately switches to the bad arm)")
    report = check_theorem_bounds(
        "two_phase",
        "env2",
        n=20,
        b=5,
        reps=2,  # deterministic policy: both reps agree, so the stderr is 0
        master_seed=7,
        policy_params={"switch_t": 8},
    )
    show(report)
    print(
        "\nWith b=5 the policy's visible history is frozen inside each batch,"
        "\nso it keeps playing the good arm through t=10 instead of t=8 and"
        "\nends up with *less* regret than its online run: the lower"
        "\ninequality is violated, deterministically, by construction."
        "\n(The upper bound fails too: a horizon-4 run never reaches the"
        "\nswitch, so b * R_M is zero while the batched run still switches.)"
    )


if __name__ == "__main__":
    main()
