"""Acceptance suite: the eight primary criteria at their stated tolerances.

Run ``pytest tests/test_acceptance.py -v``; each criterion is one test, so
the verbose PASSED/FAILED line is its verdict.  Criteria 1 and 2 share a
single full-scale sweep fixture (the dominant cost, run over two working
processes); everything else runs in seconds.  Each test also prints a one-line
quantitative summary visible with ``-s`` or on failure.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from batchband.assumptions import (
    check_negated_sublinearity,
    check_sublinearity,
)
from batchband.cli import main as cli_main
from batchband.core import (
    DecisionRule,
    Instance,
    _mean_se,
    derive_seed,
    make_grid,
    rule_value,
)
from batchband.environments import (
    PRESETS,
    BernoulliEnv,
    preset,
    synth_logged_dataset,
    write_logged_csv,
)
from batchband.harness import (
    ExperimentConfig,
    bound_reports,
    check_theorem_bounds,
    run_experiment,
)
from batchband.meta import MonotoneBound, approx_delayed_start_run
from batchband.policies import (
    BasePolicy,
    FixedArmPolicy,
    TwoPhaseSwitchPolicy,
    UcbPolicy,
    UniformPolicy,
)
from batchband.replay import replay_evaluate
from batchband.specifications import Readings, run_batch, run_online, run_short

Z95 = 1.645
ALL_ENVS = ("env1", "env2", "env3", "env4", "env5", "env6")
SWEEP_BS = (1, 2, 4, 8, 16, 32, 64)


@pytest.fixture(scope="module")
def fig1_sweep():
    cfg = ExperimentConfig(
        envs=ALL_ENVS,
        policies=("ucb", "ts"),
        n=2000,
        batch_sizes=SWEEP_BS,
        reps=500,
        master_seed=2026,
    )
    # outputs do not depend on the thread count (test_outputs_do_not_depend_on_threads)
    return run_experiment(cfg, threads=2)


def test_criterion_1_batch_trend_all_envs(fig1_sweep):
    """b=64 regret exceeds b=1 regret at 95% for every (policy, env)."""
    z_min = math.inf
    worst = None
    for env in ALL_ENVS:
        for policy in ("ucb", "ts"):
            lo = fig1_sweep.row(env, policy, 1)
            hi = fig1_sweep.row(env, policy, 64)
            se = math.hypot(lo.stderr_final, hi.stderr_final)
            z = (hi.mean_final - lo.mean_final) / se
            if z < z_min:
                z_min, worst = z, (policy, env)
            assert hi.mean_final - lo.mean_final > Z95 * se, (
                f"criterion 1 FAIL: {policy} on {env}: b=64 mean "
                f"{hi.mean_final:.2f} vs b=1 mean {lo.mean_final:.2f} "
                f"(z={z:.2f} < {Z95})"
            )
    print(
        f"criterion 1 PASS: batch trend significant for all 12 (policy, env) "
        f"pairs; weakest z={z_min:.1f} at {worst}"
    )


def test_criterion_2_gap_dependence(fig1_sweep):
    """UCB's b=64-over-b=1 increase is larger on env3 than env1 at 95%."""
    def increase(env):
        lo = fig1_sweep.row(env, "ucb", 1)
        hi = fig1_sweep.row(env, "ucb", 64)
        var = lo.stderr_final**2 + hi.stderr_final**2
        return hi.mean_final - lo.mean_final, var

    d3, v3 = increase("env3")
    d1, v1 = increase("env1")
    se = math.sqrt(v3 + v1)
    z = (d3 - d1) / se
    assert d3 - d1 > Z95 * se, (
        f"criterion 2 FAIL: env3 increase {d3:.2f} vs env1 increase {d1:.2f} "
        f"(z={z:.2f} < {Z95})"
    )
    print(
        f"criterion 2 PASS: gap-dependent batch penalty: env3 +{d3:.1f} vs "
        f"env1 +{d1:.1f} (z={z:.1f})"
    )


def test_the_sweep_holds_the_upper_sandwich_on_every_row(fig1_sweep):
    """b * R_M(online) bounds R_n(b) within 2 SE on all 72 (env, policy, b >= 2)
    rows that the sweep's b=1 cells give, with no further run.  The lower
    side is printed, not gated: rows whose true gap is near zero each read
    below -2 SE at about the one-sided 2-SE rate, so a grid-wide gate needs
    a measured multiplicity rule first."""
    reports = bound_reports(fig1_sweep)
    assert len(reports) == len(ALL_ENVS) * 2 * (len(SWEEP_BS) - 1) == 72
    upper_z, lines = [], []
    for r in reports:
        lower, upper = r.inequalities
        upper_z.append((upper.diff / upper.stderr, r.env, r.policy, r.b))
        lines.append(f"{r.env} {r.policy} b={r.b}: lower z={lower.diff / lower.stderr:+.2f} "
                     f"upper z={upper_z[-1][0]:+.2f}")
        assert upper.gate_pass, (
            f"upper sandwich FAIL: {r.env} {r.policy} b={r.b}: R_n(b)={upper.lhs:.2f} vs "
            f"{upper.rhs_label}={upper.rhs:.2f} (slack 2se={2 * upper.stderr:.2f})")
    print("\n".join(lines))
    print(f"upper sandwich PASS on 72 rows; smallest margin {min(upper_z)[0]:+.2f} SE "
          f"at {min(upper_z)[1:]}")


def test_criterion_3_theorem_sandwich():
    """Both sandwich inequalities within 2 pooled SE for TS/UCB, b in {5,10}."""
    lines = []
    for policy in ("ts", "ucb"):
        for b in (5, 10):
            report = check_theorem_bounds(
                policy, "env1", n=1000, b=b, reps=1000, master_seed=33
            )
            for iq in report.inequalities:
                assert iq.gate_pass, (
                    f"criterion 3 FAIL: {policy} b={b} {iq.name} bound: "
                    f"{iq.lhs_label}={iq.lhs:.2f} vs {iq.rhs_label}={iq.rhs:.2f} "
                    f"(slack 2se={2 * iq.stderr:.2f})"
                )
            lines.append(
                f"{policy} b={b}: online {report.mean_online:.1f} <= batch "
                f"{report.mean_batch:.1f} <= {b}*R_M {b * report.mean_m:.1f} "
                f"[{report.inequalities[0].verdict}/{report.inequalities[1].verdict}]"
            )
    print("criterion 3 PASS: " + "; ".join(lines))


def test_criterion_4_suboptimal_count_bound():
    """UCB env3 mean suboptimal pulls <= 4 ln(n)/0.36 + 8 at n=10^4."""
    env = preset("env3")
    n, reps = 10_000, 200
    threshold = 4.0 * math.log(n) / 0.36 + 8.0
    # UCB draws nothing, so each rep of one lockstep call is its lone run
    run = run_online(UcbPolicy(2), env, n, [derive_seed(44, "c4", i) for i in range(reps)])
    counts = n - run.optimal_hits[:, -1]
    mean = counts.mean()
    se = counts.std(ddof=1) / math.sqrt(reps)
    assert mean <= threshold + Z95 * se, (
        f"criterion 4 FAIL: mean suboptimal pulls {mean:.2f} exceeds "
        f"{threshold:.3f} (one-sided 95%)"
    )
    print(
        f"criterion 4 PASS: mean suboptimal pulls {mean:.2f} +- {se:.2f} "
        f"<= {threshold:.3f}"
    )


def test_criterion_5_checkphase_guarantee():
    """Certification box coverage failures <= 2K/tau^2 + CI; covered runs
    are gap-pessimistic."""
    env = preset("env3")
    theta = env.means
    best = env.optimal_arm
    grid = make_grid(20_000, 100)
    runs = 500
    outside = 0
    bounds = []
    pessimism_ok = True
    for i in range(runs):
        rec = approx_delayed_start_run(
            UcbPolicy(2), env, grid, 0.01, derive_seed(55, "c5", i)
        )
        phase = rec.phase
        assert phase.tau_hat is not None, f"run {i} never certified"
        tau = phase.tau_hat
        widths = np.sqrt(np.log(tau) / phase.counts)
        covered = bool(np.all(np.abs(phase.means - theta) <= widths))
        bounds.append(2 * env.k / tau**2)
        if not covered:
            outside += 1
        else:
            for a in range(env.k):
                if a == best:
                    continue
                est_gap = phase.theta_hat[best] - phase.theta_hat[a]
                true_gap = theta[best] - theta[a]
                if not est_gap < true_gap:
                    pessimism_ok = False
    frac = outside / runs
    slack = Z95 * math.sqrt(max(frac * (1 - frac), 1e-12) / runs)
    budget = float(np.mean(bounds)) + slack
    assert frac <= budget, (
        f"criterion 5 FAIL: coverage failure fraction {frac:.4f} exceeds "
        f"2K/tau^2 + CI = {budget:.4f}"
    )
    assert pessimism_ok, "criterion 5 FAIL: a covered run was not gap-pessimistic"
    print(
        f"criterion 5 PASS: {outside}/{runs} coverage failures "
        f"(budget {budget:.4f}); all covered runs gap-pessimistic"
    )


def test_criterion_6_replay_unbiasedness(tmp_path):
    """Uniform target on 10^5 uniform-logged env1 records: CR = 0.6 +- 0.01."""
    env = preset("env1")
    dataset = synth_logged_dataset(env, 100_000, seed=66)
    result = replay_evaluate(UniformPolicy(2), dataset, b=1, seed=7)
    assert result.matched > 40_000
    assert abs(result.cr - 0.6) <= 0.01, (
        f"criterion 6 FAIL: replay CR {result.cr:.4f} deviates from 0.6 "
        f"by more than 0.01"
    )
    print(
        f"criterion 6 PASS: replay CR {result.cr:.4f} on "
        f"{result.matched} matched records (target 0.6 +- 0.01)"
    )


class _Spy(BasePolicy):
    name = "spy"

    def __init__(self, k):
        self.k = k
        self.seen = []
        self.update_sizes = []

    def init_reps(self, reps):
        return UniformPolicy(self.k).init_reps(reps)

    def act_reps(self, states, b, rngs, rows):
        self.seen.append(states.t_seen)
        return UniformPolicy(self.k).act_reps(states, b, rngs, rows)

    def update_reps(self, states, actions, rewards):
        self.update_sizes.append(actions.shape[1])
        return UniformPolicy(self.k).update_reps(states, actions, rewards)


def test_criterion_7_invariant_suites():
    """Normalization, averaging, visibility, bound monotonicity,
    decomposition, and the negative controls."""
    rng = np.random.default_rng(77)

    # decision-rule normalization at 1e-12
    for _ in range(200):
        k = int(rng.integers(2, 6))
        raw = rng.random(k) + 1e-3
        DecisionRule(raw / raw.sum())
    with pytest.raises(ValueError):
        DecisionRule(np.array([0.5, 0.5 + 1e-8]))

    # average-rule validity and value linearity
    for _ in range(100):
        k = int(rng.integers(2, 5))
        rules = []
        for _ in range(int(rng.integers(2, 6))):
            raw = rng.random(k) + 1e-3
            rules.append(DecisionRule(raw / raw.sum()))
        avg = DecisionRule(np.mean([r.probs for r in rules], axis=0))
        theta = Instance(rng.random(k))
        direct = float(np.mean([rule_value(r, theta) for r in rules]))
        assert abs(rule_value(avg, theta) - direct) < 1e-12

    # visibility laws: online sees every step, batch sees boundaries,
    # short sees one entry per batch
    env = preset("env1")
    spy = _Spy(2)
    run_online(spy, env, 6, seed=1)
    assert spy.seen == [0, 1, 2, 3, 4, 5]
    assert spy.update_sizes == [1] * 6
    spy = _Spy(2)
    run_batch(spy, env, make_grid(6, 3), seed=1)
    assert spy.seen == [0, 3]
    assert spy.update_sizes == [3, 3]
    spy = _Spy(2)
    run_short(spy, env, make_grid(6, 3), seed=1)
    assert spy.seen == [0, 1]
    assert spy.update_sizes == [1, 1]

    # monotone bound: non-decreasing in t and in the gaps, every preset
    ts = np.arange(1, 2001)
    for name in PRESETS:
        e = preset(name)
        bound = MonotoneBound(e.means)
        agg = bound.aggregate(ts)
        assert np.all(np.diff(agg) >= -1e-12), f"time monotonicity broke on {name}"
        widened_means = e.means.copy()
        mask = e.gap_vector() > 0
        widened_means[mask] -= 0.05
        wide = MonotoneBound(BernoulliEnv(widened_means).means)
        assert np.all(wide.aggregate(ts) >= agg - 1e-12), (
            f"instance monotonicity broke on {name}"
        )

    # regret-decomposition identity at 1e-9
    cfg = ExperimentConfig(
        envs=("env4", "env5"), policies=("ucb", "ts"), n=200,
        batch_sizes=(1, 5), reps=10, master_seed=3,
    )
    for row in run_experiment(cfg).rows:
        gap = preset(row.env).gap_vector()
        assert abs(float(gap @ row.mean_pull_counts) - row.mean_final) < 1e-9

    # negative control: linear-regret policy fails sublinearity
    env2 = preset("env2")
    mat = np.stack(
        [run_online(FixedArmPolicy(2, 1), env2, 60, seed=s).pseudo_regret
         for s in range(5)]
    )
    assert not check_sublinearity(*_mean_se(mat)).holds

    # negative control: reversed inequality holds for the two-phase policy,
    # read at steps n and M of one online run
    grid = make_grid(40, 2)
    seeds = [derive_seed(9, "neg_n", i) for i in range(4)]
    readings = run_online(TwoPhaseSwitchPolicy(2, good_arm=0, bad_arm=1, switch_t=20), env2,
                          grid.n, seeds, keep=Readings(4, 0, (grid.n - 1, grid.M - 1)))
    neg = check_negated_sublinearity(*readings.regret.T, grid.b)
    assert neg.verdict == "holds"
    assert neg.d == pytest.approx(6.0)

    print(
        "criterion 7 PASS: normalization, averaging, visibility, bound "
        "monotonicity, decomposition, and both negative controls"
    )


def test_criterion_8_cli_determinism(tmp_path):
    """Identical flags give byte-identical outputs, across --threads too."""
    sim = ["simulate", "--env", "env2", "--policy", "ucb,ts", "--n", "200",
           "--b", "1,8", "--reps", "20", "--seed", "5", "--plot"]
    dirs = [tmp_path / d for d in ("s1", "s2", "s4")]
    assert cli_main(sim + ["--threads", "1", "--out-dir", str(dirs[0])]) == 0
    assert cli_main(sim + ["--threads", "1", "--out-dir", str(dirs[1])]) == 0
    assert cli_main(sim + ["--threads", "2", "--out-dir", str(dirs[2])]) == 0
    for name in ("results.csv", "curves.csv", "plot.svg"):
        ref = (dirs[0] / name).read_bytes()
        assert (dirs[1] / name).read_bytes() == ref, f"{name} rerun differs"
        assert (dirs[2] / name).read_bytes() == ref, f"{name} differs at --threads 2"

    bounds = ["check-bounds", "--policy", "ts", "--env", "env2", "--n", "100",
              "--b", "5", "--reps", "20", "--seed", "3"]
    b_dirs = [tmp_path / d for d in ("b1", "b2", "b4")]
    assert cli_main(bounds + ["--threads", "1", "--out-dir", str(b_dirs[0])]) == 0
    assert cli_main(bounds + ["--threads", "1", "--out-dir", str(b_dirs[1])]) == 0
    assert cli_main(bounds + ["--threads", "2", "--out-dir", str(b_dirs[2])]) == 0
    ref = (b_dirs[0] / "bounds.csv").read_bytes()
    assert (b_dirs[1] / "bounds.csv").read_bytes() == ref
    assert (b_dirs[2] / "bounds.csv").read_bytes() == ref

    logs = tmp_path / "logs.csv"
    write_logged_csv(synth_logged_dataset(preset("env1"), 3000, seed=8), logs)
    rep = ["replay", "--data", str(logs), "--policy", "ts", "--b", "1,50",
           "--seed", "2"]
    r_dirs = [tmp_path / d for d in ("r1", "r2")]
    assert cli_main(rep + ["--out-dir", str(r_dirs[0])]) == 0
    assert cli_main(rep + ["--out-dir", str(r_dirs[1])]) == 0
    assert (r_dirs[0] / "replay.csv").read_bytes() == (
        r_dirs[1] / "replay.csv"
    ).read_bytes()
    print(
        "criterion 8 PASS: simulate, check-bounds, and replay outputs "
        "byte-identical across reruns and thread counts"
    )
