import tracemalloc

import numpy as np
import pytest
from reference_runner import reference_run

from batchband import assumptions
from batchband.core import (
    DecisionRule,
    DimensionMismatchError,
    Instance,
    _mean_se,
    derive_seed,
    make_grid,
)
from batchband.environments import make_linear_env, preset
from batchband.policies import (
    FixedArmPolicy,
    ThompsonBetaPolicy,
    TwoPhaseSwitchPolicy,
    UcbPolicy,
    UniformPolicy,
)
from batchband.assumptions import (
    EnvelopeReport,
    UnsupportedPolicyError,
    check_lemma31,
    check_monotone_envelope,
    check_negated_sublinearity,
    check_sublinearity,
    mean_rule_trace,
    probe_informativeness,
)
from batchband.harness import ExperimentConfig, _cell_seeds, run_experiment
from batchband.specifications import Readings, run_online, sim_seeds


def online_actions(policy, env, n, reps, *key):
    """The actions of one online run over ``n`` steps on the seeds
    ``sim_seeds(reps, *key)``."""
    return run_online(policy, env, n, sim_seeds(reps, *key)).actions


def online_readings(policy, env, grid, reps, *key):
    """Each rep's regret at steps n and M of ``grid``, read off one online
    run over n on ``sim_seeds(reps, *key)``."""
    seeds, keep = sim_seeds(reps, *key), Readings(reps, 0, (grid.n - 1, grid.M - 1))
    return run_online(policy, env, grid.n, seeds, keep=keep).regret.T


# ---------------------------------------------------------------- regret curve


@pytest.mark.parametrize("call, error, message", [
    (lambda: check_sublinearity(np.zeros(3), np.zeros(2)), ValueError,
     "mean and stderr must be matching 1-D arrays"),
    (lambda: check_sublinearity(np.zeros((2, 3)), np.zeros((2, 3))), ValueError,
     "mean and stderr must be matching 1-D arrays"),
    (lambda: check_sublinearity(np.ones(3), np.zeros(3), min_t=0),
     ValueError, r"min_t 0 outside 1\.\.3"),
    (lambda: check_sublinearity(np.ones(3), np.zeros(3), min_t=4),
     ValueError, r"min_t 4 outside 1\.\.3"),
    (lambda: check_lemma31([], Instance(np.array([0.7, 0.5]))), ValueError,
     "need at least one rule"),
    (lambda: probe_informativeness(UcbPolicy(2), preset("env1"), t=1, reps=10), ValueError,
     "need t >= 2"),
    (lambda: check_monotone_envelope(UcbPolicy(2), preset("env1"), np.zeros((1, 20), int)),
     ValueError, "need at least 2 reps"),
    (lambda: probe_informativeness(UcbPolicy(2), make_linear_env(2, 2), t=10, reps=10),
     TypeError, "informativeness probe supports finite-armed environments"),
    (lambda: check_monotone_envelope(UcbPolicy(2), make_linear_env(2, 2), np.zeros((10, 20), int)),
     UnsupportedPolicyError, "envelope check supports finite-armed environments"),
    (lambda: probe_informativeness(UcbPolicy(2), preset("env1"), t=10, reps=10, k=7.9),
     TypeError, "'float' object cannot be interpreted as an integer"),
    (lambda: probe_informativeness(UcbPolicy(2), preset("env1"), t=10, reps=10, k_prime=1.5),
     TypeError, "'float' object cannot be interpreted as an integer"),
    (lambda: check_negated_sublinearity(np.zeros(3), np.zeros(4), 2), ValueError,
     "r_n and r_m must be matching 1-D arrays"),
    (lambda: check_negated_sublinearity(np.zeros((2, 3)), np.zeros((2, 3)), 2), ValueError,
     "r_n and r_m must be matching 1-D arrays"),
    (lambda: mean_rule_trace(UcbPolicy(2), np.zeros(5, int)), ValueError,
     r"actions must be a non-empty \(reps, steps\) array of arms in 0\.\.1"),
    (lambda: mean_rule_trace(UcbPolicy(2), np.full((3, 5), 2)), ValueError,
     r"array of arms in 0\.\.1"),
    (lambda: mean_rule_trace(UcbPolicy(2), np.full((3, 5), -1)), ValueError,
     r"array of arms in 0\.\.1"),
    (lambda: mean_rule_trace(UcbPolicy(2), np.zeros((3, 5))), ValueError,
     r"array of arms in 0\.\.1"),
    (lambda: check_monotone_envelope(UcbPolicy(4), preset("env6"), np.zeros((2, 3, 5), int)),
     ValueError, r"actions must be a non-empty \(reps, steps\) array of arms in 0\.\.3"),
    (lambda: check_monotone_envelope(UcbPolicy(4), preset("env6"), np.full((4, 5), 4)),
     ValueError, r"array of arms in 0\.\.3"),
    (lambda: run_online(UcbPolicy(2), preset("env1"), 100, [1, 2, 3], keep=Readings(3, 101)),
     ValueError, r"readings need a cap in 0\.\.100 and steps in 0\.\.99, got cap 101"),
    (lambda: run_online(UcbPolicy(2), preset("env1"), 100, [1, 2, 3],
                        keep=Readings(3, 10, (99, 150))),
     ValueError, r"got cap 10 and steps \[99, 150\]"),
    (lambda: run_online(UcbPolicy(2), preset("env1"), 100, [1, 2, 3],
                        keep=Readings(3, 10, (99, -1))),
     ValueError, r"got cap 10 and steps \[99, -1\]"),
], ids=["curve-shapes-differ", "curve-2d", "min-t-0", "min-t-past-n",
        "lemma31-no-rules", "probe-t-1", "envelope-one-rep",
        "probe-linear-env", "envelope-linear-env", "probe-k-float", "probe-k-prime-float",
        "negation-shapes-differ", "negation-2d", "trace-1d", "trace-arm-past-k",
        "trace-negative-arm", "trace-float-actions", "envelope-3d", "envelope-arm-past-k",
        "readings-cap-past-n", "readings-step-past-n", "readings-negative-step"])
def test_checks_reject_bad_input(call, error, message):
    with pytest.raises(error, match=message):
        call()


def test_regret_curve_from_runs_equals_regret_curve():
    # one reduction: a sweep cell's curve is the same bits as its reps' runs
    cfg = ExperimentConfig(envs=("env6",), policies=("ucb",), n=300, batch_sizes=(1,),
                           reps=50, master_seed=4)
    cell = run_experiment(cfg).rows[0]
    seeds = [derive_seed(4, "env6|ucb|plain|300|1", i) for i in range(50)]
    assert _cell_seeds(cfg, "env6", "ucb", 1) == seeds
    mean, stderr = _mean_se(run_online(UcbPolicy(4), preset("env6"), 300, seeds).pseudo_regret)
    assert cell.reps == 50
    assert mean.tobytes() == cell.curve_mean.tobytes()
    assert stderr.tobytes() == cell.curve_stderr.tobytes()


def test_regret_curve_of_identical_reps_has_no_spread():
    # every rep of a fixed arm has the same regret; a one-pass variance
    # (sum of squares minus squared sum) cancelled to stderrs up to 2.9e-6
    runs = run_online(FixedArmPolicy(4, 1), preset("env6"), 2000, list(range(500)))
    assert (runs.pseudo_regret == runs.pseudo_regret[0]).all()
    assert _mean_se(runs.pseudo_regret)[1].max() < 1e-12


# ---------------------------------------------------------------- sublinearity


def test_sublinearity_deterministic_linear_curve_fails():
    # R = (1, 2, 3): every ratio equals 1, flagged at equality
    rep = check_sublinearity(np.array([1.0, 2.0, 3.0]), np.zeros(3))
    assert not rep.holds
    assert rep.pairs.shape[0] == 3  # (1,2), (1,3), (2,3)


def test_a_violated_verdict_holds_o_pair_cells_memory():
    # a noiseless linear curve violates on every pair, about 8M at n=4,000;
    # the verdict stops at the first block and builds no pair array
    t = np.arange(1, 4001, dtype=float)
    tracemalloc.start()
    try:
        assert not check_sublinearity(0.2 * t, np.zeros(t.size), min_t=50).holds
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


def test_sublinearity_concave_curve_holds():
    t = np.arange(1, 101)
    rep = check_sublinearity(np.sqrt(t), np.zeros(100))
    assert rep.holds and rep.pairs.shape[0] == 0


def test_sublinearity_noise_makes_equal_ratios_inconclusive_not_violating():
    t = np.arange(1, 51, dtype=float)
    rep = check_sublinearity(t, np.full(50, 0.5))
    # linear in expectation but noisy: pooled 2-se slack absorbs equality
    assert rep.holds


def test_sublinearity_min_t_excludes_early_noise():
    vals = np.array([0.1, 0.4, 0.7, 0.9, 1.05, 1.15])
    # ratios: .1 .2 .233 .225 .21 .192 -> early ratios increase
    assert not check_sublinearity(vals, np.zeros(6)).holds
    assert check_sublinearity(vals, np.zeros(6), min_t=3).holds


def test_sublinearity_ucb_env1_holds_beyond_burn_in():
    env = preset("env1")
    runs = np.stack(
        [run_online(UcbPolicy(2), env, 400, seed=i).pseudo_regret for i in range(80)]
    )
    rep = check_sublinearity(*_mean_se(runs), min_t=50)
    assert rep.holds


def _whole_matrix_pairs(mean, stderr, min_t):
    """The violating pairs of the sublinearity rule over the whole (m, m)
    matrix at once, in row-major order."""
    ts = np.arange(min_t, mean.size + 1, dtype=float)
    r = mean[min_t - 1 :] / ts
    se = stderr[min_t - 1 :] / ts
    pooled = 2.0 * np.sqrt(se[:, None] ** 2 + se[None, :] ** 2)
    bad = r[:, None] <= r[None, :] - pooled
    bad &= np.triu(np.ones(bad.shape, dtype=bool), k=1)
    return np.argwhere(bad) + min_t


@pytest.mark.parametrize("cells", [1, 7, 64, 2**18, assumptions._PAIR_CELLS])
@pytest.mark.parametrize("seed", range(4))
def test_sublinearity_in_row_blocks_equals_the_whole_matrix_rule(monkeypatch, cells, seed):
    # noisy, tied and noiseless curves, so pairs violate within a block,
    # across blocks, by ties at zero stderr and not at all
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 90))
    t = np.arange(1, n + 1, dtype=float)
    curves = [
        (np.cumsum(rng.random(n)), rng.random(n) * 0.2),
        (np.round(t * rng.random(), 1), np.zeros(n)),
        (np.sqrt(t), np.where(rng.random(n) < 0.5, 0.0, 0.05)),
        (np.full(n, 2.0), np.zeros(n)),
    ]
    monkeypatch.setattr(assumptions, "_PAIR_CELLS", cells)
    for curve in curves:
        min_t = int(rng.integers(1, n + 1))
        rep = check_sublinearity(*curve, min_t=min_t)
        want = _whole_matrix_pairs(*curve, min_t)
        assert rep.pairs.dtype == want.dtype and rep.pairs.shape == want.shape
        assert np.array_equal(rep.pairs, want)
        assert rep.holds == (want.shape[0] == 0)


# ---------------------------------------------------------------- lemma 3.1


def test_lemma31_improving_rules_hold_strictly():
    inst = Instance(np.array([0.7, 0.5]))
    rules = [
        DecisionRule(np.array([0.2, 0.8])),  # 0.54
        DecisionRule(np.array([0.4, 0.6])),  # 0.58
        DecisionRule(np.array([0.6, 0.4])),  # 0.62
    ]
    rep = check_lemma31(rules, inst)
    assert rep.prefix_verdict == "holds"
    assert rep.pointwise_verdict == "holds"
    assert np.allclose(rep.values, [0.54, 0.58, 0.62])
    assert np.allclose(rep.prefix_values, [0.54, 0.56, 0.58])


def test_lemma31_constant_rules_are_boundary():
    inst = Instance(np.array([0.7, 0.5]))
    rules = [DecisionRule(np.array([0.5, 0.5]))] * 4
    rep = check_lemma31(rules, inst)
    assert rep.prefix_verdict == "boundary"
    assert rep.pointwise_verdict == "boundary"


def test_lemma31_worsening_rules_fail():
    inst = Instance(np.array([0.7, 0.5]))
    rules = [
        DecisionRule(np.array([0.8, 0.2])),
        DecisionRule(np.array([0.5, 0.5])),
        DecisionRule(np.array([0.2, 0.8])),
    ]
    rep = check_lemma31(rules, inst)
    assert rep.prefix_verdict == "fails"
    assert rep.pointwise_verdict == "fails"


def test_lemma31_single_step_vacuous():
    inst = Instance(np.array([0.7, 0.5]))
    rep = check_lemma31([DecisionRule(np.array([0.3, 0.7]))], inst)
    assert rep.prefix_verdict == "holds"
    assert rep.pointwise_verdict == "holds"


# ---------------------------------------------------------------- negated sublinearity


def test_negation_two_phase_switcher_holds():
    env = preset("env1")
    grid = make_grid(200, 10)  # M = 20 < switch point
    pol = TwoPhaseSwitchPolicy(2, good_arm=0, bad_arm=1, switch_t=100)
    rep = check_negated_sublinearity(*online_readings(pol, env, grid, 5, 0, "neg_n"), grid.b)
    assert rep.holds and rep.verdict == "holds"
    # closed forms: R_200 = 0.2 * 100 = 20, R_20 = 0
    assert rep.mean_n == pytest.approx(20.0, abs=1e-12)
    assert rep.mean_m == pytest.approx(0.0, abs=1e-12)
    assert bool(rep) is True


def test_negation_constant_worst_equality_fails_strictness():
    env = preset("env1")
    grid = make_grid(100, 5)
    pol = FixedArmPolicy(2, arm=1)
    rep = check_negated_sublinearity(*online_readings(pol, env, grid, 3, 0, "neg_n"), grid.b)
    # R_n = 0.2 n exactly: d = 0.2*100 - 5*0.2*20 = 0
    assert rep.verdict == "violated"
    assert not rep.holds
    assert rep.d == pytest.approx(0.0, abs=1e-12)


def test_negation_b1_boundary_excluded():
    # at b = 1, M = n: every rep's difference is 0, with no spread
    env = preset("env1")
    rep = check_negated_sublinearity(
        *online_readings(UcbPolicy(2), env, make_grid(50, 1), 2, 0, "neg_n"), 1)
    assert rep.verdict == "boundary" and not rep.holds
    assert (rep.d, rep.stderr) == (0.0, 0.0)


def test_negation_rejects_single_rep():
    for b in (1, 5):
        with pytest.raises(ValueError, match="reps"):
            check_negated_sublinearity(np.array([3.0]), np.array([1.0]), b)


def test_negation_learning_policy_fails_to_negate():
    env = preset("env3")
    grid = make_grid(400, 20)
    rep = check_negated_sublinearity(
        *online_readings(UcbPolicy(2), env, grid, 30, 4, "neg_n"), grid.b)
    assert rep.verdict in ("violated", "inconclusive")
    assert not rep.holds


@pytest.mark.parametrize("policy", [UcbPolicy(4), ThompsonBetaPolicy(4), UniformPolicy(4)])
def test_negation_is_a_paired_test_on_one_online_run(policy):
    # the readings at steps n and M of one online run over n are the whole
    # run's regret there, and the statistic their paired differences' mean
    grid = make_grid(160, 8)
    seeds = sim_seeds(12, 3, "neg_n")
    r_n, r_m = online_readings(policy, preset("env6"), grid, 12, 3, "neg_n")
    regret = run_online(policy, preset("env6"), 160, seeds).pseudo_regret
    assert np.array_equal(r_n, regret[:, -1]) and np.array_equal(r_m, regret[:, grid.M - 1])
    rep = check_negated_sublinearity(r_n, r_m, 8)
    d, se = _mean_se(r_n - 8 * r_m)
    assert (rep.d, rep.stderr) == (d, se)
    assert (rep.mean_n, rep.mean_m) == (r_n.mean(), r_m.mean())


# ---------------------------------------------------------------- informativeness


def test_informativeness_ts_prefers_more_optimal_history():
    env = preset("env1")
    rep = probe_informativeness(
        ThompsonBetaPolicy(2), env, t=10, reps=600, k=8, k_prime=2, master_seed=1
    )
    assert rep.verdict == "consistent"
    assert rep.mean_diff > 0
    assert rep.ci_low > 0


def test_informativeness_ucb_runs_on_point_masses():
    # deterministic policy: rule values are point masses; the probe still
    # reports a coherent paired comparison (direction not asserted: the
    # exploration bonus can legitimately favour the less-pulled arm)
    env = preset("env3")
    rep = probe_informativeness(
        UcbPolicy(2), env, t=10, reps=200, k=8, k_prime=2, master_seed=1
    )
    assert rep.verdict in ("consistent", "violated")
    assert rep.ci_low <= rep.mean_diff <= rep.ci_high
    # differences of point-mass rule values lie in [-0.6, 0.6] on this instance
    assert abs(rep.mean_diff) <= 0.6 + 1e-9


def test_informativeness_equal_counts_within_noise():
    env = preset("env1")
    rep = probe_informativeness(
        ThompsonBetaPolicy(2), env, t=10, reps=300, k=5, k_prime=5, master_seed=2
    )
    assert rep.verdict == "consistent"
    assert abs(rep.mean_diff) <= 4 * max(rep.stderr, 1e-9)


def test_informativeness_defaults_and_validation():
    env = preset("env1")
    rep = probe_informativeness(UcbPolicy(2), env, t=10, reps=50)
    assert (rep.k, rep.k_prime) == (8, 2)
    with pytest.raises(ValueError):
        probe_informativeness(UcbPolicy(2), env, t=10, reps=10, k=2, k_prime=5)


# ---------------------------------------------------------------- envelope


def test_envelope_ucb_consistent_on_env3():
    env = preset("env3")
    actions = online_actions(UcbPolicy(2), env, 800, 150, 3, "envelope")
    rep = check_monotone_envelope(UcbPolicy(2), env, actions)
    assert (rep.reps, rep.t_max) == (150, 800)
    assert isinstance(rep, EnvelopeReport)
    assert rep.verdict == "consistent"
    assert rep.violations == []
    assert bool(rep)


def test_envelope_rejects_unregistered_policy():
    env, actions = preset("env1"), np.zeros((10, 50), int)
    with pytest.raises(UnsupportedPolicyError):
        check_monotone_envelope(ThompsonBetaPolicy(2), env, actions)
    with pytest.raises(UnsupportedPolicyError):
        check_monotone_envelope(UniformPolicy(2), env, actions)


def test_envelope_uniform_negative_control_violates():
    # with an explicit bound, uniform play breaks the envelope once the
    # per-arm term falls below 1/2 (around t = 130 on this instance)
    from batchband.meta import MonotoneBound

    env = preset("env3")
    actions = online_actions(UniformPolicy(2), env, 400, 120, 5, "envelope")
    rep = check_monotone_envelope(UniformPolicy(2), env, actions, bound=MonotoneBound(env.means))
    assert rep.verdict == "violated"
    assert all(t > 100 for t, _, _, _ in rep.violations)
    assert any(abs(frac - 0.5) < 0.1 for _, _, frac, _ in rep.violations)


def test_envelope_skips_forced_init_window():
    env = preset("env3")
    actions = online_actions(UcbPolicy(2), env, 60, 20, 1, "envelope")
    rep = check_monotone_envelope(UcbPolicy(2), env, actions)
    assert rep.evaluated_from == 3
    assert all(t >= 3 for t, _, _, _ in rep.violations)


class _ZeroBound:
    """A bound that every suboptimal pull fraction above zero exceeds."""

    def per_arm(self, t):
        return np.zeros((len(t), 2))


def test_envelope_clears_violations_inside_the_init_window():
    # ucb's second forced pull puts arm 1 at fraction 1/2 at t = 2, with no
    # spread, so only the init window keeps it out of the violations
    env = preset("env3")
    actions = online_actions(UcbPolicy(2), env, 30, 20, 1, "envelope")
    rep = check_monotone_envelope(UcbPolicy(2), env, actions, bound=_ZeroBound())
    assert rep.evaluated_from == 3
    assert [t for t, *_ in rep.violations] == list(range(3, 31))
    assert all(a == 1 for _, a, _, _ in rep.violations)


def test_envelope_rejects_tied_instance():
    from batchband.environments import BernoulliEnv

    env = BernoulliEnv(np.array([0.5, 0.5]))
    with pytest.raises(ValueError):
        check_monotone_envelope(UcbPolicy(2), env, np.zeros((10, 50), int))


def test_rule_trace_records_forced_init_point_masses():
    actions = online_actions(UcbPolicy(2), preset("env1"), 4, 5, 2, "trace")
    rules = mean_rule_trace(UcbPolicy(2), actions)
    assert len(rules) == 4
    assert rules[0].probs.tolist() == [1.0, 0.0]
    assert rules[1].probs.tolist() == [0.0, 1.0]


def test_rule_trace_thompson_starts_symmetric_then_learns():
    actions = online_actions(ThompsonBetaPolicy(2), preset("env1"), 10, 400, 3, "trace")
    rules = mean_rule_trace(ThompsonBetaPolicy(2), actions)
    assert abs(rules[0].probs[0] - 0.5) < 0.08
    assert rules[9].probs[0] > 0.62


def test_rule_trace_deterministic():
    a, b = (mean_rule_trace(ThompsonBetaPolicy(2), online_actions(
        ThompsonBetaPolicy(2), preset("env2"), 5, 20, 7, "trace")) for _ in range(2))
    assert all(np.array_equal(x.probs, y.probs) for x, y in zip(a, b))


def test_rule_trace_rejects_bad_args():
    with pytest.raises(ValueError):
        mean_rule_trace(UcbPolicy(2), np.zeros((5, 0), int))


@pytest.mark.parametrize("name", ["ucb", "ts", "two_phase"])
def test_rule_trace_is_the_per_step_reference_action_frequency(name):
    # the mean rule of step t is the arm frequency in column t of the reps
    # of the per-step reference run
    env, n, reps, master = preset("env6"), 30, 20, 11
    policy = {"ucb": UcbPolicy(4), "ts": ThompsonBetaPolicy(4),
              "two_phase": TwoPhaseSwitchPolicy(4, good_arm=0, bad_arm=3, switch_t=15)}[name]
    seeds = [derive_seed(master, "trace", i) for i in range(reps)]
    runs = reference_run(name, env.means.tolist(), n, 1, seeds, switch_t=15)
    rules = mean_rule_trace(policy, online_actions(policy, env, n, reps, master, "trace"))
    assert len(rules) == n
    for t, rule in enumerate(rules):
        want = [sum(acts[t] == a for acts, _ in runs) / reps for a in range(4)]
        assert rule.probs.tolist() == want


def test_rule_trace_of_uniform_play_is_flat_and_unsimulated(monkeypatch):
    def no_run(*args, **kwargs):
        raise AssertionError("uniform play's trace simulated")

    monkeypatch.setattr(UniformPolicy, "init_reps", no_run)
    rules = mean_rule_trace(UniformPolicy(4), np.zeros((12, 7), int))
    assert len(rules) == 7
    assert all(rule.probs.tolist() == [0.25] * 4 for rule in rules)


@pytest.mark.parametrize("reps", [0, 1])
def test_informativeness_rejects_fewer_than_two_reps(reps):
    with pytest.raises(ValueError, match="reps"):
        probe_informativeness(ThompsonBetaPolicy(2), preset("env1"), t=10, reps=reps)


def test_informativeness_rejects_policy_for_another_arm_count():
    with pytest.raises(DimensionMismatchError):
        probe_informativeness(UcbPolicy(4), preset("env1"), t=10, reps=20)
