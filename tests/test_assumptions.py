import tracemalloc

import numpy as np
import pytest
from reference_runner import reference_run

from batchband import assumptions
from batchband.core import DecisionRule, DimensionMismatchError, Instance, derive_seed, make_grid
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
    RegretCurve,
    UnsupportedPolicyError,
    check_lemma31,
    check_monotone_envelope,
    check_negated_sublinearity,
    check_sublinearity,
    mean_rule_trace,
    probe_informativeness,
)
from batchband.harness import ExperimentConfig, _cell_key, run_experiment
from batchband.specifications import run_online


# ---------------------------------------------------------------- regret curve


def test_regret_curve_from_runs():
    runs = np.array([[1.0, 2.0, 3.0], [3.0, 4.0, 5.0]])
    c = RegretCurve.from_runs(runs)
    assert np.allclose(c.values, [2.0, 3.0, 4.0])
    assert c.reps == 2
    assert np.all(c.stderr > 0)
    single = RegretCurve.from_runs(runs[:1])
    assert np.all(single.stderr == 0.0)


@pytest.mark.parametrize("call, error, message", [
    (lambda: RegretCurve(np.zeros(3), np.zeros(2), reps=1), ValueError,
     "values and stderr must be matching 1-D arrays"),
    (lambda: RegretCurve(np.zeros((2, 3)), np.zeros((2, 3)), reps=1), ValueError,
     "values and stderr must be matching 1-D arrays"),
    (lambda: RegretCurve.from_runs(np.zeros(3)), ValueError, r"need a \(reps, n\) matrix"),
    (lambda: check_sublinearity(RegretCurve(np.ones(3), np.zeros(3), 1), min_t=0),
     ValueError, r"min_t 0 outside 1\.\.3"),
    (lambda: check_sublinearity(RegretCurve(np.ones(3), np.zeros(3), 1), min_t=4),
     ValueError, r"min_t 4 outside 1\.\.3"),
    (lambda: check_lemma31([], Instance(np.array([0.7, 0.5]))), ValueError,
     "need at least one rule"),
    (lambda: probe_informativeness(UcbPolicy(2), preset("env1"), t=1, reps=10), ValueError,
     "need t >= 2"),
    (lambda: check_monotone_envelope(UcbPolicy(2), preset("env1"), reps=1, t_max=20),
     ValueError, "need at least 2 reps"),
    (lambda: mean_rule_trace(UcbPolicy(2), make_linear_env(2, 2), n=5, reps=2),
     UnsupportedPolicyError, "rule traces support Bernoulli environments only"),
    (lambda: probe_informativeness(UcbPolicy(2), make_linear_env(2, 2), t=10, reps=10),
     TypeError, "informativeness probe supports finite-armed environments"),
    (lambda: check_monotone_envelope(UcbPolicy(2), make_linear_env(2, 2), reps=10, t_max=20),
     UnsupportedPolicyError, "envelope check supports finite-armed environments"),
    (lambda: probe_informativeness(UcbPolicy(2), preset("env1"), t=10, reps=10, k=7.9),
     TypeError, "'float' object cannot be interpreted as an integer"),
    (lambda: probe_informativeness(UcbPolicy(2), preset("env1"), t=10, reps=10, k_prime=1.5),
     TypeError, "'float' object cannot be interpreted as an integer"),
], ids=["curve-shapes-differ", "curve-2d", "runs-1d", "min-t-0", "min-t-past-n",
        "lemma31-no-rules", "probe-t-1", "envelope-one-rep", "trace-linear-env",
        "probe-linear-env", "envelope-linear-env", "probe-k-float", "probe-k-prime-float"])
def test_checks_reject_bad_input(call, error, message):
    with pytest.raises(error, match=message):
        call()


def test_regret_curve_from_runs_equals_regret_curve():
    # one reduction: a sweep cell's curve is the same bits as its reps' runs
    cfg = ExperimentConfig(envs=("env6",), policies=("ucb",), n=300, batch_sizes=(1,),
                           reps=50, master_seed=4)
    cell = run_experiment(cfg).rows[0]
    key = _cell_key("env6", "ucb", "plain", 300, 1, cfg.delta, cfg.bound_from)
    seeds = [derive_seed(4, key, i) for i in range(50)]
    got = RegretCurve.from_runs(run_online(UcbPolicy(4), preset("env6"), 300, seeds).pseudo_regret)
    assert got.reps == cell.reps == 50
    assert got.values.tobytes() == cell.curve_mean.tobytes()
    assert got.stderr.tobytes() == cell.curve_stderr.tobytes()


def test_regret_curve_of_identical_reps_has_no_spread():
    # every rep of a fixed arm has the same regret; a one-pass variance
    # (sum of squares minus squared sum) cancelled to stderrs up to 2.9e-6
    runs = run_online(FixedArmPolicy(4, 1), preset("env6"), 2000, list(range(500)))
    assert (runs.pseudo_regret == runs.pseudo_regret[0]).all()
    c = RegretCurve.from_runs(runs.pseudo_regret)
    assert c.stderr.max() < 1e-12


# ---------------------------------------------------------------- sublinearity


def test_sublinearity_deterministic_linear_curve_fails():
    # R = (1, 2, 3): every ratio equals 1, flagged at equality
    c = RegretCurve(np.array([1.0, 2.0, 3.0]), np.zeros(3), reps=1)
    rep = check_sublinearity(c)
    assert not rep.holds
    assert rep.pairs.shape[0] == 3  # (1,2), (1,3), (2,3)


def test_a_violated_verdict_holds_o_pair_cells_memory():
    # a noiseless linear curve violates on every pair, about 8M at n=4,000;
    # the verdict stops at the first block and builds no pair array
    t = np.arange(1, 4001, dtype=float)
    curve = RegretCurve(0.2 * t, np.zeros(t.size), reps=5)
    tracemalloc.start()
    try:
        assert not check_sublinearity(curve, min_t=50).holds
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


def test_sublinearity_concave_curve_holds():
    t = np.arange(1, 101)
    c = RegretCurve(np.sqrt(t), np.zeros(100), reps=1)
    rep = check_sublinearity(c)
    assert rep.holds and rep.pairs.shape[0] == 0


def test_sublinearity_noise_makes_equal_ratios_inconclusive_not_violating():
    t = np.arange(1, 51, dtype=float)
    c = RegretCurve(t.copy(), np.full(50, 0.5), reps=100)
    rep = check_sublinearity(c)
    # linear in expectation but noisy: pooled 2-se slack absorbs equality
    assert rep.holds


def test_sublinearity_min_t_excludes_early_noise():
    vals = np.array([0.1, 0.4, 0.7, 0.9, 1.05, 1.15])
    c = RegretCurve(vals, np.zeros(6), reps=1)
    # ratios: .1 .2 .233 .225 .21 .192 -> early ratios increase
    assert not check_sublinearity(c).holds
    assert check_sublinearity(c, min_t=3).holds


def test_sublinearity_ucb_env1_holds_beyond_burn_in():
    env = preset("env1")
    runs = np.stack(
        [run_online(UcbPolicy(2), env, 400, seed=i).pseudo_regret for i in range(80)]
    )
    rep = check_sublinearity(RegretCurve.from_runs(runs), min_t=50)
    assert rep.holds


def _whole_matrix_pairs(curve, min_t):
    """The violating pairs of the sublinearity rule over the whole (m, m)
    matrix at once, in row-major order."""
    ts = np.arange(min_t, curve.n + 1, dtype=float)
    r = curve.values[min_t - 1 :] / ts
    se = curve.stderr[min_t - 1 :] / ts
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
        RegretCurve(np.cumsum(rng.random(n)), rng.random(n) * 0.2, reps=5),
        RegretCurve(np.round(t * rng.random(), 1), np.zeros(n), reps=5),
        RegretCurve(np.sqrt(t), np.where(rng.random(n) < 0.5, 0.0, 0.05), reps=5),
        RegretCurve(np.full(n, 2.0), np.zeros(n), reps=5),
    ]
    monkeypatch.setattr(assumptions, "_PAIR_CELLS", cells)
    for curve in curves:
        min_t = int(rng.integers(1, n + 1))
        rep = check_sublinearity(curve, min_t=min_t)
        want = _whole_matrix_pairs(curve, min_t)
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
    rep = check_negated_sublinearity(pol, env, grid, reps=5, master_seed=0)
    assert rep.holds and rep.verdict == "holds"
    # closed forms: R_200 = 0.2 * 100 = 20, R_20 = 0
    assert rep.mean_n == pytest.approx(20.0, abs=1e-12)
    assert rep.mean_m == pytest.approx(0.0, abs=1e-12)
    assert bool(rep) is True


def test_negation_constant_worst_equality_fails_strictness():
    env = preset("env1")
    grid = make_grid(100, 5)
    pol = FixedArmPolicy(2, arm=1)
    rep = check_negated_sublinearity(pol, env, grid, reps=3)
    # R_n = 0.2 n exactly: d = 0.2*100 - 5*0.2*20 = 0
    assert rep.verdict == "violated"
    assert not rep.holds
    assert rep.d == pytest.approx(0.0, abs=1e-12)


def test_negation_b1_boundary_excluded():
    env = preset("env1")
    rep = check_negated_sublinearity(
        UcbPolicy(2), env, make_grid(50, 1), reps=2
    )
    assert rep.verdict == "boundary" and not rep.holds


def test_negation_rejects_single_rep():
    env = preset("env1")
    for b in (1, 5):
        with pytest.raises(ValueError, match="reps"):
            check_negated_sublinearity(UcbPolicy(2), env, make_grid(50, b), reps=1)


def test_negation_learning_policy_fails_to_negate():
    env = preset("env3")
    rep = check_negated_sublinearity(
        UcbPolicy(2), env, make_grid(400, 20), reps=30, master_seed=4
    )
    assert rep.verdict in ("violated", "inconclusive")
    assert not rep.holds


@pytest.mark.parametrize("policy", [UcbPolicy(4), ThompsonBetaPolicy(4), UniformPolicy(4)])
def test_negation_is_a_paired_test_on_one_online_run(monkeypatch, policy):
    runs = []
    real = assumptions.run_online

    def spy(*args, keep=None):
        runs.append((args, keep))
        return real(*args, keep=keep)

    monkeypatch.setattr(assumptions, "run_online", spy)
    grid = make_grid(160, 8)
    rep = check_negated_sublinearity(policy, preset("env6"), grid, reps=12, master_seed=3)
    # one online run over n, keeping the regret at steps n and M; the whole
    # run on the same arguments holds the same values there
    assert len(runs) == 1 and runs[0][0][2] == 160
    assert runs[0][1].steps.tolist() == [159, grid.M - 1]
    regret = real(*runs[0][0]).pseudo_regret[:12]
    r_n, r_m = regret[:, -1], regret[:, grid.M - 1]
    d, se = assumptions._mean_se(r_n - 8 * r_m)
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
    rep = check_monotone_envelope(UcbPolicy(2), env, reps=150, t_max=800, master_seed=3)
    assert isinstance(rep, EnvelopeReport)
    assert rep.verdict == "consistent"
    assert rep.violations == []
    assert bool(rep)


def test_envelope_rejects_unregistered_policy():
    env = preset("env1")
    with pytest.raises(UnsupportedPolicyError):
        check_monotone_envelope(ThompsonBetaPolicy(2), env, reps=10, t_max=50)
    with pytest.raises(UnsupportedPolicyError):
        check_monotone_envelope(UniformPolicy(2), env, reps=10, t_max=50)


def test_envelope_uniform_negative_control_violates():
    # with an explicit bound, uniform play breaks the envelope once the
    # per-arm term falls below 1/2 (around t = 130 on this instance)
    from batchband.meta import MonotoneBound

    env = preset("env3")
    rep = check_monotone_envelope(
        UniformPolicy(2), env, reps=120, t_max=400, master_seed=5,
        bound=MonotoneBound(env.means),
    )
    assert rep.verdict == "violated"
    assert all(t > 100 for t, _, _, _ in rep.violations)
    assert any(abs(frac - 0.5) < 0.1 for _, _, frac, _ in rep.violations)


def test_envelope_skips_forced_init_window():
    env = preset("env3")
    rep = check_monotone_envelope(UcbPolicy(2), env, reps=20, t_max=60, master_seed=1)
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
    rep = check_monotone_envelope(UcbPolicy(2), env, reps=20, t_max=30, master_seed=1,
                                  bound=_ZeroBound())
    assert rep.evaluated_from == 3
    assert [t for t, *_ in rep.violations] == list(range(3, 31))
    assert all(a == 1 for _, a, _, _ in rep.violations)


def test_envelope_rejects_tied_instance():
    from batchband.environments import BernoulliEnv

    env = BernoulliEnv(np.array([0.5, 0.5]))
    with pytest.raises(ValueError):
        check_monotone_envelope(UcbPolicy(2), env, reps=10, t_max=50)


def test_rule_trace_records_forced_init_point_masses():
    env = preset("env1")
    rules = mean_rule_trace(UcbPolicy(2), env, n=4, reps=5, master_seed=2)
    assert len(rules) == 4
    assert rules[0].probs.tolist() == [1.0, 0.0]
    assert rules[1].probs.tolist() == [0.0, 1.0]


def test_rule_trace_thompson_starts_symmetric_then_learns():
    env = preset("env1")
    rules = mean_rule_trace(ThompsonBetaPolicy(2), env, n=10, reps=400, master_seed=3)
    assert abs(rules[0].probs[0] - 0.5) < 0.08
    assert rules[9].probs[0] > 0.62


def test_rule_trace_deterministic():
    env = preset("env2")
    a = mean_rule_trace(ThompsonBetaPolicy(2), env, n=5, reps=20, master_seed=7)
    b = mean_rule_trace(ThompsonBetaPolicy(2), env, n=5, reps=20, master_seed=7)
    assert all(np.array_equal(x.probs, y.probs) for x, y in zip(a, b))


def test_rule_trace_rejects_bad_args():
    env = preset("env1")
    with pytest.raises(ValueError):
        mean_rule_trace(UcbPolicy(2), env, n=0, reps=5)


@pytest.mark.parametrize("name", ["ucb", "ts", "two_phase"])
def test_rule_trace_is_the_per_step_reference_action_frequency(name):
    # the mean rule of step t is the arm frequency in column t of the kept
    # reps of the per-step reference run, on the trace seeds padded to whole
    # blocks for a drawing policy
    env, n, reps, master = preset("env6"), 30, 20, 11
    policy = {"ucb": UcbPolicy(4), "ts": ThompsonBetaPolicy(4),
              "two_phase": TwoPhaseSwitchPolicy(4, good_arm=0, bad_arm=3, switch_t=15)}[name]
    sim = 32 if name == "ts" else reps
    seeds = [derive_seed(master, "trace", i) for i in range(sim)]
    runs = reference_run(name, env.means.tolist(), n, 1, seeds, switch_t=15)[:reps]
    rules = mean_rule_trace(policy, env, n=n, reps=reps, master_seed=master)
    assert len(rules) == n
    for t, rule in enumerate(rules):
        want = [sum(acts[t] == a for acts, _ in runs) / reps for a in range(4)]
        assert rule.probs.tolist() == want


def test_rule_trace_of_uniform_play_is_flat_and_unsimulated(monkeypatch):
    def no_run(*args, **kwargs):
        raise AssertionError("uniform play's trace simulated")

    monkeypatch.setattr(assumptions, "run_online", no_run)
    monkeypatch.setattr(UniformPolicy, "init_reps", no_run)
    rules = mean_rule_trace(UniformPolicy(4), preset("env6"), n=7, reps=12, master_seed=3)
    assert len(rules) == 7
    assert all(rule.probs.tolist() == [0.25] * 4 for rule in rules)


@pytest.mark.parametrize("reps", [0, 1])
def test_informativeness_rejects_fewer_than_two_reps(reps):
    with pytest.raises(ValueError, match="reps"):
        probe_informativeness(ThompsonBetaPolicy(2), preset("env1"), t=10, reps=reps)


def test_informativeness_rejects_policy_for_another_arm_count():
    with pytest.raises(DimensionMismatchError):
        probe_informativeness(UcbPolicy(4), preset("env1"), t=10, reps=20)
