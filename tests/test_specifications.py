import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from batchband.core import DimensionMismatchError, derive_seed, make_grid
from batchband.environments import BernoulliEnv, make_linear_env, preset
from batchband.policies import (
    BasePolicy,
    FixedArmPolicy,
    LinUcbPolicy,
    ThompsonBetaPolicy,
    TwoPhaseSwitchPolicy,
    UcbPolicy,
    UniformPolicy,
)
from batchband.specifications import run_batch, run_online, run_short


class SpyPolicy(BasePolicy):
    """Uniform policy that records visible-history size at each decision."""

    name = "spy"

    def __init__(self, k):
        self.k = k
        self.seen_at_decision = []
        self.update_sizes = []

    def init_reps(self, reps):
        return UniformPolicy(self.k).init_reps(reps)

    def act_reps(self, states, b, rngs, rows):
        self.seen_at_decision.append(states.t_seen)
        return UniformPolicy(self.k).act_reps(states, b, rngs, rows)

    def update_reps(self, states, actions, rewards):
        self.update_sizes.append(actions.shape[1])
        return UniformPolicy(self.k).update_reps(states, actions, rewards)


def test_point_mass_on_worst_regret_is_linear():
    env = preset("env1")
    rec = run_online(FixedArmPolicy(2, arm=1), env, 10, seed=0)
    assert rec.pseudo_regret[-1] == pytest.approx(2.0, abs=1e-12)
    assert np.allclose(rec.pseudo_regret, 0.2 * np.arange(1, 11))
    assert rec.optimal_hits[-1] == 0
    assert rec.pull_counts.tolist() == [0, 10]


def test_point_mass_on_best_regret_is_zero():
    env = preset("env3")
    rec = run_online(FixedArmPolicy(2, arm=0), env, 50, seed=0)
    assert np.all(rec.pseudo_regret == 0.0)
    assert rec.optimal_hits[-1] == 50


def test_run_record_identities_property():
    envs = [preset("env1"), preset("env4")]
    for env in envs:
        for pol in (UcbPolicy(env.k), ThompsonBetaPolicy(env.k), UniformPolicy(env.k)):
            rec = run_batch(pol, env, make_grid(96, 8), seed=3)
            assert rec.pull_counts.sum() == rec.n
            assert np.all(np.diff(rec.pseudo_regret) >= -1e-15)
            assert np.all((rec.actions >= 0) & (rec.actions < env.k))
            # regret decomposition: R_n = sum_a gap_a * T_a(n), exactly
            assert rec.pseudo_regret[-1] == pytest.approx(
                float(env.gap_vector() @ rec.pull_counts), abs=1e-9
            )
            assert rec.optimal_hits[-1] <= rec.n


def test_seed_determinism_and_sensitivity():
    env = preset("env2")
    a = run_batch(ThompsonBetaPolicy(2), env, make_grid(100, 5), seed=11)
    b = run_batch(ThompsonBetaPolicy(2), env, make_grid(100, 5), seed=11)
    c = run_batch(ThompsonBetaPolicy(2), env, make_grid(100, 5), seed=12)
    assert np.array_equal(a.actions, b.actions)
    assert np.array_equal(a.pseudo_regret, b.pseudo_regret)
    assert not np.array_equal(a.actions, c.actions)


@pytest.mark.parametrize("seed", [[2.5, 3.7], [4, -1], None, 2.5, np.float64(3.0)])
def test_seeds_must_be_non_negative_integers(seed):
    # a float per-rep seed would be truncated: [2.5, 3.7] would run seeds 2 and 3
    with pytest.raises(ValueError, match="seed must be a non-negative integer"):
        run_online(ThompsonBetaPolicy(2), preset("env1"), 20, seed)


def test_batch_size_one_equals_online_exactly():
    env = preset("env1")
    for pol_cls in (UcbPolicy, ThompsonBetaPolicy, UniformPolicy):
        online = run_online(pol_cls(2), env, 60, seed=5)
        batch1 = run_batch(pol_cls(2), env, make_grid(60, 1), seed=5)
        assert np.array_equal(online.actions, batch1.actions)
        assert np.array_equal(online.pseudo_regret, batch1.pseudo_regret)
        assert online.spec == batch1.spec == "online"


def test_short_with_batch_size_one_equals_online_trajectory():
    env = preset("env1")
    online = run_online(UcbPolicy(2), env, 40, seed=9)
    short1 = run_short(UcbPolicy(2), env, make_grid(40, 1), seed=9)
    assert np.array_equal(online.actions, short1.actions)
    assert short1.spec == "short"


@st.composite
def finite_armed_runs(draw):
    """A random Bernoulli instance, one of the five finite-armed policies,
    a horizon and a seed."""
    means = draw(st.lists(st.floats(0.0, 1.0), min_size=2, max_size=5))
    k, n = len(means), draw(st.integers(1, 80))
    name = draw(st.sampled_from(["ucb", "ts", "uniform", "fixed", "two_phase"]))
    if name == "ucb":
        policy = UcbPolicy(k, c=draw(st.sampled_from([0.0, 0.5, 1.0, 2.0])))
    elif name == "ts":
        policy = ThompsonBetaPolicy(k)
    elif name == "uniform":
        policy = UniformPolicy(k)
    elif name == "fixed":
        policy = FixedArmPolicy(k, draw(st.integers(0, k - 1)))
    else:
        policy = TwoPhaseSwitchPolicy(
            k, int(np.argmax(means)), int(np.argmin(means)), draw(st.integers(0, n)),
        )
    return policy, BernoulliEnv(np.array(means)), n, draw(st.integers(0, 2**32 - 1))


@pytest.mark.parametrize("runner", [run_batch, run_short], ids=["batch", "short"])
@settings(max_examples=60, deadline=None)
@given(case=finite_armed_runs())
def test_batch_size_one_equals_online_on_random_instances(runner, case):
    policy, env, n, seed = case
    online = run_online(policy, env, n, seed)
    other = runner(policy, env, make_grid(n, 1), seed)
    for field in ("actions", "pseudo_regret", "optimal_hits", "pull_counts"):
        assert np.array_equal(getattr(online, field), getattr(other, field))


def test_spec_tags():
    env = preset("env1")
    assert run_batch(UcbPolicy(2), env, make_grid(20, 4), seed=0).spec == "batch"
    assert run_short(UcbPolicy(2), env, make_grid(20, 4), seed=0).spec == "short"
    assert run_online(UcbPolicy(2), env, 20, seed=0).spec == "online"


def test_batch_visibility_law():
    env = preset("env1")
    spy = SpyPolicy(2)
    run_batch(spy, env, make_grid(12, 4), seed=1)
    # before deciding batch j the policy has seen (j-1)*b entries
    assert spy.seen_at_decision == [0, 4, 8]
    assert spy.update_sizes == [4, 4, 4]


def test_short_visibility_law():
    env = preset("env1")
    spy = SpyPolicy(2)
    run_short(spy, env, make_grid(12, 4), seed=1)
    # only the first entry of each batch is ever released
    assert spy.seen_at_decision == [0, 1, 2]
    assert spy.update_sizes == [1, 1, 1]


def test_ucb_batch_rule_constant_within_batches():
    env = preset("env3")
    rec = run_batch(UcbPolicy(2), env, make_grid(40, 8), seed=4)
    acts = rec.actions.reshape(5, 8)
    for row in acts:
        assert len(set(row.tolist())) == 1


def test_ts_single_batch_draws_from_prior():
    # one batch covering the horizon: every draw comes from Beta(1,1), on
    # the lone rep's cell stream at batch 0's position, its start
    env = preset("env1")
    n = 64
    rec = run_batch(ThompsonBetaPolicy(2), env, make_grid(n, n), seed=21)
    rng = np.random.default_rng(derive_seed("policy", 21))
    expected = np.argmax(rng.beta(np.ones(2), np.ones(2), size=(n, 2)), axis=1)
    assert np.array_equal(rec.actions, expected)


def test_ucb_forced_init_under_batching():
    # batch feedback forces one whole batch per unpulled arm
    env = preset("env6")
    rec = run_batch(UcbPolicy(4), env, make_grid(40, 5), seed=0)
    assert rec.actions[:20].tolist() == [0] * 5 + [1] * 5 + [2] * 5 + [3] * 5


def test_contextual_run_smoke():
    env = make_linear_env(k=3, context_dim=2, seed=7)
    rec = run_batch(LinUcbPolicy(3, 2), env, make_grid(60, 6), seed=8)
    assert rec.pull_counts.sum() == 60
    assert np.all(np.diff(rec.pseudo_regret) >= -1e-12)
    assert 0 <= rec.optimal_hits[-1] <= 60
    rec2 = run_batch(LinUcbPolicy(3, 2), env, make_grid(60, 6), seed=8)
    assert np.array_equal(rec.actions, rec2.actions)


def test_contextual_history_stores_feature_vectors():
    # a contextual run keeps every chosen feature vector: arm a's block of
    # the step's context, in the disjoint-arm layout
    env = make_linear_env(k=2, context_dim=2, seed=1)
    run = run_batch(LinUcbPolicy(2, 2), env, make_grid(8, 4), [3, 4])
    assert run.features.shape == (2, 8, 4)
    for r in range(2):
        for t in range(8):
            a = run.actions[r, t]
            block = run.features[r, t].reshape(2, 2)
            assert np.all(block[1 - a] == 0.0)
            assert np.linalg.norm(block[a]) == pytest.approx(1.0)


@pytest.mark.parametrize("runner", [run_batch, run_short])
def test_runs_reject_a_policy_for_other_arms(runner):
    # env6 has four arms: a two-armed policy would play arms 0-1 only
    for policy in (UcbPolicy(2), ThompsonBetaPolicy(5), LinUcbPolicy(2, 2)):
        with pytest.raises(DimensionMismatchError, match="4"):
            runner(policy, preset("env6"), make_grid(100, 10), 1)
    with pytest.raises(DimensionMismatchError):
        run_online(UcbPolicy(3), preset("env1"), 20, [1, 2])
    with pytest.raises(DimensionMismatchError):
        run_batch(LinUcbPolicy(2, 2), make_linear_env(k=3, context_dim=2, seed=1),
                  make_grid(8, 4), 0)
