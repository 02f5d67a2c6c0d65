import math

import numpy as np
import pytest

from batchband.policies import (
    FixedArmPolicy,
    LinTsPolicy,
    LinUcbPolicy,
    PolicyError,
    RepRidge,
    ThompsonBetaPolicy,
    TwoPhaseSwitchPolicy,
    UcbPolicy,
    UniformPolicy,
    make_policy,
    rep_bincount,
)

ONE = np.zeros(1, dtype=np.int64)


def fed(pol, pairs, states=None):
    """One rep's state after absorbing (action, reward) pairs in one release."""
    states = pol.init_reps(1) if states is None else states
    acts = np.array([[a for a, _ in pairs]])
    rews = np.array([[r for _, r in pairs]], dtype=float)
    return pol.update_reps(states, acts, rews)


def act(pol, states, b=1, seed=0, features=None):
    """The lone rep's ``b`` actions, from a fresh generator."""
    rngs = [np.random.default_rng(seed)]
    extra = () if features is None else (features[None],)
    return pol.act_reps(states, b, rngs, ONE, *extra)[0]


# ---------------------------------------------------------------- ucb


def test_ucb_forced_initialisation_order():
    pol = UcbPolicy(3)
    st = pol.init_reps(1)
    assert act(pol, st).tolist() == [0]
    st = fed(pol, [(0, 1.0)], st)
    assert act(pol, st).tolist() == [1]
    st = fed(pol, [(1, 0.0)], st)
    assert act(pol, st).tolist() == [2]


def test_ucb_index_after_one_pull_each():
    # counts (4, 1), means (0.75, 0.1), t = 6: the index of arm 0 is
    # 0.75 + c sqrt(2 ln 6 / 4), of arm 1 0.1 + c sqrt(2 ln 6); a larger c
    # moves the choice from the better mean to the wider interval
    pairs = [(0, 1.0)] * 3 + [(0, 0.0)] + [(1, 0.1)]
    for c, arm in ((0.5, 0), (1.0, 1), (2.0, 1)):
        bonus = 2 * math.log(6)
        idx = [0.75 + c * math.sqrt(bonus / 4), 0.1 + c * math.sqrt(bonus)]
        assert idx.index(max(idx)) == arm
        pol = UcbPolicy(2, c=c)
        assert act(pol, fed(pol, pairs)).tolist() == [arm]


def test_ucb_tie_breaks_to_lowest_index():
    pol = UcbPolicy(3)
    st = fed(pol, [(0, 1.0), (1, 1.0), (2, 1.0)])
    assert act(pol, st).tolist() == [0]


def test_ucb_rule_pure_function_of_state():
    # same state, any generator: the same arm for the whole batch, and no
    # generator draws (within-batch stasis)
    pol = UcbPolicy(2)
    st = fed(pol, [(0, 1.0), (1, 1.0), (0, 0.0)])
    rngs = [np.random.default_rng(s) for s in range(3)]
    before = [g.bit_generator.state for g in rngs]
    acts = pol.act_reps(st, 16, rngs, ONE)
    assert not pol.draws
    assert len(set(acts[0].tolist())) == 1
    assert {int(act(pol, st, seed=s)[0]) for s in range(3)} == set(acts[0].tolist())
    assert [g.bit_generator.state for g in rngs] == before


def test_ucb_exploration_constant_zero_is_greedy():
    pol = UcbPolicy(2, c=0.0)
    st = fed(pol, [(0, 0.0), (1, 1.0)])
    assert act(pol, st).tolist() == [1]


def test_ucb_update_entries_matches_arrays():
    # one release of five pairs: counts and sums per arm, t_seen by steps
    pol = UcbPolicy(4)
    st = fed(pol, [(0, 1.0), (3, 0.0), (3, 1.0), (2, 1.0), (0, 0.0)])
    assert st.counts.tolist() == [[2, 0, 1, 2]]
    assert st.sums.tolist() == [[1.0, 0.0, 1.0, 1.0]]
    assert st.t_seen == 5


def test_ucb_update_order_within_release_is_irrelevant():
    pol = UcbPolicy(3)
    pairs = [(0, 1.0), (1, 0.0), (2, 1.0), (0, 0.0)]
    fwd = fed(pol, pairs)
    rev = fed(pol, list(reversed(pairs)))
    assert np.array_equal(fwd.counts, rev.counts)
    assert np.array_equal(fwd.sums, rev.sums)
    assert fwd.t_seen == rev.t_seen


def test_ucb_incremental_equals_bulk_update():
    pol = UcbPolicy(2)
    pairs = [(0, 1.0), (1, 0.0), (0, 1.0), (1, 1.0)]
    bulk = fed(pol, pairs)
    st = pol.init_reps(1)
    for p in pairs:
        st = fed(pol, [p], st)
    assert np.array_equal(st.counts, bulk.counts)
    assert np.array_equal(st.sums, bulk.sums)
    assert st.t_seen == bulk.t_seen


def test_rep_rows_are_independent():
    # reps held in one state act and update as if each were alone
    pol = UcbPolicy(2)
    st = pol.init_reps(3)
    st = pol.update_reps(st, np.array([[0, 1], [0, 1], [0, 1]]),
                         np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]))
    rngs = [np.random.default_rng(0)] * 3
    assert pol.act_reps(st, 2, rngs, np.arange(3)).tolist() == [[0, 0], [1, 1], [0, 0]]
    assert pol.act_reps(st, 1, rngs, np.array([1])).tolist() == [[1]]


# ---------------------------------------------------------------- ts


def test_ts_prior_is_flat():
    pol = ThompsonBetaPolicy(2)
    st = pol.init_reps(1)
    assert st.counts.tolist() == [[0, 0]] and st.sums.tolist() == [[0.0, 0.0]]
    assert st.t_seen == 0
    acts = act(pol, st, b=20_000, seed=1)
    assert abs((acts == 0).mean() - 0.5) < 0.01


def test_ts_posterior_update():
    # two successes on arm 0 and one failure on arm 1: Beta(3, 1) and
    # Beta(1, 2), seen through the draws on both the scalar and array paths
    pol = ThompsonBetaPolicy(2)
    st = fed(pol, [(0, 1.0), (0, 1.0), (1, 0.0)])
    assert st.counts.tolist() == [[2, 1]]
    assert st.sums.tolist() == [[2.0, 0.0]]
    assert st.t_seen == 3
    for b in (1, 6, 50):
        posterior = np.random.default_rng(b).beta([3.0, 1.0], [1.0, 2.0], size=(b, 2))
        assert act(pol, st, b=b, seed=b).tolist() == posterior.argmax(axis=1).tolist()


def test_ts_act_batch_first_row_matches_decide():
    # scalar Beta draws (b * k <= 12) and one array draw consume a
    # generator alike: the first steps of a longer batch are the short batch
    pol = ThompsonBetaPolicy(3)
    st = fed(pol, [(0, 1.0), (1, 0.0), (2, 1.0), (0, 1.0)])
    short = act(pol, st, b=4, seed=7)
    long = act(pol, st, b=9, seed=7)
    assert short.tolist() == long[:4].tolist()
    assert act(pol, st, b=1, seed=7).tolist() == short[:1].tolist()


def test_ts_concentrates_on_better_arm():
    pol = ThompsonBetaPolicy(2)
    pairs = [(0, 1.0)] * 80 + [(0, 0.0)] * 20 + [(1, 1.0)] * 20 + [(1, 0.0)] * 80
    st = fed(pol, pairs)
    acts = act(pol, st, b=2000, seed=2)
    assert (acts == 0).mean() > 0.95


# ---------------------------------------------------------------- uniform, fixed, two-phase


def test_uniform_rule_and_actions():
    pol = UniformPolicy(4)
    st = pol.init_reps(1)
    acts = act(pol, st, b=40_000, seed=3)
    freqs = np.bincount(acts, minlength=4) / 40_000
    assert np.all(np.abs(freqs - 0.25) < 0.01)
    st2 = fed(pol, [(0, 1.0)], st)
    assert st2.t_seen == 1  # feedback acknowledged, rule unchanged
    assert act(pol, st2, b=8, seed=3).tolist() == acts[:8].tolist()


def test_fixed_arm_policy():
    pol = FixedArmPolicy(3, arm=2)
    st = pol.init_reps(1)
    assert act(pol, st, b=5).tolist() == [2] * 5
    with pytest.raises(PolicyError):
        FixedArmPolicy(3, arm=3)


def test_two_phase_switches_on_visible_length():
    pol = TwoPhaseSwitchPolicy(2, good_arm=0, bad_arm=1, switch_t=3)
    st = pol.init_reps(1)
    seen = []
    for _ in range(6):
        a = int(act(pol, st)[0])
        seen.append(a)
        st = fed(pol, [(a, 0.0)], st)
    assert seen == [0, 0, 0, 1, 1, 1]


def test_two_phase_batch_switch_lands_on_boundary():
    pol = TwoPhaseSwitchPolicy(2, good_arm=0, bad_arm=1, switch_t=3)
    st = pol.init_reps(1)
    first = act(pol, st, b=4)  # t_seen 0 < 3: good arm all batch
    assert first.tolist() == [0, 0, 0, 0]
    st = fed(pol, [(a, 0.0) for a in first], st)
    second = act(pol, st, b=4)  # t_seen 4 >= 3: bad arm
    assert second.tolist() == [1, 1, 1, 1]


@pytest.mark.parametrize("pol", [
    UniformPolicy(3),
    FixedArmPolicy(3, arm=1),
    TwoPhaseSwitchPolicy(3, good_arm=0, bad_arm=2, switch_t=4),
])
def test_count_policies_absorb_counts_and_sums(pol):
    # the delayed-start gate reads these from its uniform first phase
    rng = np.random.default_rng(4)
    st = pol.init_reps(5)
    released_a, released_r = [], []
    for m in (3, 1, 6):
        acts = rng.integers(0, 3, size=(5, m))
        rews = rng.integers(0, 2, size=(5, m)).astype(float)
        st = pol.update_reps(st, acts, rews)
        released_a.append(acts)
        released_r.append(rews)
    acts, rews = np.hstack(released_a), np.hstack(released_r)
    sums = np.zeros((5, 3))
    for r in range(5):
        for a, x in zip(acts[r], rews[r]):
            sums[r, a] += x
    assert np.array_equal(st.counts, rep_bincount(acts, 3))
    assert np.array_equal(st.sums, sums)
    assert st.t_seen == 10


# ---------------------------------------------------------------- linear


def lin_fed(pol, feats, rewards, states=None):
    states = pol.init_reps(1) if states is None else states
    return pol.update_reps(states, np.asarray(feats, dtype=float)[None],
                           np.asarray(rewards, dtype=float)[None])


def test_linucb_ridge_update_identity_case():
    pol = LinUcbPolicy(k=2, context_dim=2)
    st = pol.init_reps(1)
    assert np.allclose(st.V[0], np.eye(4))
    st = lin_fed(pol, [[1.0, 0.0, 0.0, 0.0]], [1.0], st)
    assert np.allclose(st.V[0], np.diag([2.0, 1.0, 1.0, 1.0]))
    assert np.allclose(st.z[0], [1.0, 0.0, 0.0, 0.0])
    assert st.t_seen == 1


def test_linucb_update_from_entries():
    # two chosen feature vectors released together
    pol = LinUcbPolicy(k=2, context_dim=1)
    st = lin_fed(pol, [[1.0, 0.0], [0.0, 1.0]], [1.0, 0.5])
    assert np.allclose(st.V[0], np.diag([2.0, 2.0]))
    assert np.allclose(st.z[0], [1.0, 0.5])
    with pytest.raises(ValueError):
        pol.update_reps(st, np.zeros((1, 2, 3)), np.zeros((1, 2)))


def test_linucb_scores_hand_case():
    # d = 2, one observation psi = e_1, X = 1; context 1.0 for both arms
    pol = LinUcbPolicy(k=2, context_dim=1, alpha=1.0)
    st = lin_fed(pol, [[1.0, 0.0]], [1.0])
    fs = np.array([[[1.0, 0.0], [0.0, 1.0]]])
    # theta_hat = (0.5, 0); score_0 = 0.5 + sqrt(1/2) > score_1 = 0 + 1
    assert act(pol, st, features=fs).tolist() == [0]


def test_linucb_act_batch_matches_decide_point_masses():
    # a batch of feature sets is scored step by step from the frozen state
    pol = LinUcbPolicy(k=3, context_dim=2)
    rng = np.random.default_rng(4)
    feats = rng.standard_normal((5, 3, 6))
    st = lin_fed(pol, rng.standard_normal((8, 6)) * 0.3, rng.standard_normal(8))
    batch = act(pol, st, b=5, features=feats)
    singles = [int(act(pol, st, features=feats[i : i + 1])[0]) for i in range(5)]
    assert batch.tolist() == singles


def test_lints_posterior_concentrates():
    pol = LinTsPolicy(k=2, context_dim=1)
    # arm 0 always rewards 1, arm 1 always 0, many observations
    feats = np.zeros((400, 2))
    feats[:200, 0] = 1.0
    feats[200:, 1] = 1.0
    rewards = np.concatenate([np.ones(200), np.zeros(200)])
    st = lin_fed(pol, feats, rewards)
    fs = np.tile(np.array([[1.0, 0.0], [0.0, 1.0]]), (200, 1, 1))
    acts = act(pol, st, b=200, seed=9, features=fs)
    assert np.mean(acts == 0) > 0.95


def test_lints_requires_features():
    pol = LinTsPolicy(k=2, context_dim=1)
    with pytest.raises(PolicyError):
        act(pol, pol.init_reps(1), b=2)
    with pytest.raises(ValueError):
        act(pol, pol.init_reps(1), b=2, features=np.zeros((3, 2, 2)))


@pytest.mark.parametrize("cls", [LinUcbPolicy, LinTsPolicy])
def test_ridge_factors_are_refreshed_by_update(cls):
    # act, update, act: the second act must see the updated V and z, as a
    # fresh state built from them does
    pol = cls(k=3, context_dim=2)
    rng = np.random.default_rng(8)
    feats = rng.standard_normal((6, 3, 6))
    st = pol.init_reps(1)
    act(pol, st, b=6, seed=3, features=feats)
    st = lin_fed(pol, rng.standard_normal((5, 6)), rng.standard_normal(5), st)
    fresh = RepRidge(st.V.copy(), st.z.copy(), st.t_seen)
    assert (act(pol, st, b=6, seed=3, features=feats).tolist()
            == act(pol, fresh, b=6, seed=3, features=feats).tolist())


@pytest.mark.parametrize("cls", [LinUcbPolicy, LinTsPolicy])
def test_ridge_factors_are_kept_per_rep(cls):
    # three reps with different statistics, asked twice: every answer
    # matches that rep's own lone state
    pol = cls(k=3, context_dim=2)
    rng = np.random.default_rng(5)
    st = pol.init_reps(3)
    st = pol.update_reps(st, rng.standard_normal((3, 4, 6)), rng.standard_normal((3, 4)))
    feats = rng.standard_normal((3, 5, 3, 6))
    rows = np.arange(3)
    for _ in range(2):
        rngs = [np.random.default_rng(s) for s in (1, 2, 3)]
        got = pol.act_reps(st, 5, rngs, rows, feats)
        for r in rows:
            lone = RepRidge(st.V[r : r + 1].copy(), st.z[r : r + 1].copy(), st.t_seen)
            assert got[r].tolist() == act(pol, lone, b=5, seed=r + 1, features=feats[r]).tolist()


# ---------------------------------------------------------------- registry


def test_make_policy_registry():
    assert isinstance(make_policy("ucb", 2), UcbPolicy)
    assert make_policy("ucb", 2, params={"ucb_c": 0.5}).c == 0.5
    assert isinstance(make_policy("ts", 3), ThompsonBetaPolicy)
    assert isinstance(make_policy("uniform", 2), UniformPolicy)
    lp = make_policy("linucb", 2, context_dim=3, params={"linucb_alpha": 2.0})
    assert lp.alpha == 2.0 and lp.dim == 6
    lt = make_policy("lints", 2, context_dim=3, params={"ridge_lambda": 0.5})
    assert lt.ridge_lambda == 0.5
    tp = make_policy(
        "two_phase", 2, params={"switch_t": 10}, env_means=np.array([0.7, 0.5])
    )
    assert (tp.good_arm, tp.bad_arm, tp.switch_t) == (0, 1, 10)
    fx = make_policy("fixed", 3, params={"fixed_arm": 1})
    assert fx.arm == 1
    with pytest.raises(PolicyError):
        make_policy("exp3", 2)
    with pytest.raises(PolicyError):
        make_policy("linucb", 2)  # missing context_dim


@pytest.mark.parametrize("build", [
    lambda: UcbPolicy(2, c=math.nan),
    lambda: UcbPolicy(2, c=math.inf),
    lambda: LinUcbPolicy(2, 3, alpha=-5.0),
    lambda: LinUcbPolicy(2, 3, alpha=math.nan),
    lambda: LinTsPolicy(2, 3, ridge_lambda=math.nan),
    lambda: FixedArmPolicy(1, 0),
    lambda: TwoPhaseSwitchPolicy(1, 0, 0, 5),
], ids=["ucb-c-nan", "ucb-c-inf", "linucb-alpha-negative", "linucb-alpha-nan",
        "lints-ridge-nan", "fixed-one-arm", "two-phase-one-arm"])
def test_policies_reject_bad_hyperparameters(build):
    with pytest.raises(PolicyError):
        build()


@pytest.mark.parametrize("name,params,message", [
    ("ucb", {"ucb_c": "abc"}, "ucb_c must be a number"),
    ("two_phase", {"switch_t": 2.7}, "switch_t must be an integer"),
    ("fixed", {"fixed_arm": 1.5}, "fixed_arm must be an integer"),
])
def test_make_policy_rejects_values_that_do_not_convert(name, params, message):
    with pytest.raises(PolicyError, match=message):
        make_policy(name, 3, params=params, env_means=np.array([0.7, 0.5, 0.3]))


@pytest.mark.parametrize("name,params", [
    ("ucb", {"c": 5.0}),
    ("ucb", {"ucb_c": 0.5, "switch_t": 3}),
    ("ts", {"ucb_c": 0.5}),
    ("uniform", {"arm": 1}),
    ("fixed", {"fixed_arm": 1, "arm": 0}),
    ("lints", {"linucb_alpha": 2.0}),
])
def test_make_policy_rejects_keys_the_policy_does_not_take(name, params):
    with pytest.raises(PolicyError, match="takes no parameter"):
        make_policy(name, 3, context_dim=2, params=params)
