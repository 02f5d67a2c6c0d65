import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from batchband.environments import block_features
from batchband.policies import (
    BLOCK_REPS,
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
    ts_arm,
    ts_posterior,
)

ONE = np.zeros(1, dtype=np.int64)


def fed(pol, pairs, states=None):
    """One rep's state after absorbing (action, reward) pairs in one release."""
    states = pol.init_reps(1) if states is None else states
    acts = np.array([[a for a, _ in pairs]])
    rews = np.array([[r for _, r in pairs]], dtype=float)
    return pol.update_reps(states, acts, rews)


def act(pol, states, b=1, seed=0, contexts=None):
    """The lone rep's ``b`` actions, from a fresh generator."""
    rngs = [np.random.default_rng(seed)]
    extra = () if contexts is None else (contexts[None],)
    return pol.act_reps(states, b, rngs, ONE, *extra, **lints_noise(pol, b, rngs))[0]


def lints_noise(pol, b, rngs):
    """LinTS's ``noise`` keyword: each row's ``(b, k * p)`` normals from one
    ``standard_normal(out=...)`` call on that row's generator; no keyword
    for any other policy."""
    if not isinstance(pol, LinTsPolicy):
        return {}
    noise = np.empty((len(rngs), b, pol.dim))
    for rng, row in zip(rngs, noise):
        rng.standard_normal(out=row)
    return {"noise": noise}


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


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_ucb_run_ahead_keeps_what_batch_by_batch_play_keeps(data):
    # R random states, unpulled arms and tied indices included: the same
    # batches kept and the same counts, sums, t_seen and next leaders, bit
    # for bit, as one act_reps and one update_reps per batch
    k, reps = data.draw(st.integers(2, 4)), data.draw(st.integers(1, 5))
    w, m = data.draw(st.integers(1, 6)), data.draw(st.integers(1, 4))
    pol = UcbPolicy(k, c=data.draw(st.sampled_from([0.0, 0.5, 1.0, 2.0])))
    cells = st.lists(st.integers(0, 6), min_size=reps * k, max_size=reps * k)
    counts = np.array(data.draw(cells), dtype=float).reshape(reps, k)
    # sums of rewards in {0, 0.5, 1}: equal counts and sums tie
    halves = [data.draw(st.integers(0, 2 * int(n))) / 2 for n in counts.ravel()]
    rewards = np.array(data.draw(st.lists(st.sampled_from([0.0, 0.5, 1.0, 0.1]),
                                          min_size=reps * w * m, max_size=reps * w * m)))
    rewards = rewards.reshape(reps, w, m)
    t_seen = int(counts.sum(axis=1).max()) + data.draw(st.integers(0, 3))
    states = [pol.init_reps(reps) for _ in range(2)]
    for s in states:
        s.counts[:] = counts
        s.sums[:] = np.reshape(halves, (reps, k))
        s.t_seen = t_seen
    ahead, loop = states
    rows = np.arange(reps)
    lead = pol.act_reps(loop, 1, None, rows)[:, 0]
    kept, after = pol.run_ahead_reps(ahead, lead, rewards)
    played = 0
    while played < w:
        acts = pol.act_reps(loop, m, None, rows)
        if played and not np.array_equal(acts[:, 0], lead):
            break
        pol.update_reps(loop, acts, rewards[:, played])
        played += 1
    assert kept == played
    assert np.array_equal(after, pol.act_reps(loop, 1, None, rows)[:, 0])
    assert ahead.counts.tobytes() == loop.counts.tobytes()
    assert ahead.sums.tobytes() == loop.sums.tobytes()
    assert ahead.t_seen == loop.t_seen


def test_rep_rows_are_independent():
    # reps held in one state act and update as if each were alone
    pol = UcbPolicy(2)
    st = pol.init_reps(3)
    st = pol.update_reps(st, np.array([[0, 1], [0, 1], [0, 1]]),
                         np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]))
    rngs = [np.random.default_rng(0)] * 3
    assert pol.act_reps(st, 2, rngs, np.arange(3)).tolist() == [[0, 0], [1, 1], [0, 0]]
    assert pol.act_reps(st, 1, rngs, np.array([1])).tolist() == [[1]]


@pytest.mark.parametrize("b", [1, 3])
@pytest.mark.parametrize("pol", [
    UcbPolicy(2),
    ThompsonBetaPolicy(2),
    UniformPolicy(2),
    FixedArmPolicy(2, arm=1),
    TwoPhaseSwitchPolicy(2, good_arm=0, bad_arm=1, switch_t=1),
])
def test_one_rep_state_asked_for_no_rows_plays_and_draws_nothing(pol, b):
    # a two-phase run asks only the reps that have handed over, which may
    # be none of them
    st = fed(pol, [(0, 1.0)])
    rng = np.random.default_rng(5)
    before = rng.bit_generator.state
    acts = pol.act_reps(st, b, [rng], np.zeros(0, dtype=np.int64))
    assert acts.shape == (0, b)
    assert rng.bit_generator.state == before


@pytest.mark.parametrize("m", [1, 5, 16, 17, 40])
def test_one_rep_update_equals_its_row_of_a_many_rep_update(m):
    # one scatter adds each rep's release in step order, so a rep's row is
    # the same alone or among others: rewards in tenths, whose sums round
    # differently in another order, give the same bits; replay passes
    # nested lists
    pol = UcbPolicy(3)
    rng = np.random.default_rng(m)
    many, one, listed = pol.init_reps(2), pol.init_reps(1), pol.init_reps(1)
    for _ in range(3):
        acts = rng.integers(0, 3, size=(2, m))
        rews = np.round(rng.random((2, m)), 1)
        many = pol.update_reps(many, acts, rews)
        one = pol.update_reps(one, acts[:1], rews[:1])
        listed = pol.update_reps(listed, acts[:1].tolist(), rews[:1].tolist())
    for st in (one, listed):
        assert np.array_equal(st.counts, many.counts[:1])
        assert np.array_equal(st.sums, many.sums[:1])
        assert st.t_seen == many.t_seen == 3 * m


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


@pytest.mark.parametrize("draws, arm", [
    ([0.7, 0.7], 0), ([0.2, 0.9, 0.9, 0.9], 1), ([0.5, 0.1, 0.5], 0), ([0.1, 0.3], 1)])
def test_ts_arm_draws_each_arm_in_order_and_plays_the_first_maximum(draws, arm):
    # continuous draws almost never tie, so the tie rule is pinned on stubs
    asked, stub = [], iter(draws)

    def draw(alpha, beta):
        asked.append((alpha, beta))
        return next(stub)

    counts, sums = [float(a) for a in range(len(draws))], [0.5] * len(draws)
    posterior = ts_posterior(counts, sums)
    assert ts_arm(draw, posterior) == arm
    assert asked == [(1.5, 1.0 + n - 0.5) for n in counts]


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


@pytest.mark.parametrize("b", [1, 3, 10])
@pytest.mark.parametrize("k", range(2, 8))
@pytest.mark.parametrize("cls", [UniformPolicy, FixedArmPolicy])
def test_one_call_over_batches_equals_one_call_per_batch(cls, k, b):
    # the engine asks a policy that ignores feedback once for all remaining
    # batches, so numpy's bounded integers must consume a block stream as
    # one call per batch would, spare 32-bit halves included, and leave it
    # where those calls would
    pol = UniformPolicy(k) if cls is UniformPolicy else FixedArmPolicy(k, arm=k - 1)
    reps = 2 * BLOCK_REPS + 5  # the last block is short
    st = pol.init_reps(reps)
    for rows in (np.arange(reps), np.array([3, 2 * BLOCK_REPS + 1])):
        for m in (1, 2, 7):
            one = [np.random.default_rng([k, b, m, i]) for i in range(3)]
            per = [np.random.default_rng([k, b, m, i]) for i in range(3)]
            got = pol.act_reps(st, b, one, rows, batches=m)
            want = np.concatenate([pol.act_reps(st, b, per, rows) for _ in range(m)], axis=1)
            assert np.array_equal(got, want)
            assert [g.random() for g in one] == [g.random() for g in per]


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
    # policies that ignore feedback keep the shared state all the same
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


def lin_fed(pol, arms, contexts, rewards, states=None):
    """One rep's state after absorbing ``(arm, context, reward)`` steps in
    one release."""
    states = pol.init_reps(1) if states is None else states
    return pol.update_reps(states, np.asarray(arms)[None], np.asarray(rewards, dtype=float)[None],
                           np.asarray(contexts, dtype=float)[None])


def test_linucb_ridge_update_identity_case():
    # one pull of arm 0 on context e_1 moves arm 0's block only
    pol = LinUcbPolicy(k=2, context_dim=2)
    st = pol.init_reps(1)
    assert st.V.shape == (1, 2, 2, 2) and st.z.shape == (1, 2, 2)
    assert np.array_equal(st.V[0], [np.eye(2), np.eye(2)])
    st = lin_fed(pol, [0], [[1.0, 0.0]], [1.0], st)
    assert np.array_equal(st.V[0], [np.diag([2.0, 1.0]), np.eye(2)])
    assert np.array_equal(st.z[0], [[1.0, 0.0], [0.0, 0.0]])
    assert st.t_seen == 1


def test_linucb_update_from_entries():
    # two pulls of different arms released together
    pol = LinUcbPolicy(k=2, context_dim=1)
    st = lin_fed(pol, [0, 1], [[1.0], [1.0]], [1.0, 0.5])
    assert np.array_equal(st.V[0], [[[2.0]], [[2.0]]])
    assert np.array_equal(st.z[0], [[1.0], [0.5]])
    with pytest.raises(ValueError):
        pol.update_reps(st, np.zeros((1, 2), dtype=np.int64), np.zeros((1, 2)),
                        np.zeros((1, 2, 3)))


def test_linucb_scores_hand_case():
    # p = 1, one pull of arm 0 on context 1 with X = 1; context 1.0 for both arms
    pol = LinUcbPolicy(k=2, context_dim=1, alpha=1.0)
    st = lin_fed(pol, [0], [[1.0]], [1.0])
    # theta = (0.5, 0); score_0 = 0.5 + sqrt(1/2) > score_1 = 0 + 1
    assert act(pol, st, contexts=np.array([[1.0]])).tolist() == [0]


def test_linucb_act_batch_matches_decide_point_masses():
    # a batch of contexts is scored step by step from the frozen state
    pol = LinUcbPolicy(k=3, context_dim=2)
    rng = np.random.default_rng(4)
    ctx = rng.standard_normal((5, 2))
    st = lin_fed(pol, rng.integers(0, 3, 8), rng.standard_normal((8, 2)) * 0.3,
                 rng.standard_normal(8))
    batch = act(pol, st, b=5, contexts=ctx)
    singles = [int(act(pol, st, contexts=ctx[i : i + 1])[0]) for i in range(5)]
    assert batch.tolist() == singles


def test_lints_posterior_concentrates():
    pol = LinTsPolicy(k=2, context_dim=1)
    # arm 0 always rewards 1, arm 1 always 0, many observations
    arms = [0] * 200 + [1] * 200
    rewards = np.concatenate([np.ones(200), np.zeros(200)])
    st = lin_fed(pol, arms, np.ones((400, 1)), rewards)
    acts = act(pol, st, b=200, seed=9, contexts=np.ones((200, 1)))
    assert np.mean(acts == 0) > 0.95


def test_lints_requires_features():
    pol = LinTsPolicy(k=2, context_dim=1)
    with pytest.raises(PolicyError):
        act(pol, pol.init_reps(1), b=2)
    with pytest.raises(ValueError):
        act(pol, pol.init_reps(1), b=2, contexts=np.zeros((3, 2)))


class CountingRng:
    """A generator that records the name of every attribute read from it."""

    def __init__(self, rng, calls):
        self.rng, self.calls = rng, calls

    def __getattr__(self, name):
        self.calls.append(name)
        return getattr(self.rng, name)


def test_lints_proposes_only_from_the_normals_it_is_given():
    pol = LinTsPolicy(k=2, context_dim=1)
    st, ctx, calls = pol.init_reps(2), np.ones((2, 3, 1)), []
    rngs = [CountingRng(np.random.default_rng(s), calls) for s in (1, 2)]
    with pytest.raises(PolicyError, match="normals"):
        pol.act_reps(st, 3, rngs, np.arange(2), ctx)
    noise = np.random.default_rng(3).standard_normal((2, 3, 2))
    got = pol.act_reps(st, 3, rngs, np.arange(2), ctx, noise=noise)
    # from the prior, arm a's draw is its normal: the larger normal wins
    assert got.tolist() == noise.argmax(axis=2).tolist()
    assert calls == []


@pytest.mark.parametrize("cls", [LinUcbPolicy, LinTsPolicy])
def test_ridge_factors_are_refreshed_by_update(cls):
    # act, update, act: the second act must see the updated V and z, as a
    # fresh state built from them does
    pol = cls(k=3, context_dim=2)
    rng = np.random.default_rng(8)
    ctx = rng.standard_normal((6, 2))
    st = pol.init_reps(1)
    act(pol, st, b=6, seed=3, contexts=ctx)
    st = lin_fed(pol, rng.integers(0, 3, 5), rng.standard_normal((5, 2)),
                 rng.standard_normal(5), st)
    fresh = RepRidge(st.V.copy(), st.z.copy(), st.t_seen)
    assert (act(pol, st, b=6, seed=3, contexts=ctx).tolist()
            == act(pol, fresh, b=6, seed=3, contexts=ctx).tolist())


@pytest.mark.parametrize("cls", [LinUcbPolicy, LinTsPolicy])
def test_ridge_factors_are_kept_per_rep(cls):
    # three reps with different statistics, asked twice: every answer
    # matches that rep's own lone state
    pol = cls(k=3, context_dim=2)
    rng = np.random.default_rng(5)
    st = pol.init_reps(3)
    st = pol.update_reps(st, rng.integers(0, 3, (3, 4)), rng.standard_normal((3, 4)),
                         rng.standard_normal((3, 4, 2)))
    ctx = rng.standard_normal((3, 5, 2))
    rows = np.arange(3)
    for _ in range(2):
        rngs = [np.random.default_rng(s) for s in (1, 2, 3)]
        got = pol.act_reps(st, 5, rngs, rows, ctx, **lints_noise(pol, 5, rngs))
        for r in rows:
            lone = RepRidge(st.V[r : r + 1].copy(), st.z[r : r + 1].copy(), st.t_seen)
            assert got[r].tolist() == act(pol, lone, b=5, seed=r + 1, contexts=ctx[r]).tolist()


@pytest.mark.parametrize("ridge_lambda", [1.0, 3.0])
@pytest.mark.parametrize("cls", [LinUcbPolicy, LinTsPolicy])
def test_per_arm_factors_match_the_dense_factorisation(cls, ridge_lambda):
    # the same history in the dense (k*p)-wide layout of block_features: its
    # inverse (and its inverse's Cholesky factor) is block diagonal, and
    # each diagonal block is that arm's factor; arm 2 is never pulled, so
    # its blocks stay the prior's
    k, p, reps = 4, 3, 2
    pol = cls(k=k, context_dim=p, ridge_lambda=ridge_lambda)
    rng = np.random.default_rng(21)
    arms = rng.choice([0, 1, 3], size=(reps, 3, 10))
    ctx = rng.standard_normal((reps, 3, 10, p))
    rewards = rng.standard_normal((reps, 3, 10))
    st = pol.init_reps(reps)
    for j in range(3):
        st = pol.update_reps(st, arms[:, j], rewards[:, j], ctx[:, j])
    theta, second = pol._factors(st, np.arange(reps))
    for r in range(reps):
        feats = block_features(ctx[r].reshape(-1, p), k)[np.arange(30), arms[r].ravel()]
        V = ridge_lambda * np.eye(k * p) + feats.T @ feats
        Vinv = np.linalg.inv(V)
        dense = (np.linalg.solve(V, feats.T @ rewards[r].ravel()),
                 Vinv if cls is LinUcbPolicy else np.linalg.cholesky(Vinv))
        for a in (0, 1, 3):
            cols = slice(a * p, (a + 1) * p)
            np.testing.assert_allclose(theta[r, a], dense[0][cols], rtol=1e-12)
            np.testing.assert_allclose(second[r, a], dense[1][cols, cols], rtol=1e-12)
            off = np.delete(dense[1][cols], np.s_[a * p : (a + 1) * p], axis=1)
            np.testing.assert_allclose(off, 0.0, atol=1e-15)
        assert np.array_equal(theta[r, 2], np.zeros(p))
        prior = np.eye(p) / ridge_lambda
        assert np.array_equal(second[r, 2], prior if cls is LinUcbPolicy else np.sqrt(prior))


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
    lambda: TwoPhaseSwitchPolicy(2, 0, 2, 5),
    lambda: TwoPhaseSwitchPolicy(2, 0, 1, -1),
    lambda: LinUcbPolicy(1, 3),
    lambda: LinTsPolicy(2, 0),
], ids=["ucb-c-nan", "ucb-c-inf", "linucb-alpha-negative", "linucb-alpha-nan",
        "lints-ridge-nan", "fixed-one-arm", "two-phase-one-arm", "two-phase-arm-out-of-range",
        "two-phase-negative-switch", "linucb-one-arm", "lints-no-context"])
def test_policies_reject_bad_hyperparameters(build):
    with pytest.raises(PolicyError):
        build()


@pytest.mark.parametrize("name,params,message", [
    ("ucb", {"ucb_c": "abc"}, "ucb_c must be a number"),
    ("two_phase", {"switch_t": 2.7}, "switch_t must be an integer"),
    ("fixed", {"fixed_arm": 1.5}, "fixed_arm must be an integer"),
    ("lints", {}, "lints needs a context dimension"),
    ("two_phase", {}, "two_phase needs switch_t"),
    ("ucb", {"ucb_c": "1.5"}, "ucb_c must be a number, got '1.5'"),
    ("two_phase", {"switch_t": "3"}, "switch_t must be a number, got '3'"),
    ("fixed", {"fixed_arm": "0"}, "fixed_arm must be a number, got '0'"),
    ("ucb", {"ucb_c": 10**400}, "ucb_c is too large for a float"),
    ("two_phase", {"switch_t": 10**400}, "switch_t is too large for a float"),
])
def test_make_policy_rejects_values_that_do_not_convert(name, params, message):
    with pytest.raises(PolicyError, match=message):
        make_policy(name, 3, params=params, env_means=np.array([0.7, 0.5, 0.3]))


@pytest.mark.parametrize("switch_t", [2**53 + 1, np.int64(2**62 + 1)])
def test_make_policy_keeps_an_integral_parameter_exact(switch_t):
    # a float holds integers exactly only up to 2**53: 2**53 + 1 became 2**53
    policy = make_policy("two_phase", 2, params={"switch_t": switch_t}, env_means=[0.7, 0.5])
    assert type(policy.switch_t) is int and policy.switch_t == int(switch_t)


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
