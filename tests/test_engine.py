"""The lockstep run engine against a naive per-step reference and itself.

Policies that draw nothing (ucb, fixed, two_phase, linucb) and LinTS, which
draws from each rep's own generator, make every rep of a lockstep call
equal its lone run.  TS and uniform play, and the uniform first phase of
the delayed starts, draw from one stream per block of ``BLOCK_REPS`` reps,
so for them a rep equals its row in any call that holds its whole block:
a call over more reps, or over its block and the blocks after it.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference_runner import (reference_approx_delayed_start, reference_linear_run, reference_run,
                              reference_two_phase)

from batchband import specifications
from batchband.core import DimensionMismatchError, _mean_se, derive_seed, make_grid
from batchband.environments import make_linear_env, parse_env, preset
from batchband.meta import MonotoneBound, approx_delayed_start_run, delayed_start_run
from batchband.policies import (
    FixedArmPolicy,
    LinTsPolicy,
    LinUcbPolicy,
    ThompsonBetaPolicy,
    TwoPhaseSwitchPolicy,
    UcbPolicy,
    UniformPolicy,
)
from batchband.specifications import (
    BLOCK_REPS,
    Chunk,
    Curves,
    Keep,
    Readings,
    run_batch,
    run_lockstep,
    run_online,
    run_short,
)

N = 96
SWITCH_T = 40


def make(name, env):
    k = env.k
    return {
        "ucb": lambda: UcbPolicy(k),
        "ucb_c0": lambda: UcbPolicy(k, c=0.0),
        "ts": lambda: ThompsonBetaPolicy(k),
        "uniform": lambda: UniformPolicy(k),
        "fixed": lambda: FixedArmPolicy(k, arm=1),
        "two_phase": lambda: TwoPhaseSwitchPolicy(
            k, good_arm=env.optimal_arm, bad_arm=int(np.argmin(env.means)),
            switch_t=SWITCH_T,
        ),
    }[name]()


def engine_run(policy, env, spec, n, b, seeds):
    if spec == "online":
        return run_online(policy, env, n, seeds)
    grid = make_grid(n, b)
    return (run_short if spec == "short" else run_batch)(policy, env, grid, seeds)


LONE_N = 2000
LONE_ENVS = ("env1", "env3", "env6", "0.5,0.5,0.2")


@pytest.mark.parametrize("spec,b", [("online", 1), ("batch", 3), ("batch", 8), ("short", 4),
                                    ("lone", 1), ("lone", 3), ("lone", 10), ("lone_online", 1),
                                    ("lone_short", 3), ("lone_short", 10)])
@pytest.mark.parametrize("name", ["ucb", "ts", "uniform", "fixed", "two_phase", "ucb_c0"])
def test_engine_matches_naive_reference(name, spec, b):
    # a whole block and a short one, and a lone run: one rep from a
    # never-pulled start over 2000 steps, on a tied best pair too
    lone = spec.startswith("lone")
    reps, n, envs = (1, LONE_N, LONE_ENVS) if lone else (BLOCK_REPS + 4, N, ("env1", "env6"))
    ref_name, c = ("ucb", 0.0) if name == "ucb_c0" else (name, 1.0)
    for env_name in envs:
        env = parse_env(env_name)
        seeds = [derive_seed(3, name, spec, b, env_name, i) for i in range(reps)]
        run = engine_run(make(name, env), env, spec.removeprefix("lone_"), n, b, seeds)
        ref = reference_run(ref_name, env.means.tolist(), n, b, seeds,
                            short=spec.endswith("short"), c=c, arm=1, switch_t=SWITCH_T)
        for i, (actions, regret) in enumerate(ref):
            assert run.actions[i].tolist() == actions
            assert run.pseudo_regret[i].tolist() == regret


@pytest.mark.parametrize("name", ["ucb", "ts", "uniform"])
def test_rep_i_of_a_lockstep_call_equals_its_lone_run(name):
    # for ts and uniform, "lone" is the rep's row in a call over all 64 seeds
    env = preset("env6")
    grid = make_grid(60, 4)
    seeds = [derive_seed(11, "prefix", i) for i in range(64)]
    if name == "ucb":
        lone = [run_batch(make(name, env), env, grid, s) for s in seeds]
        counts = (1, 7, 64)
    else:
        full = run_batch(make(name, env), env, grid, seeds)
        lone = [full.record(i) for i in range(64)]
        counts = (16, 32, 48)
    for reps in counts:
        run = run_batch(make(name, env), env, grid, seeds[:reps])
        assert len(run.seeds) == reps
        for i in range(reps):
            assert np.array_equal(run.actions[i], lone[i].actions)
            assert np.array_equal(run.pseudo_regret[i], lone[i].pseudo_regret)
            assert np.array_equal(run.pull_counts[i], lone[i].pull_counts)


@pytest.mark.parametrize("policy", [LinUcbPolicy(3, 2), LinTsPolicy(3, 2)])
@pytest.mark.parametrize("b", [1, 5])
def test_contextual_rep_i_of_a_lockstep_call_equals_its_lone_run(policy, b):
    env = make_linear_env(3, 2, seed=7)
    grid = make_grid(40, b)
    seeds = [derive_seed(13, "linear", i) for i in range(6)]
    run = run_batch(policy, env, grid, seeds)
    for i, seed in enumerate(seeds):
        lone = run_batch(policy, env, grid, [seed])
        for field in ("actions", "features", "pseudo_regret", "optimal_hits"):
            assert np.array_equal(getattr(run, field)[i], getattr(lone, field)[0])


@pytest.mark.parametrize("policy", [LinUcbPolicy(4, 3), LinTsPolicy(4, 3)])
@pytest.mark.parametrize("b", [1, 5])
def test_contextual_engine_matches_dense_per_step_reference(policy, b):
    # the engine's per-arm ridge blocks against dense k*p statistics
    # factored afresh at every step
    env = make_linear_env(4, 3, seed=11)
    seeds = [derive_seed(17, "linear", b, i) for i in range(3)]
    run = run_batch(policy, env, make_grid(120, b), seeds)
    ref = reference_linear_run(policy.name, env, 120, b, seeds)
    assert run.actions.tolist() == [actions for actions, _ in ref]


@pytest.mark.parametrize("policy", [LinUcbPolicy(4, 3), LinTsPolicy(4, 3)])
@pytest.mark.parametrize("b", [1, 5])
def test_contextual_rewards_match_the_per_batch_reference_bit_for_bit(policy, b):
    # the engine draws each rep's normals once per chunk; the reference
    # draws the contexts, proposals and reward noise batch by batch, so a
    # layout that splits the stream anywhere else moves the rewards
    env = make_linear_env(4, 3, seed=11)
    seeds = [derive_seed(19, "rewards", b, i) for i in range(5)]
    run = run_batch(policy, env, make_grid(150, b), seeds)
    ref = reference_linear_run(policy.name, env, 150, b, seeds)
    assert run.rewards.tolist() == [rewards for _, rewards in ref]


@pytest.mark.parametrize("cls", [LinUcbPolicy, LinTsPolicy])
@pytest.mark.parametrize("b", [1, 4])
def test_a_linear_run_draws_once_per_rep_and_chunk(monkeypatch, cls, b):
    # every generator call of the run is counted, LinTS's included, and
    # the chunked run plays what the whole one does
    env = make_linear_env(3, 2, seed=5)
    grid = make_grid(41, b)
    seeds = [derive_seed(53, "spy", i) for i in range(3)]
    whole = run_batch(cls(3, 2), env, grid, seeds)
    calls, default_rng = [], np.random.default_rng
    monkeypatch.setattr(np.random, "default_rng", lambda seed: CountingRng(default_rng(seed),
                                                                           calls))
    parts = at_chunk(monkeypatch, 8, lambda: run_batch(cls(3, 2), env, grid, seeds,
                                                       keep=Parts()))
    assert len(parts) == 5
    assert calls == ["standard_normal"] * (len(seeds) * len(parts))
    for name in ("actions", "rewards"):
        chunked = np.concatenate([getattr(part, name) for part in parts], axis=1)
        assert np.array_equal(chunked, getattr(whole, name))


class CountingRng:
    """A generator that records the name of every attribute read from it."""

    def __init__(self, rng, calls):
        self.rng, self.calls = rng, calls

    def __getattr__(self, name):
        self.calls.append(name)
        return getattr(self.rng, name)


class Parts(Keep):
    """A copy of every chunk's actions and rewards, in order."""

    reduced = False

    def start(self, run):
        super().start(run)
        self.parts = []

    def add(self, lo, part):
        self.parts.append(Chunk(part.actions.copy(), part.rewards.copy()))

    def result(self):
        return self.parts


@pytest.mark.parametrize("policy, env, message", [
    (UcbPolicy(2), make_linear_env(2, 2, seed=1),
     "ucb plays 2 arms on contexts of width 0 but the LinearContextualEnv has 2 arms "
     "and contexts of width 2"),
    (LinUcbPolicy(2, 2), preset("env1"),
     "linucb plays 2 arms on contexts of width 2 but the BernoulliEnv has 2 arms "
     "and contexts of width 0"),
    (LinUcbPolicy(4, 3), make_linear_env(4, 5, seed=1),
     "linucb plays 4 arms on contexts of width 3 but the LinearContextualEnv has 4 arms "
     "and contexts of width 5"),
], ids=["finite-policy-on-linear-env", "linear-policy-on-bernoulli-env", "context-width"])
def test_run_lockstep_rejects_an_unrunnable_pair_up_front(policy, env, message):
    with pytest.raises(DimensionMismatchError, match=message):
        run_lockstep(policy, env, make_grid(8, 4), [1, 2])


@pytest.mark.parametrize("env_name", ["env1", "env6"])
@pytest.mark.parametrize("name", ["ucb", "ts", "uniform", "two_phase", "fixed"])
def test_online_run_over_m_steps_is_the_prefix_of_the_run_over_n(name, env_name):
    # no policy reads its horizon, so the sandwich check and the b-fold
    # reversal read R_M(online) off the online run over n at step M
    env = preset(env_name)
    seeds = [derive_seed(23, "horizon", env_name, i) for i in range(2 * BLOCK_REPS + 5)]
    full = run_online(make(name, env), env, N, seeds)
    for m in (1, 7, SWITCH_T - 1, SWITCH_T + 1, N - 1):
        run = run_online(make(name, env), env, m, seeds)
        assert np.array_equal(run.actions, full.actions[:, :m])
        assert np.array_equal(run.pseudo_regret, full.pseudo_regret[:, :m])


@settings(max_examples=100, deadline=None)
@given(
    name=st.sampled_from(["ucb", "ts", "uniform", "linucb", "lints"]),
    reps=st.integers(1, 12),
    blocks=st.integers(1, 2),
    b=st.sampled_from([1, 2, 5]),
    master=st.integers(0, 2**32 - 1),
)
def test_rep_i_of_any_lockstep_call_equals_its_lone_run(name, reps, blocks, b, master):
    if name in ("linucb", "lints"):
        env = make_linear_env(3, 2, seed=master % 7)
        policy = (LinUcbPolicy if name == "linucb" else LinTsPolicy)(3, 2)
        fields = ("actions", "features", "pseudo_regret", "optimal_hits", "pull_counts")
    else:
        env = preset("env6")
        policy = make(name, env)
        fields = ("actions", "pseudo_regret", "optimal_hits", "pull_counts")
    grid = make_grid(30, b)
    if name not in ("ts", "uniform"):
        seeds = [derive_seed(master, "lockstep", i) for i in range(reps)]
        run = run_batch(policy, env, grid, seeds)
        for i, seed in enumerate(seeds):
            lone = run_batch(policy, env, grid, [seed])
            for field in fields:
                assert np.array_equal(getattr(run, field)[i], getattr(lone, field)[0])
        return
    # block streams: ``blocks`` whole blocks, then ``reps`` more reps; the
    # whole blocks alone, and the blocks after the first alone, give the
    # same rows as the longer call
    whole = blocks * BLOCK_REPS
    seeds = [derive_seed(master, "lockstep", i) for i in range(whole + reps)]
    run = run_batch(policy, env, grid, seeds)
    head = run_batch(policy, env, grid, seeds[:whole])
    tail = run_batch(policy, env, grid, seeds[BLOCK_REPS:])
    for field in fields:
        assert np.array_equal(getattr(head, field), getattr(run, field)[:whole])
        assert np.array_equal(getattr(tail, field), getattr(run, field)[BLOCK_REPS:])


@pytest.mark.parametrize("b", [1, 4])
@pytest.mark.parametrize("env_names", [("env1", "env2", "env3"), ("env4", "env5", "env6")])
@pytest.mark.parametrize("name", ["ucb", "ts", "uniform", "fixed", "two_phase"])
def test_a_stack_of_envs_equals_lone_env_runs(name, env_names, b):
    # whole blocks per env, so a drawing policy's blocks hold one env's reps
    envs = [preset(e) for e in env_names]
    sizes = (BLOCK_REPS, 2 * BLOCK_REPS, BLOCK_REPS)
    grid = make_grid(N, b)
    policy = make(name, envs[0])
    seeds = [derive_seed(29, "stack", name, b, i) for i in range(sum(sizes))]
    run = run_batch(policy, tuple(zip(envs, sizes)), grid, seeds)
    lo = 0
    for env, size in zip(envs, sizes):
        lone = run_batch(policy, env, grid, seeds[lo : lo + size])
        for field in ("actions", "rewards", "pseudo_regret", "optimal_hits", "pull_counts"):
            assert np.array_equal(getattr(run, field)[lo : lo + size], getattr(lone, field))
        lo += size


@pytest.mark.parametrize("second,prefix", [
    (preset("env2"), True),
    (make_linear_env(2, 2, seed=1), False),
], ids=["prefix", "contextual"])
def test_a_stack_with_a_prefix_or_a_contextual_env_raises(second, prefix):
    grid = make_grid(8, 4)
    head = (UniformPolicy(2), np.full(4, 4)) if prefix else None
    with pytest.raises(ValueError, match="a stack of environments takes Bernoulli envs"):
        run_lockstep(UcbPolicy(2), ((preset("env1"), 2), (second, 2)), grid, [1, 2, 3, 4],
                     prefix=head)


@pytest.mark.parametrize("stack", [
    ((preset("env1"), 5),),
    ((preset("env1"), 15),),
    ((preset("env1"), 15), (preset("env2"), -5)),
    (),
], ids=["one-env-short", "one-env-long", "negative-reps", "empty"])
def test_a_stack_whose_reps_miss_the_seeds_raises(stack):
    # each once raised numpy's or Python's own error, or ran and ignored the count
    seeds = list(range(10)) if stack else []
    with pytest.raises(ValueError, match="a stack of environments takes Bernoulli envs"):
        run_lockstep(UcbPolicy(2), stack, make_grid(8, 4), seeds)


@pytest.mark.parametrize("kwargs, message", [
    ({"visibility": "delayed"}, "unknown visibility 'delayed'"),
    ({"visibility": "short", "prefix": (UniformPolicy(2), np.full(4, 4))},
     "a two-phase run needs batch feedback"),
], ids=["unknown-visibility", "prefix-with-short-feedback"])
def test_run_lockstep_rejects_bad_arguments(kwargs, message):
    with pytest.raises(ValueError, match=message):
        run_lockstep(UcbPolicy(2), preset("env1"), make_grid(8, 4), [1, 2, 3, 4], **kwargs)


@pytest.mark.parametrize("name", ["ucb", "ts", "uniform", "linucb", "lints"])
def test_a_run_over_no_seeds_holds_no_reps(name):
    if name in ("linucb", "lints"):
        env = make_linear_env(2, 2)
        policy = (LinUcbPolicy if name == "linucb" else LinTsPolicy)(2, 2)
    else:
        env = preset("env1")
        policy = make(name, env)
    run = run_batch(policy, env, make_grid(8, 2), [])
    assert run.actions.shape == run.pseudo_regret.shape == (0, 8)
    assert run.pull_counts.shape == (0, 2)
    if name in ("linucb", "lints"):
        assert run.features.shape == (0, 8, 4)


@pytest.mark.parametrize("candidate", [UcbPolicy(2), ThompsonBetaPolicy(2), UniformPolicy(2)])
def test_delayed_starts_in_lockstep_equal_lone_runs(candidate):
    # env3 at b=10: some reps certify early, some late, some never.  The
    # uniform first phase draws from block streams, so "lone" is the rep's
    # row in a call over its whole block and more reps.
    env = preset("env3")
    grid = make_grid(600, 10)
    seeds = [derive_seed(5, "meta", i) for i in range(BLOCK_REPS + 8)]

    def both(seeds):
        return [
            approx_delayed_start_run(candidate, env, grid, 0.01, seeds),
            delayed_start_run(candidate, UniformPolicy(2), MonotoneBound(env.means),
                              env, grid, seeds),
        ]

    runs = both(seeds[:BLOCK_REPS])
    lone = [[run.record(i) for i in range(BLOCK_REPS)] for run in both(seeds)]
    taus = {p.tau_hat for p in runs[0].phases}
    assert None in taus and len(taus) > 2
    for run, recs in zip(runs, lone):
        for i, rec in enumerate(recs):
            assert np.array_equal(run.actions[i], rec.actions)
            assert np.array_equal(run.pseudo_regret[i], rec.pseudo_regret)
            a, b = run.phases[i], rec.phase
            assert (a.phase1, a.tau_hat, a.delta) == (b.phase1, b.tau_hat, b.delta)
            for field in ("counts", "means", "theta_hat"):
                x, y = getattr(a, field), getattr(b, field)
                assert (x is None and y is None) or np.array_equal(x, y)


@pytest.mark.parametrize("candidate", [UcbPolicy(2), ThompsonBetaPolicy(2), UniformPolicy(2)])
def test_delayed_starts_play_a_plain_uniform_run_before_the_hand_over(candidate):
    # phase 1 is a plain run of the naive policy on the block streams, and
    # the candidate draws from streams of its own, so up to its hand-over
    # (all n steps when it never hands over) each rep plays its row of the
    # plain uniform run, however many reps of its block have handed over
    env = preset("env3")
    grid = make_grid(600, 10)
    seeds = [derive_seed(5, "meta", i) for i in range(BLOCK_REPS + 8)]
    plain = run_batch(UniformPolicy(2), env, grid, seeds)
    runs = [
        approx_delayed_start_run(candidate, env, grid, 0.01, seeds),
        delayed_start_run(candidate, UniformPolicy(2), MonotoneBound(env.means), env, grid, seeds),
    ]
    taus = {p.tau_hat for p in runs[0].phases}
    assert None in taus and len(taus) > 2
    for run in runs:
        for i, phase in enumerate(run.phases):
            tau = grid.n if phase.tau_hat is None else phase.tau_hat
            assert np.array_equal(run.actions[i, :tau], plain.actions[i, :tau])
            assert np.array_equal(run.pseudo_regret[i, :tau], plain.pseudo_regret[i, :tau])


class Adaptive:
    """``policy`` marked adaptive, so the engine asks it batch by batch."""

    adaptive = True

    def __init__(self, policy):
        self.policy = policy

    def __getattr__(self, name):
        return getattr(self.policy, name)


@pytest.mark.parametrize("b", [1, 3, 10])
@pytest.mark.parametrize("env_name", ["env3", "env6"])
@pytest.mark.parametrize("name", ["uniform", "fixed"])
def test_one_call_for_non_adaptive_play_equals_per_batch_play(name, env_name, b):
    # at n=2000 every env3 rep certifies, at its own boundary, so the
    # certified start steps batch by batch up to the last hand-over and
    # plays the rest in one call; the oracle start hands over at one common
    # boundary on both envs
    env = preset(env_name)
    grid = make_grid(2000, b)
    seeds = [derive_seed(17, name, env_name, b, i) for i in range(24)]

    def runs(candidate, naive):
        return [
            run_batch(candidate, env, grid, seeds),
            approx_delayed_start_run(candidate, env, grid, 0.01, seeds),
            delayed_start_run(candidate, naive, MonotoneBound(env.means), env, grid, seeds),
        ]

    policy, naive = make(name, env), UniformPolicy(env.k)
    fast, slow = runs(policy, naive), runs(Adaptive(policy), naive)
    if env_name == "env3":
        assert (fast[1].tau >= 0).all() and len(set(fast[1].tau.tolist())) > 2
    assert (fast[2].tau >= 0).all()
    for one, per in zip(fast, slow):
        for field in ("actions", "rewards", "pseudo_regret", "optimal_hits", "pull_counts", "tau"):
            assert np.array_equal(getattr(one, field), getattr(per, field))
    # the naive play the engine replays, chunk by chunk, against per-step
    # uniform play up to each rep's hand-over
    ref = reference_run("uniform", env.means.tolist(), grid.n, b, seeds)
    for run in fast[1:]:
        for i, ((actions, regret), tau) in enumerate(zip(ref, run.tau.tolist())):
            tau = grid.n if tau < 0 else tau
            assert run.actions[i, :tau].tolist() == actions[:tau]
            assert run.pseudo_regret[i, :tau].tolist() == regret[:tau]


@pytest.mark.parametrize("naive", [UcbPolicy(2), ThompsonBetaPolicy(2), Adaptive(UniformPolicy(2))])
def test_a_delayed_start_rejects_a_naive_policy_that_reads_feedback(naive):
    env = preset("env3")
    with pytest.raises(ValueError, match="first phase needs a policy that ignores feedback"):
        delayed_start_run(UcbPolicy(2), naive, MonotoneBound(env.means), env, make_grid(60, 3),
                          [1, 2])


@pytest.mark.parametrize("M", [1, 7, 200])
def test_plain_uniform_run_asks_the_policy_once(monkeypatch, M):
    calls = []
    act_reps = UniformPolicy.act_reps

    def spy(self, *args, **kwargs):
        calls.append(kwargs.get("batches", 1))
        return act_reps(self, *args, **kwargs)

    monkeypatch.setattr(UniformPolicy, "act_reps", spy)
    env = preset("env6")
    seeds = [derive_seed(19, "spy", i) for i in range(2 * BLOCK_REPS + 3)]
    run_batch(UniformPolicy(env.k), env, make_grid(3 * M, 3), seeds)
    assert calls == [M]


@pytest.mark.parametrize("b", [1, 3, 10])
@pytest.mark.parametrize("env_name", ["env1", "env3", "env6"])
def test_approx_delayed_start_matches_naive_reference(env_name, b):
    # lockstep reps leave phase 1 at different boundaries, so the
    # certification sees every rep, a subset, and reps not yet ready
    env = preset(env_name)
    grid = make_grid(600, b)
    seeds = [derive_seed(9, "approx", env_name, b, i) for i in range(BLOCK_REPS + 2)]
    run = approx_delayed_start_run(UcbPolicy(env.k), env, grid, 0.05, seeds)
    ref = reference_approx_delayed_start(env.means.tolist(), grid.n, b, seeds, 0.05)
    for i, (tau, actions) in enumerate(ref):
        assert run.phases[i].tau_hat == tau
        assert run.actions[i].tolist() == actions
    # a lone run absorbs its whole phase 1 in one release at the hand-over,
    # then one batch at a time
    for seed in seeds[:4]:
        lone = approx_delayed_start_run(UcbPolicy(env.k), env, grid, 0.05, seed)
        tau, actions = reference_approx_delayed_start(env.means.tolist(), grid.n, b, [seed],
                                                      0.05)[0]
        assert (lone.phase.tau_hat, lone.actions.tolist()) == (tau, actions)


@pytest.mark.parametrize("budget", [None, 5])
@pytest.mark.parametrize("reps", [1, 2 * BLOCK_REPS + 3])
@pytest.mark.parametrize("b", [1, 3, 10])
@pytest.mark.parametrize("env_name", ["env3", "0.9,0.3,0.2,0.1"])
def test_two_phase_ucb_runs_ahead_as_the_reference_plays(monkeypatch, env_name, b, reps, budget):
    # each rep hands over at its own boundary in the run's first quarter,
    # and some rep's leader still moves after the last one, so the windows
    # UCB runs ahead over get cut; a budget of 5 batches per window binds
    env = parse_env(env_name)
    grid = make_grid(1000, b)
    seeds = [derive_seed(33, "ahead", env_name, b, i) for i in range(reps)]
    taus = [b * (5 * i % (grid.M // 4) + 1) for i in range(reps)]
    if budget:
        monkeypatch.setattr(specifications, "AHEAD_CELLS", budget * reps)
    windows, run_ahead = [], UcbPolicy.run_ahead_reps

    def spy(self, states, lead, rewards):
        out = run_ahead(self, states, lead, rewards)
        windows.append((rewards.shape[1], out[0]))
        return out

    monkeypatch.setattr(UcbPolicy, "run_ahead_reps", spy)
    prefix = (UniformPolicy(env.k), taus)
    run = run_lockstep(UcbPolicy(env.k), env, grid, seeds, prefix=prefix)
    ref = reference_two_phase(env.means.tolist(), grid.n, b, seeds,
                              lambda i, t, counts, sums: t == taus[i])
    assert [tau for tau, _ in ref] == taus
    assert run.actions.tolist() == [actions for _, actions in ref]
    assert any(kept < w for w, kept in windows)
    assert min(w for w, _ in windows) > 1
    assert max(w for w, _ in windows) == (budget or max(w for w, _ in windows))
    # the same bits as batch-by-batch play, which a budget below the
    # shortest window leaves
    monkeypatch.setattr(specifications, "AHEAD_CELLS", reps)
    plain = run_lockstep(UcbPolicy(env.k), env, grid, seeds, prefix=prefix)
    for name in ("actions", "rewards", "pseudo_regret", "optimal_hits", "pull_counts"):
        assert np.array_equal(getattr(run, name), getattr(plain, name))


class Widths(Curves):
    """``Curves`` that also records the width of every chunk it is given."""

    def start(self, run):
        super().start(run)
        self.widths = []

    def add(self, lo, part):
        self.widths.append(part.actions.shape[1])
        super().add(lo, part)


def at_chunk(monkeypatch, chunk, call):
    monkeypatch.setattr(specifications, "CHUNK", chunk)
    return call()


def assert_keeps_reduce_the_whole_run(run, whole, groups, steps):
    """``run(keep)`` in chunks keeps what the whole-array ``RunSet`` ``whole``
    reduces to: per-group curves, final hits and pulls, and ``Readings``'
    curve of the first group's rows, action prefix and regret at ``steps``."""
    curves = run(Curves(groups))
    for (r0, r1), mean, stderr in zip(groups, curves.mean, curves.stderr):
        want = _mean_se(whole.pseudo_regret[r0:r1], axis=0)
        assert np.array_equal(mean, want[0]) and np.array_equal(stderr, want[1])
    assert np.array_equal(curves.hits, whole.optimal_hits[:, -1])
    assert np.array_equal(curves.pulls, whole.pull_counts)
    reps = groups[0][1]  # every caller's first group starts at row 0
    want = _mean_se(whole.pseudo_regret[:reps], axis=0)
    for cap in (0, 2 * whole.n // 3, whole.n):
        readings = run(Readings(reps, cap, steps))
        assert np.array_equal(readings.mean[0], want[0])
        assert np.array_equal(readings.stderr[0], want[1])
        assert np.array_equal(readings.actions, whole.actions[:, :cap])
        assert np.array_equal(readings.regret, whole.pseudo_regret[:, list(steps)])


@pytest.mark.parametrize("name,env_name,spec,n,b,chunk,reps", [
    ("ucb", "env6", "batch", 98, 1, 8, 20),  # n not a multiple of the chunk
    ("ts", "env6", "batch", 97, 1, 8, 20),  # a one-step tail joins the chunk before it
    ("ucb", "env1", "batch", 3, 1, 2, 3),  # ... even when that leaves one chunk
    ("ts", "env1", "batch", 60, 10, 4, 20),  # b wider than the chunk
    ("uniform", "env6", "batch", 96, 4, 10, 20),  # b not dividing the chunk
    ("two_phase", "env6", "batch", 95, 5, 12, 20),
    ("fixed", "env1", "batch", 90, 3, 2, 5),
    ("ucb", "env6", "short", 96, 4, 6, 20),
    ("ts", "env6", "short", 99, 3, 7, 20),
    ("ts", "env6", "batch", 97, 1, 8, 1),  # one rep, chunk by chunk
    ("ucb", "env3", "batch", 2000, 1, 8, 1),  # one rep running ahead, over all n at once
    ("ucb", "env3", "short", 999, 3, 8, 1),
])
def test_a_run_in_chunks_keeps_what_the_whole_run_reduces_to(monkeypatch, name, env_name, spec,
                                                             n, b, chunk, reps):
    env = preset(env_name)
    policy = make(name, env)
    grid = make_grid(n, b)
    seeds = [derive_seed(37, name, spec, n, b, i) for i in range(reps)]

    def run(keep):
        return at_chunk(monkeypatch, chunk,
                        lambda: run_lockstep(policy, env, grid, seeds, spec, keep=keep))

    whole = run(None)  # Whole keeps every step, so it takes the run as one chunk
    groups = [(0, reps // 2), (reps // 2, reps)] if reps > 1 else [(0, 1)]
    keep = run(Widths(groups))
    width = n if reps == 1 and name == "ucb" else max(chunk // b, 1) * b
    assert sum(keep.widths) == n
    assert all(w % b == 0 and w <= width + 1 for w in keep.widths)
    assert min(keep.widths) >= 2  # _mean_se over one step need not match the whole one's
    assert_keeps_reduce_the_whole_run(run, whole, groups, (n - 1, grid.M - 1, 0, n // 2))


@pytest.mark.parametrize("chunk", [2, 3, 16])
def test_a_stack_in_chunks_keeps_what_the_whole_stack_reduces_to(monkeypatch, chunk):
    envs = (preset("env4"), preset("env5"), preset("env6"))
    sizes = (BLOCK_REPS, 2 * BLOCK_REPS, BLOCK_REPS)
    stack = tuple(zip(envs, sizes))
    seeds = [derive_seed(41, "stack", i) for i in range(sum(sizes))]
    groups = [(0, 10), (BLOCK_REPS, BLOCK_REPS + 20), (3 * BLOCK_REPS, 4 * BLOCK_REPS)]
    for name in ("ucb", "ts"):
        policy = make(name, envs[0])

        def run(keep, policy=policy):
            return at_chunk(monkeypatch, chunk,
                            lambda: run_batch(policy, stack, make_grid(37, 1), seeds, keep=keep))

        assert_keeps_reduce_the_whole_run(run, run(None), groups, (36, 0, 5))


@pytest.mark.parametrize("b,chunk", [(1, 3), (10, 4), (10, 25), (3, 50)])
@pytest.mark.parametrize("candidate", [UcbPolicy(2), ThompsonBetaPolicy(2), UniformPolicy(2)])
def test_two_phase_runs_in_chunks_keep_what_the_whole_runs_reduce_to(monkeypatch, candidate,
                                                                     b, chunk):
    # a certified start's second phase on its first phase's prefix: the
    # hand-overs fall inside chunks, on their edges and, for uniform play,
    # in the one-call tail of each chunk
    env = preset("env3")
    grid = make_grid(600, b)
    seeds = [derive_seed(5, "meta", i) for i in range(BLOCK_REPS + 8)]
    whole = approx_delayed_start_run(candidate, env, grid, 0.01, seeds)
    assert len({p.tau_hat for p in whole.phases}) > 2

    def run(keep):
        return at_chunk(monkeypatch, chunk, lambda: run_lockstep(
            candidate, env, grid, seeds, prefix=(UniformPolicy(2), whole.tau), keep=keep))

    assert_keeps_reduce_the_whole_run(run, whole, [(0, BLOCK_REPS), (BLOCK_REPS, len(seeds))],
                                      (599, 299, 0))


@pytest.mark.parametrize("b,chunk", [(1, 2), (1, 3), (4, 5), (4, 3)])
@pytest.mark.parametrize("cls", [LinUcbPolicy, LinTsPolicy])
def test_contextual_runs_in_chunks_keep_what_the_whole_runs_reduce_to(monkeypatch, cls, b,
                                                                      chunk):
    env = make_linear_env(3, 2, seed=5)
    grid = make_grid(41, b)
    seeds = [derive_seed(47, "linear", b, i) for i in range(4)]

    def run(keep):
        return at_chunk(monkeypatch, chunk,
                        lambda: run_batch(cls(3, 2), env, grid, seeds, keep=keep))

    assert_keeps_reduce_the_whole_run(run, run(None), [(0, 1), (1, 4)], (grid.n - 1, 0, 20))


@pytest.mark.parametrize("chunk", [2, 30])
def test_a_reduced_uniform_run_asks_the_policy_once_per_chunk(monkeypatch, chunk):
    calls = []
    act_reps = UniformPolicy.act_reps

    def spy(self, *args, **kwargs):
        calls.append(kwargs.get("batches", 1))
        return act_reps(self, *args, **kwargs)

    monkeypatch.setattr(UniformPolicy, "act_reps", spy)
    env = preset("env6")
    seeds = [derive_seed(19, "spy", i) for i in range(2 * BLOCK_REPS + 3)]
    at_chunk(monkeypatch, chunk,
             lambda: run_batch(UniformPolicy(env.k), env, make_grid(600, 3), seeds,
                                 keep=Curves([(0, 1)])))
    per = max(chunk // 3, 1)
    assert calls == [min(per, 200 - j) for j in range(0, 200, per)]
