"""The lockstep run engine against a naive per-step reference and itself."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference_runner import reference_approx_delayed_start, reference_run

from batchband.core import derive_seed, make_grid
from batchband.environments import make_linear_env, preset
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
from batchband.specifications import run_batch, run_online, run_short

N = 96
SWITCH_T = 40


def make(name, env):
    k = env.k
    return {
        "ucb": lambda: UcbPolicy(k),
        "ts": lambda: ThompsonBetaPolicy(k),
        "uniform": lambda: UniformPolicy(k),
        "fixed": lambda: FixedArmPolicy(k, arm=1),
        "two_phase": lambda: TwoPhaseSwitchPolicy(
            k, good_arm=env.optimal_arm, bad_arm=int(np.argmin(env.means)),
            switch_t=SWITCH_T,
        ),
    }[name]()


def engine_run(policy, env, spec, b, seeds):
    if spec == "online":
        return run_online(policy, env, N, seeds)
    grid = make_grid(N, b)
    return (run_short if spec == "short" else run_batch)(policy, env, grid, seeds)


@pytest.mark.parametrize("spec,b", [("online", 1), ("batch", 3), ("batch", 8), ("short", 4)])
@pytest.mark.parametrize("name", ["ucb", "ts", "uniform", "fixed", "two_phase"])
def test_engine_matches_naive_reference(name, spec, b):
    for env_name in ("env1", "env6"):
        env = preset(env_name)
        seeds = [derive_seed(3, name, spec, b, env_name, i) for i in range(4)]
        run = engine_run(make(name, env), env, spec, b, seeds)
        for i, seed in enumerate(seeds):
            actions, regret = reference_run(
                name, env.means.tolist(), N, b, seed, short=spec == "short",
                arm=1, switch_t=SWITCH_T,
            )
            assert run.actions[i].tolist() == actions
            assert run.pseudo_regret[i].tolist() == regret


@pytest.mark.parametrize("name", ["ucb", "ts", "uniform"])
def test_rep_i_of_a_lockstep_call_equals_its_lone_run(name):
    env = preset("env6")
    grid = make_grid(60, 4)
    seeds = [derive_seed(11, "prefix", i) for i in range(64)]
    lone = [run_batch(make(name, env), env, grid, s) for s in seeds]
    for reps in (1, 7, 64):
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


@settings(max_examples=100, deadline=None)
@given(
    name=st.sampled_from(["ucb", "ts", "uniform", "linucb", "lints"]),
    reps=st.integers(1, 12),
    b=st.sampled_from([1, 2, 5]),
    master=st.integers(0, 2**32 - 1),
)
def test_rep_i_of_any_lockstep_call_equals_its_lone_run(name, reps, b, master):
    if name in ("linucb", "lints"):
        env = make_linear_env(3, 2, seed=master % 7)
        policy = (LinUcbPolicy if name == "linucb" else LinTsPolicy)(3, 2)
        fields = ("actions", "features", "pseudo_regret", "optimal_hits", "pull_counts")
    else:
        env = preset("env6")
        policy = make(name, env)
        fields = ("actions", "pseudo_regret", "optimal_hits", "pull_counts")
    grid = make_grid(30, b)
    seeds = [derive_seed(master, "lockstep", i) for i in range(reps)]
    run = run_batch(policy, env, grid, seeds)
    for i, seed in enumerate(seeds):
        lone = run_batch(policy, env, grid, [seed])
        for field in fields:
            assert np.array_equal(getattr(run, field)[i], getattr(lone, field)[0])


@pytest.mark.parametrize("candidate", [UcbPolicy(2), ThompsonBetaPolicy(2)])
def test_delayed_starts_in_lockstep_equal_lone_runs(candidate):
    # env3 at b=10: some reps certify early, some late, some never
    env = preset("env3")
    grid = make_grid(600, 10)
    seeds = [derive_seed(5, "meta", i) for i in range(12)]
    runs = [
        approx_delayed_start_run(candidate, env, grid, 0.01, seeds),
        delayed_start_run(candidate, UniformPolicy(2), MonotoneBound(env.means),
                          env, grid, seeds),
    ]
    lone = [
        [approx_delayed_start_run(candidate, env, grid, 0.01, s) for s in seeds],
        [delayed_start_run(candidate, UniformPolicy(2), MonotoneBound(env.means),
                           env, grid, s) for s in seeds],
    ]
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


@pytest.mark.parametrize("b", [1, 3, 10])
@pytest.mark.parametrize("env_name", ["env1", "env3", "env6"])
def test_approx_delayed_start_matches_naive_reference(env_name, b):
    # lockstep reps leave phase 1 at different boundaries, so the gate sees
    # every rep, a subset, and reps not yet ready
    env = preset(env_name)
    grid = make_grid(600, b)
    seeds = [derive_seed(9, "approx", env_name, b, i) for i in range(6)]
    run = approx_delayed_start_run(UcbPolicy(env.k), env, grid, 0.05, seeds)
    for i, seed in enumerate(seeds):
        tau, actions = reference_approx_delayed_start(
            env.means.tolist(), grid.n, b, seed, 0.05
        )
        assert run.phases[i].tau_hat == tau
        assert run.actions[i].tolist() == actions
