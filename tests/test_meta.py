import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import batchband.meta as meta
from batchband import specifications
from batchband.core import DimensionMismatchError, derive_seed, make_grid
from batchband.environments import BernoulliEnv, make_linear_env, preset
from batchband.harness import ExperimentConfig, run_experiment
from batchband.policies import BasePolicy, FixedArmPolicy, UcbPolicy, UniformPolicy
from batchband.meta import (
    InsufficientDataError,
    MonotoneBound,
    approx_delayed_start_run,
    check_phase,
    delayed_start_run,
    pessimistic_instance,
)
from batchband.specifications import BLOCK_REPS, run_batch

ENV3 = np.array([0.7, 0.1])


def bound_term(t, gap):
    return min(1.0, 4.0 * math.log(t + 1.0) / (t * gap * gap) + 8.0 / t)


def bound_at(theta, t):
    """(aggregate, per_arm) of the bound of instance ``theta`` at time ``t``."""
    mb = MonotoneBound(np.asarray(theta, dtype=float))
    return mb.aggregate(t), mb.per_arm(t)


# ---------------------------------------------------------------- bound


def test_bound_env3_at_100():
    f, per = bound_at(ENV3, 100)
    expected = bound_term(100, 0.6)
    assert per[0] == 0.0
    assert per[1] == pytest.approx(expected, abs=1e-12)
    assert per[1] == pytest.approx(0.5928, abs=5e-5)
    assert f == pytest.approx(1.0 - expected, abs=1e-12)
    assert f == pytest.approx(0.4072, abs=5e-5)


def test_bound_env3_at_1000():
    f, per = bound_at(ENV3, 1000)
    assert per[1] == pytest.approx(0.0848, abs=5e-5)
    assert f == pytest.approx(0.9152, abs=5e-5)


def test_bound_clamps_at_small_t():
    f, per = bound_at(ENV3, 1)
    assert per[1] == 1.0
    assert f == 0.0


def test_bound_time_monotone_on_presets():
    ts = np.arange(1, 2001)
    for name in ("env1", "env2", "env3", "env4", "env5", "env6"):
        mb = MonotoneBound(preset(name).means)
        agg = mb.aggregate(ts)
        per = mb.per_arm(ts)
        assert np.all(np.diff(agg) >= -1e-12), name
        assert np.all(np.diff(per, axis=0) <= 1e-12), name
        assert np.all((agg >= 0) & (agg <= 1))


def test_bound_instance_monotone_env1_vs_env3():
    ts = np.arange(1, 2001)
    f1 = MonotoneBound(preset("env1").means).aggregate(ts)
    f3 = MonotoneBound(ENV3).aggregate(ts)
    assert np.all(f3 >= f1 - 1e-12)
    assert f3.max() > f1.max()


def test_bound_instance_monotone_random_widenings():
    rng = np.random.default_rng(17)
    ts = np.array([10, 50, 100, 500, 2000])
    for _ in range(40):
        k = int(rng.integers(2, 5))
        means = rng.uniform(0.2, 0.9, size=k)
        means[int(rng.integers(0, k))] = 0.95  # unique best
        base = MonotoneBound(means)
        widened = means.copy()
        sub = widened < widened.max()
        widened[sub] -= rng.uniform(0.0, 0.3, size=int(sub.sum()))
        wide = MonotoneBound(widened)
        assert np.all(wide.aggregate(ts) >= base.aggregate(ts) - 1e-12)


def test_bound_rejects_tied_best():
    with pytest.raises(ValueError):
        MonotoneBound(np.array([0.5, 0.5]))
    with pytest.raises(ValueError):
        bound_at([0.3, 0.7, 0.7], 10)


@pytest.mark.parametrize("theta", [[0.5], [[0.7, 0.5]]], ids=["one-arm", "2-d"])
def test_bound_rejects_fewer_than_two_arms_or_a_2d_instance(theta):
    with pytest.raises(ValueError, match="need a 1-D instance with at least two arms"):
        MonotoneBound(np.array(theta))


def test_bound_rejects_bad_time():
    mb = MonotoneBound(ENV3)
    with pytest.raises(ValueError):
        mb.aggregate(0)


# ---------------------------------------------------------------- certification


def test_pessimistic_instance_hand_case():
    theta_hat = pessimistic_instance([1800, 200], [0.7, 0.3], 2000)
    w_lead = math.sqrt(math.log(2000) / 1800)
    w_other = math.sqrt(math.log(2000) / 200)
    assert theta_hat[0] == pytest.approx(0.7 - w_lead, abs=1e-12)
    assert theta_hat[1] == pytest.approx(0.3 + w_other, abs=1e-12)
    assert theta_hat[0] == pytest.approx(0.635018, abs=1e-6)
    assert theta_hat[1] == pytest.approx(0.494947, abs=1e-6)


def test_check_phase_stays_when_bound_weak():
    # pessimistic gap 0.14: bound at t=2000 is ~0.221, below 1/2
    assert check_phase([1800, 200], [0.7, 0.3], 2000, 0.01) is True
    f, _ = bound_at(pessimistic_instance([1800, 200], [0.7, 0.3], 2000), 2000)
    assert f == pytest.approx(0.2211, abs=5e-5)


def test_check_phase_certifies_clear_separation():
    assert check_phase([5000, 5000], [0.9, 0.1], 10_000, 0.01) is False
    f, _ = bound_at(
        pessimistic_instance([5000, 5000], [0.9, 0.1], 10_000), 10_000
    )
    assert f == pytest.approx(0.9920, abs=5e-5)


def test_check_phase_delta_gate():
    # same strong separation but delta below 2k/t^2 forbids certification
    assert check_phase([5000, 5000], [0.9, 0.1], 10_000, 1e-9) is True


def test_check_phase_overlapping_intervals_stay():
    assert check_phase([10, 10], [0.55, 0.45], 100, 0.01) is True


def test_check_phase_rows_match_single_checks():
    rng = np.random.default_rng(0)
    counts = rng.integers(1, 400, size=(300, 3))
    means = rng.random((300, 3))
    for t in (50, 1600):
        rows = check_phase(counts, means, t, 0.01)
        singles = [check_phase(c, m, t, 0.01) for c, m in zip(counts, means)]
        assert rows.tolist() == singles
        assert np.array_equal(
            pessimistic_instance(counts, means, t),
            np.stack([pessimistic_instance(c, m, t) for c, m in zip(counts, means)]),
        )
    assert 0 < (~rows).sum() < rows.size


def test_check_phase_per_row_times_match_single_checks():
    rng = np.random.default_rng(1)
    counts = rng.integers(1, 400, size=(200, 3))
    means = rng.random((200, 3))
    times = rng.integers(2, 3000, size=200)
    rows = check_phase(counts, means, times, 0.01)
    assert rows.tolist() == [
        check_phase(c, m, int(t), 0.01) for c, m, t in zip(counts, means, times)
    ]
    assert 0 < (~rows).sum() < rows.size
    assert np.array_equal(
        pessimistic_instance(counts, means, times),
        np.stack([pessimistic_instance(c, m, int(t)) for c, m, t in zip(counts, means, times)]),
    )
    with pytest.raises(ValueError):
        check_phase(counts, means, times[:5], 0.01)
    with pytest.raises(ValueError):
        check_phase(counts[0], means[0], times[:1], 0.01)


@pytest.mark.parametrize("per_row_times", [False, True])
def test_the_bound_is_computed_only_on_rows_whose_intervals_do_not_overlap(monkeypatch,
                                                                         per_row_times):
    rng = np.random.default_rng(2)
    counts = rng.integers(1, 400, size=(300, 3))
    means = rng.random((300, 3))
    t = rng.integers(2, 3000, size=300) if per_row_times else 1600
    seen = []

    def spy(theta, t, delta):
        seen.append((theta.copy(), np.broadcast_to(t, theta.shape[:1]).copy()))
        return stays(theta, t, delta)

    stays = meta._stays
    monkeypatch.setattr(meta, "_stays", spy)
    got = check_phase(counts, means, t, 0.01)
    theta = pessimistic_instance(counts, means, t)
    rows = np.arange(len(theta))
    leader = theta[rows, means.argmax(axis=1)]
    others = np.where(np.arange(3) == means.argmax(axis=1)[:, None], -np.inf, theta)
    overlap = leader <= others.max(axis=1)
    assert 0 < overlap.sum() < overlap.size
    # one call, on exactly the rows that do not overlap
    assert len(seen) == 1
    assert np.array_equal(seen[0][0], theta[~overlap])
    assert np.array_equal(seen[0][1], np.broadcast_to(t, overlap.shape)[~overlap])
    # each row's verdict is the one the bound gives it among all the rows
    assert np.array_equal(got, overlap | stays(theta, t, 0.01))


def test_check_phase_errors():
    with pytest.raises(InsufficientDataError):
        check_phase([5, 0], [0.5, 0.5], 100, 0.01)
    with pytest.raises(ValueError):
        check_phase([5, 5], [0.5, 0.4], 1, 0.01)
    with pytest.raises(ValueError):
        check_phase([5, 5], [0.5, 0.4], 100, 1.5)


def test_check_phase_rejects_counts_and_means_of_different_arm_counts():
    with pytest.raises(ValueError, match="matching"):
        check_phase([5, 5], [0.5, 0.4, 0.1], 100, 0.01)


# ---------------------------------------------------------------- delayed start (oracle bound)


class NeverCalled(BasePolicy):
    name = "never"

    def __init__(self, k):
        self.k = k

    def init_reps(self, reps):
        raise AssertionError("candidate consulted although bound never fired")


def test_delayed_start_switch_at_first_positive_epoch():
    env = preset("env3")
    rec = delayed_start_run(
        UcbPolicy(2), UniformPolicy(2), MonotoneBound(ENV3), env,
        make_grid(2000, 100), seed=3,
    )
    # epoch starts 1, 101, ...: the bound is 0 at t=1 and positive at t=101
    assert rec.phase.phase1 is False
    assert rec.phase.tau_hat == 100
    assert rec.policy == "delayed_start(ucb)"
    # after the switch the candidate sees 100 uniform pulls and locks on
    assert (rec.actions[100:] == 0).mean() > 0.9


def test_delayed_start_never_switches_on_zero_bound():
    env = preset("env1")
    rec = delayed_start_run(
        NeverCalled(2), UniformPolicy(2), lambda t: 0.0, env,
        make_grid(200, 50), seed=1,
    )
    assert rec.phase.phase1 is True
    assert rec.phase.tau_hat is None
    assert rec.pull_counts.sum() == 200


def test_delayed_start_immediate_switch_equals_plain_run():
    env = preset("env1")
    grid = make_grid(300, 10)
    rec = delayed_start_run(
        UcbPolicy(2), UniformPolicy(2), lambda t: 1.0, env, grid, seed=7,
    )
    plain = run_batch(UcbPolicy(2), env, grid, seed=7)
    assert rec.phase.tau_hat == 0
    assert np.array_equal(rec.actions, plain.actions)
    assert np.array_equal(rec.pseudo_regret, plain.pseudo_regret)


# ---------------------------------------------------------------- approx delayed start


def test_approx_delayed_start_certifies_and_recovers():
    env = preset("env3")
    rec = approx_delayed_start_run(
        UcbPolicy(2), env, make_grid(2000, 100), delta=0.01, seed=5,
    )
    ph = rec.phase
    assert ph.phase1 is False
    assert ph.tau_hat % 100 == 0
    assert 200 <= ph.tau_hat <= 1200
    assert ph.counts.sum() == ph.tau_hat
    assert ph.theta_hat is not None and ph.theta_hat[0] > ph.theta_hat[1]
    post = rec.actions[ph.tau_hat :]
    assert (post == 0).mean() > 0.9


def test_approx_delayed_start_tiny_delta_never_certifies():
    env = preset("env3")
    rec = approx_delayed_start_run(
        UcbPolicy(2), env, make_grid(100, 10), delta=1e-12, seed=2,
    )
    assert rec.phase.phase1 is True
    assert rec.phase.tau_hat is None
    # uniform play throughout: both arms visited plenty
    assert rec.pull_counts.min() > 20


def test_approx_delayed_start_oracle_bound_is_deterministic_in_time():
    env = preset("env3")
    # true-instance bound crosses 1/2 between t=100 and t=200
    for seed in (0, 1, 2):
        rec = approx_delayed_start_run(
            UcbPolicy(2), env, make_grid(1000, 100), delta=0.01, seed=seed,
            bound_from="oracle",
        )
        assert rec.phase.tau_hat == 200


def test_approx_delayed_start_seed_determinism():
    env = preset("env3")
    g = make_grid(1000, 50)
    a = approx_delayed_start_run(UcbPolicy(2), env, g, delta=0.01, seed=9)
    b = approx_delayed_start_run(UcbPolicy(2), env, g, delta=0.01, seed=9)
    assert np.array_equal(a.actions, b.actions)
    assert a.phase.tau_hat == b.phase.tau_hat


def test_approx_delayed_start_confidence_box_coverage():
    env = preset("env3")
    outside = 0
    switched = 0
    for seed in range(40):
        rec = approx_delayed_start_run(
            UcbPolicy(2), env, make_grid(4000, 100), delta=0.01, seed=seed,
        )
        ph = rec.phase
        if ph.tau_hat is None:
            continue
        switched += 1
        widths = np.sqrt(np.log(ph.tau_hat) / ph.counts)
        if np.any(np.abs(ph.means - env.means) > widths):
            outside += 1
    assert switched == 40
    assert outside == 0  # failure probability is ~2k/t^2 <= 1e-4 here


def test_approx_rejects_bad_arguments():
    env = preset("env1")
    with pytest.raises(ValueError):
        approx_delayed_start_run(
            UcbPolicy(2), env, make_grid(100, 10), delta=0.0, seed=0
        )
    with pytest.raises(ValueError):
        approx_delayed_start_run(
            UcbPolicy(2), env, make_grid(100, 10), delta=0.01, seed=0,
            bound_from="other",
        )


@pytest.mark.parametrize("run", [
    lambda env, grid: delayed_start_run(UcbPolicy(2), UniformPolicy(2), lambda t: 1.0,
                                        env, grid, 0),
    lambda env, grid: approx_delayed_start_run(UcbPolicy(2), env, grid, 0.05, 0),
], ids=["oracle", "certified"])
def test_delayed_starts_reject_a_linear_env(run):
    with pytest.raises(TypeError, match="finite-armed environments only"):
        run(make_linear_env(2, 2, seed=1), make_grid(100, 10))


# ---------------------------------------------------------------- arm counts


def test_delayed_starts_reject_policies_for_other_arms():
    env = preset("env1")  # two arms
    grid = make_grid(100, 10)
    with pytest.raises(DimensionMismatchError):
        approx_delayed_start_run(UcbPolicy(4), env, grid, 0.05, 1)
    for bound in (MonotoneBound(env.means), lambda t: 1.0):
        with pytest.raises(DimensionMismatchError):
            delayed_start_run(UcbPolicy(2), UniformPolicy(4), bound, env, grid, 1)
        with pytest.raises(DimensionMismatchError):
            delayed_start_run(UcbPolicy(3), UniformPolicy(2), bound, env, grid, [1, 2])


# ---------------------------------------------------------------- all-boundary certification


def scan_certification(actions, rewards, b, k, delta, truth=None):
    """[(tau, counts, means, theta_hat)] of each rep, from one scalar check
    per boundary: the first ``t`` (0, b, ..., m) with ``t >= 2``, every arm
    pulled and the check passing; (None, None, None, None) when none does."""
    out = []
    unique = truth is None or int((truth == truth.max()).sum()) == 1
    for acts, rews in zip(actions, rewards):
        counts, sums = np.zeros(k), np.zeros(k)
        found = (None, None, None, None)
        for t in range(0, len(acts) + 1, b):
            if t:
                np.add.at(counts, acts[t - b : t], 1.0)
                np.add.at(sums, acts[t - b : t], rews[t - b : t])
            if t < 2 or counts.min() < 1 or not unique:
                continue
            means = sums / counts
            if truth is None:
                if not check_phase(counts, means, t, delta):
                    found = (t, counts.copy(), means, pessimistic_instance(counts, means, t))
                    break
            elif MonotoneBound(truth).aggregate(t) > 1.0 / k and 2.0 * k / (t * t) < delta:
                found = (t, counts.copy(), means, truth)
                break
        out.append(found)
    return out


@settings(max_examples=20, deadline=None)
@given(
    best=st.sampled_from([0.9, 0.95]),
    others=st.lists(st.sampled_from([0.05, 0.1, 0.3]), min_size=1, max_size=3),
    at=st.integers(0, 3),
    b=st.sampled_from([1, 3, 10]),
    n=st.sampled_from([60, 600]),
    reps=st.integers(1, BLOCK_REPS + 4).filter(lambda r: r % BLOCK_REPS),
    delta=st.sampled_from([1e-5, 0.01, 0.3]),
    bound_from=st.sampled_from(["instance", "oracle"]),
    master=st.integers(0, 2**32 - 1),
)
# certifications past the first chunk of boundaries
@example(best=0.95, others=[0.05, 0.05], at=1, b=1, n=600, reps=17, delta=0.01,
         bound_from="instance", master=0)
@example(best=0.95, others=[0.6], at=0, b=1, n=600, reps=3, delta=0.01,
         bound_from="oracle", master=0)
def test_certification_matches_scalar_checks_per_boundary(
    best, others, at, b, n, reps, delta, bound_from, master
):
    # at b=1 and n=600 the boundaries span three certification chunks, and
    # most reps with a clear best arm certify in the second or third
    means = others[:at] + [best] + others[at:]
    env = BernoulliEnv(np.array(means))
    k = env.k
    grid = make_grid(n, b)
    seeds = [derive_seed(master, "certify", i) for i in range(reps)]
    run = approx_delayed_start_run(UcbPolicy(k), env, grid, delta, seeds, bound_from=bound_from)
    phase1 = run_batch(UniformPolicy(k), env, grid, seeds)
    truth = env.means if bound_from == "oracle" else None
    ref = scan_certification(phase1.actions, phase1.rewards, b, k, delta, truth)
    for phase, (tau, counts, mean_hat, theta_hat) in zip(run.phases, ref):
        assert phase.tau_hat == tau
        assert phase.phase1 is (tau is None)
        for got, want in ((phase.counts, counts), (phase.means, mean_hat),
                          (phase.theta_hat, theta_hat)):
            assert (got is None and want is None) or np.array_equal(got, want)


@pytest.mark.parametrize("check_pairs,chunk,b", [(1, 2, 1), (7, 9, 1), (7, 21, 3), (40, 256, 3),
                                                  (100, 9, 1), (760, 256, 3)])
def test_certification_in_chunks_matches_scalar_checks_per_boundary(monkeypatch, check_pairs,
                                                                    chunk, b):
    # groups of checked boundaries that end inside the engine's chunks, on
    # their edges and past several of them, of one boundary while the open
    # reps exceed the budget, and growing as reps hand over; each call
    # checks one contiguous run of boundaries after the last call's, within
    # the budget unless it is a single boundary
    monkeypatch.setattr(meta, "CHECK_PAIRS", check_pairs)
    monkeypatch.setattr(specifications, "CHUNK", chunk)
    groups = []

    def spy(counts, means, t, delta):
        groups.append((len(t), sorted(set(np.asarray(t) // b))))
        return check_phase(counts, means, t, delta)

    monkeypatch.setattr(meta, "check_phase", spy)
    env = preset("env3")
    grid = make_grid(600, b)
    seeds = [derive_seed(3, "certify", i) for i in range(BLOCK_REPS + 3)]
    run = approx_delayed_start_run(UcbPolicy(2), env, grid, 0.01, seeds)
    phase1 = run_batch(UniformPolicy(2), env, grid, seeds)
    ref = scan_certification(phase1.actions, phase1.rewards, b, 2, 0.01)
    assert len({tau for tau, *_ in ref}) > 3
    assert groups
    last = 0
    for pairs, boundaries in groups:
        assert boundaries == list(range(boundaries[0], boundaries[-1] + 1))
        assert boundaries[0] > last
        assert pairs <= check_pairs or len(boundaries) == 1
        last = boundaries[-1]
    for phase, (tau, counts, mean_hat, theta_hat) in zip(run.phases, ref):
        assert phase.tau_hat == tau
        for got, want in ((phase.counts, counts), (phase.means, mean_hat),
                          (phase.theta_hat, theta_hat)):
            assert (got is None and want is None) or np.array_equal(got, want)


@pytest.mark.parametrize("reps", [16, 40, 256])
def test_no_certification_call_checks_more_pairs_than_the_budget(monkeypatch, reps):
    calls = []

    def spy(counts, means, t, delta):
        calls.append((len(t), int(np.max(t))))
        return check_phase(counts, means, t, delta)

    monkeypatch.setattr(meta, "check_phase", spy)
    seeds = [derive_seed(5, "budget", i) for i in range(reps)]
    approx_delayed_start_run(UcbPolicy(2), preset("env3"), make_grid(1000, 1), 0.01, seeds)
    assert calls and all(rows <= meta.CHECK_PAIRS for rows, _ in calls)
    # the first call ends at budget / reps boundaries: 256 for a 16-rep
    # cell, as when every call checked 256
    assert calls[0][1] == meta.CHECK_PAIRS // reps


def test_the_certification_run_ends_at_the_check_that_closes_the_last_rep(monkeypatch):
    chunks, checks = [], []

    def add_spy(self, lo, part):
        chunks.append((lo, lo + part.actions.shape[1], add(self, lo, part)))
        return chunks[-1][-1]

    def check_spy(counts, means, t, delta):
        checks.append((len(chunks), int(np.max(t))))
        return check_phase(counts, means, t, delta)

    add = meta._Certify.add
    monkeypatch.setattr(meta._Certify, "add", add_spy)
    monkeypatch.setattr(meta, "check_phase", check_spy)
    env, grid = preset("env3"), make_grid(2000, 1)
    seeds = [derive_seed(7, "last hand-over", i) for i in range(BLOCK_REPS)]
    run = approx_delayed_start_run(UcbPolicy(2), env, grid, 0.01, seeds)
    # the hand-overs are those of a uniform run over the whole horizon
    phase1 = run_batch(UniformPolicy(2), env, grid, seeds)
    assert run.tau.tolist() == [tau for tau, *_ in scan_certification(
        phase1.actions, phase1.rewards, 1, 2, 0.01)]
    # every chunk before the last left a rep open, and the last check, the
    # one that closed the last rep, ran in the last chunk drawn, well before
    # the horizon
    assert [done for *_, done in chunks] == [False] * (len(chunks) - 1) + [True]
    lo, hi, _ = chunks[-1]
    assert checks[-1][0] == len(chunks) - 1
    assert run.tau.max() <= checks[-1][1] and lo < checks[-1][1] <= hi < grid.n


def test_a_certified_ucb_cell_asks_the_candidate_far_less_often_than_once_per_batch(monkeypatch):
    # every rep hands over at step 656 and no leader moves after it: the
    # candidate runs ahead over windows that double, not batch by batch
    calls = []
    for name in ("act_reps", "update_reps", "run_ahead_reps"):
        def spy(self, *args, real=getattr(UcbPolicy, name)):
            calls.append(real)
            return real(self, *args)

        monkeypatch.setattr(UcbPolicy, name, spy)
    config = ExperimentConfig(n=2000, reps=BLOCK_REPS, master_seed=1, mode="delayed_start",
                              envs=("env1",), policies=("ucb",), batch_sizes=(1,))
    row = run_experiment(config).rows[0]
    assert (row.tau_mean, row.tau_none) == (656, 0)
    assert 0 < len(calls) <= (2000 - 656) // 20


# check_phase calls per certified cell at n=2000 and 10 reps when phase 1
# was stored whole and its boundaries checked 256 at a time
STORED_HEAD_CHECKS = {("env1", 1): 8, ("env3", 1): 4, ("env6", 1): 8,
                      ("env1", 10): 1, ("env3", 10): 1, ("env6", 100): 1}


@pytest.mark.parametrize("env_name,b", list(STORED_HEAD_CHECKS))
def test_a_certified_cell_calls_check_phase_no_more_often_than_a_stored_head(monkeypatch,
                                                                           env_name, b):
    calls = []

    def spy(*args):
        calls.append(len(args[0]))
        return check_phase(*args)

    monkeypatch.setattr(meta, "check_phase", spy)
    run_experiment(ExperimentConfig(envs=(env_name,), policies=("ucb",), n=2000,
                                    batch_sizes=(b,), reps=10, master_seed=0,
                                    mode="approx_delayed_start"))
    assert 0 < len(calls) <= STORED_HEAD_CHECKS[env_name, b]


def test_oracle_certification_never_passes_on_a_tied_best_arm():
    env = BernoulliEnv(np.array([0.9, 0.9, 0.05]))
    run = approx_delayed_start_run(UcbPolicy(3), env, make_grid(600, 3), 0.3, list(range(5)),
                                   bound_from="oracle")
    assert all(p.phase1 and p.tau_hat is None for p in run.phases)
    assert np.array_equal(run.tau, np.full(5, -1))


CONSTANT_BOUNDS = {"zero": lambda t: 0.0, "one": lambda t: 1.0}


@settings(max_examples=40, deadline=None)
@given(
    means=st.lists(st.sampled_from([0.1, 0.3, 0.45, 0.5, 0.6, 0.9]), min_size=2, max_size=4,
                   unique=True),
    b=st.sampled_from([1, 3, 10]),
    n=st.sampled_from([40, 300, 3000]),
    which=st.sampled_from(["instance", "zero", "one"]),
)
def test_oracle_switch_matches_scalar_bound_scan(means, b, n, which):
    env = BernoulliEnv(np.array(means))
    bound = MonotoneBound(env.means) if which == "instance" else CONSTANT_BOUNDS[which]
    grid = make_grid(n, b)
    want = next((t for t in range(0, grid.n, b) if bound(t + 1) > 0.0), None)
    rec = delayed_start_run(UcbPolicy(env.k), UniformPolicy(env.k), bound, env, grid, 4)
    assert rec.phase.tau_hat == want


@pytest.mark.parametrize("check_pairs", [1, 7])
def test_oracle_switch_is_found_past_the_first_chunk_of_boundaries(monkeypatch, check_pairs):
    # the bound is asked CHECK_PAIRS boundaries at a time
    monkeypatch.setattr(meta, "CHECK_PAIRS", check_pairs)
    env = preset("env3")
    bound, grid = MonotoneBound(env.means), make_grid(600, 1)
    want = next(t for t in range(grid.n) if bound(t + 1) > 0.0)
    assert want > 5 * check_pairs
    rec = delayed_start_run(UcbPolicy(2), UniformPolicy(2), bound, env, grid, 4)
    assert rec.phase.tau_hat == want
