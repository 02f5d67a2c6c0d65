"""Tests for the offline replay evaluator."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from reference_runner import reference_replay

import batchband.replay as replay_module
from batchband.core import PROB_TOL, derive_seed
from batchband.environments import (
    DataError,
    LoggedData,
    make_linear_env,
    parse_env,
    preset,
    synth_logged_dataset,
)
from batchband.policies import (
    FixedArmPolicy,
    LinTsPolicy,
    LinUcbPolicy,
    ThompsonBetaPolicy,
    TwoPhaseSwitchPolicy,
    UcbPolicy,
    UniformPolicy,
)
from batchband.replay import (
    _NOISE_CHUNK,
    REPLAY_CSV_HEADER,
    ReplayResult,
    check_uniform_log,
    relative_cr,
    replay_evaluate,
    write_replay_csv,
)


def rec(pairs, k=2):
    """A context-free log of (action, reward) pairs, logged uniformly over
    ``k`` arms."""
    n = len(pairs)
    actions, rewards = zip(*pairs) if pairs else ((), ())
    return LoggedData(np.zeros((n, 0)), np.array(actions, dtype=np.int64), rewards,
                      np.full(n, 1.0 / k))


def without_arm(data, arm):
    keep = data.actions != arm
    return LoggedData(data.contexts[keep], data.actions[keep], data.rewards[keep],
                      data.probs[keep])


class TestHandExamples:
    def test_point_mass_four_records(self):
        dataset = rec([(0, 1.0), (1, 0.0), (0, 0.0), (1, 1.0)])
        result = replay_evaluate(FixedArmPolicy(2, 0), dataset, b=1, seed=0)
        assert result.matched == 2
        assert result.successes == 1
        assert result.cr == 0.5
        assert result.defined

    def test_no_matches_flagged_undefined(self):
        dataset = rec([(0, 1.0), (0, 0.0)])
        result = replay_evaluate(FixedArmPolicy(2, 1), dataset, b=1, seed=0)
        assert result.matched == 0
        assert result.successes == 0
        assert result.cr is None
        assert not result.defined

    def test_empty_dataset_rejected(self):
        with pytest.raises(DataError, match="empty"):
            rec([])

    def test_bad_batch_rejected(self):
        with pytest.raises(DataError, match="batch"):
            replay_evaluate(FixedArmPolicy(2, 0), rec([(0, 1.0)]), b=0, seed=0)

    @pytest.mark.parametrize("b", [2.5, 2.0])
    @pytest.mark.parametrize("policy", [UniformPolicy(2), UcbPolicy(2), ThompsonBetaPolicy(2)])
    def test_non_integer_batch_rejected(self, policy, b):
        with pytest.raises(DataError, match="batch size must be an integer"):
            replay_evaluate(policy, rec([(0, 1.0), (1, 0.0)]), b=b, seed=0)

    @pytest.mark.parametrize("seed", [None, 2.5, -1])
    def test_seed_must_be_a_non_negative_integer(self, seed):
        # None would draw from OS entropy, so the replay could not be repeated
        dataset = synth_logged_dataset(preset("env1"), 200, seed=1)
        with pytest.raises(DataError, match="seed must be a non-negative integer"):
            replay_evaluate(ThompsonBetaPolicy(2), dataset, b=1, seed=seed)

    @pytest.mark.parametrize("cls", [LinUcbPolicy, LinTsPolicy])
    def test_linear_policy_on_a_log_of_other_context_width_rejected(self, cls):
        wide = synth_logged_dataset(make_linear_env(4, 5, seed=1), 50, seed=2)
        with pytest.raises(DataError, match=f"{cls.name} reads contexts of width 3 "
                                            "but the log's contexts have width 5"):
            replay_evaluate(cls(4, 3), wide, 1, 0)
        bare = synth_logged_dataset(preset("env4"), 50, seed=2)
        with pytest.raises(DataError, match="reads contexts of width 3 but the log's "
                                            "contexts have width 0"):
            replay_evaluate(cls(4, 3), bare, 1, 0)

    def test_out_of_range_action_reports_line(self):
        dataset = rec([(0, 1.0), (3, 1.0)])
        with pytest.raises(DataError, match="line 3: action out of range"):
            replay_evaluate(FixedArmPolicy(2, 0), dataset, b=1, seed=0)


class TestUniformLoggingContract:
    def test_prob_other_than_one_over_k_reports_line(self):
        dataset = LoggedData(np.zeros((3, 0)), np.array([0, 1, 0]), [1.0, 0.0, 1.0],
                             [0.5, 0.5, 0.9])
        for policy in (UniformPolicy(2), UcbPolicy(2), FixedArmPolicy(2, 0)):
            with pytest.raises(DataError, match="line 4: logging_prob is not 1/k"):
                replay_evaluate(policy, dataset, b=1, seed=0)

    def test_prob_must_match_the_policys_k(self):
        with pytest.raises(DataError, match="line 2: logging_prob"):
            replay_evaluate(UcbPolicy(3), rec([(0, 1.0), (1, 0.0)], k=2), b=1, seed=0)
        check_uniform_log(rec([(0, 1.0), (1, 0.0)], k=3), UcbPolicy(3))

    def test_prob_within_tolerance_of_one_over_k_is_accepted(self):
        dataset = LoggedData(np.zeros((2, 0)), np.array([0, 2]), [1.0, 0.0],
                             [1 / 3 + 0.5 * PROB_TOL, 1 / 3 - 0.5 * PROB_TOL])
        check_uniform_log(dataset, UniformPolicy(3))

    @pytest.mark.parametrize("reward", [1.5, -0.25])
    def test_ts_needs_rewards_in_unit_interval(self, reward):
        dataset = rec([(0, 1.0), (1, 0.0), (1, reward)])
        with pytest.raises(DataError, match="line 4: ts needs rewards in"):
            replay_evaluate(ThompsonBetaPolicy(2), dataset, b=1, seed=0)
        replay_evaluate(UcbPolicy(2), dataset, b=1, seed=0)


class TestBatchSemantics:
    def test_history_advances_only_per_matched_batch(self):
        dataset = rec([(0, 1.0), (0, 0.0), (1, 0.0), (1, 1.0), (0, 1.0)])
        r2 = replay_evaluate(UcbPolicy(2), dataset, b=2, seed=0)
        assert (r2.matched, r2.successes) == (5, 3)
        assert r2.cr == pytest.approx(0.6)
        r1 = replay_evaluate(UcbPolicy(2), dataset, b=1, seed=0)
        assert (r1.matched, r1.successes) == (3, 2)

    def test_final_partial_batch_never_fed_back(self):
        dataset = rec([(0, 1.0)] * 10)
        wide = replay_evaluate(UcbPolicy(2), dataset, b=100, seed=0)
        assert wide.matched == 10
        online = replay_evaluate(UcbPolicy(2), dataset, b=1, seed=0)
        assert online.matched == 1

    def test_unmatched_records_do_not_touch_history(self):
        dataset = rec([(1, 1.0)] * 6 + [(0, 1.0)])
        result = replay_evaluate(FixedArmPolicy(2, 0), dataset, b=1, seed=0)
        assert result.matched == 1
        assert result.cr == 1.0


class TestUnbiasedness:
    def test_uniform_target_on_uniform_logs_env1(self):
        env = preset("env1")
        dataset = synth_logged_dataset(env, 40_000, seed=21)
        result = replay_evaluate(UniformPolicy(2), dataset, b=1, seed=4)
        assert result.matched > 15_000
        assert result.cr == pytest.approx(0.6, abs=0.01)

    def test_fixed_target_recovers_its_arm_mean(self):
        env = preset("env1")
        dataset = synth_logged_dataset(env, 40_000, seed=22)
        result = replay_evaluate(FixedArmPolicy(2, 0), dataset, b=1, seed=0)
        assert result.matched > 15_000
        assert result.cr == pytest.approx(0.7, abs=0.015)


class TestDeterminism:
    def test_same_seed_same_result(self):
        env = preset("env2")
        dataset = synth_logged_dataset(env, 500, seed=9)
        a = replay_evaluate(ThompsonBetaPolicy(2), dataset, b=4, seed=5)
        b = replay_evaluate(ThompsonBetaPolicy(2), dataset, b=4, seed=5)
        assert a == b

    def test_contextual_same_seed_same_result(self):
        env = make_linear_env(3, 4, seed=2)
        dataset = synth_logged_dataset(env, 400, seed=3)
        pol = LinUcbPolicy(3, 4)
        a = replay_evaluate(pol, dataset, b=8, seed=1)
        b = replay_evaluate(pol, dataset, b=8, seed=1)
        assert a == b
        assert a.matched > 0


# every replay policy, built in the library, with the reference's settings;
# ``_c`` names UCB's exploration constant
POLICIES = {
    "ucb": lambda k, p: UcbPolicy(k),
    "ucb_c0": lambda k, p: UcbPolicy(k, c=0.0),
    "ucb_c0.3": lambda k, p: UcbPolicy(k, c=0.3),
    "ts": lambda k, p: ThompsonBetaPolicy(k),
    "uniform": lambda k, p: UniformPolicy(k),
    "fixed": lambda k, p: FixedArmPolicy(k, 1),
    "two_phase": lambda k, p: TwoPhaseSwitchPolicy(k, good_arm=0, bad_arm=1, switch_t=40),
    "linucb": lambda k, p: LinUcbPolicy(k, p),
    "lints": lambda k, p: LinTsPolicy(k, p),
}
SETTINGS = dict(arm=1, good=0, bad=1, switch_t=40)


def reference(name, k, dataset, b, seed):
    """``reference_replay`` of the ``POLICIES`` entry ``name``."""
    name, _, c = name.partition("_c")
    return reference_replay(name, k, dataset, b, seed, c=float(c or 1.0), **SETTINGS)


def logs(linear):
    """Logs to replay: full logs of lengths that no window divides, on
    presets and on a tied best pair, and a log in which arm 1 never
    appears, so a policy stuck on it scans the rest of the log without a
    hit and UCB's forced pull of arm 1 never matches."""
    if linear:
        full = synth_logged_dataset(make_linear_env(4, 3, seed=5), 1201, seed=31)
        return [full, without_arm(full, 1)]
    full = [synth_logged_dataset(parse_env(name), rows, seed=31) for name, rows in (
        ("env1", 2001), ("env3", 1999), ("env4", 2503), ("env6", 2999), ("0.5,0.5,0.2", 2201))]
    return full + [without_arm(full[3], 1)]


@st.composite
def small_logs(draw):
    """(k, pairs): up to 200 (action, reward) pairs over 2-4 arms, rewards in
    tenths of [0, 1], whose sums round differently when added in another
    order."""
    k = draw(st.integers(2, 4))
    pairs = draw(st.lists(
        st.tuples(st.integers(0, k - 1), st.integers(0, 10).map(lambda x: x / 10)),
        min_size=1, max_size=200,
    ))
    return k, pairs


def fractional_log(seed, rows):
    """(k, pairs): ``rows`` uniform pulls of 2 or 3 arms with rewards in
    tenths, drawn from ``default_rng(seed)``."""
    rng = np.random.default_rng(seed)
    k = int(rng.integers(2, 4))
    actions = rng.integers(0, k, rows).tolist()
    return k, list(zip(actions, np.round(rng.random(rows), 1).tolist()))


class TestAgainstReference:
    # b = 6 and 7 at k=2, and 3 and 4 at k=4, lie on both sides of TS's
    # switch from one proposal per record to one array call per batch
    @pytest.mark.parametrize("b", [1, 2, 3, 7, 50, 4, 6])
    @pytest.mark.parametrize("name", sorted(POLICIES))
    def test_matches_naive_per_record_replay(self, name, b):
        # at b > 1 most replays end inside a batch, which is scored but
        # never fed back
        linear = name.startswith("lin")
        for dataset in logs(linear):
            k = round(1 / dataset.probs[0])
            policy = POLICIES[name](k, dataset.contexts.shape[1])
            result = replay_evaluate(policy, dataset, b=b, seed=17)
            assert (result.matched, result.successes) == reference(name, k, dataset, b, 17)

    @pytest.mark.parametrize("k, b", [(2, 6), (2, 7), (2, 12), (4, 3), (4, 4), (4, 12)])
    def test_ts_matches_reference_where_whole_windows_match(self, k, b):
        # arm 0 logs most records and pays best, so TS soon proposes it and
        # a whole window of proposals often matches: a window one record too
        # long, or an update one record late, then shows
        rng = np.random.default_rng(3)
        actions = np.where(rng.random(1500) < 0.85, 0, rng.integers(1, k, 1500))
        rewards = (rng.random(1500) < np.where(actions == 0, 0.8, 0.3)).astype(float)
        dataset = rec(list(zip(actions.tolist(), rewards.tolist())), k)
        for seed in (0, 1):
            result = replay_evaluate(ThompsonBetaPolicy(k), dataset, b=b, seed=seed)
            assert (result.matched, result.successes) == reference("ts", k, dataset, b, seed)

    @settings(max_examples=150, deadline=None)
    @given(
        log=small_logs(),
        b=st.integers(1, 6),
        seed=st.integers(0, 2**32 - 1),
        name=st.sampled_from(["ucb", "ts", "uniform", "fixed"]),
    )
    # summing each released batch before adding it to the running sums
    # played (192, 99) here, against the reference's (190, 102)
    @example(log=fractional_log(7, 600), b=2, seed=7, name="ucb")
    def test_random_small_logs_match_reference(self, log, b, seed, name):
        k, pairs = log
        dataset = rec(pairs, k)
        result = replay_evaluate(POLICIES[name](k, 0), dataset, b=b, seed=seed)
        assert (result.matched, result.successes) == reference(name, k, dataset, b, seed)


class TestProposalCalls:
    @pytest.mark.parametrize("policy", [UniformPolicy(4), FixedArmPolicy(4, 2)])
    def test_feedback_free_policy_proposes_once_and_never_updates(
        self, monkeypatch, policy
    ):
        calls = []
        cls = type(policy)
        act_reps = cls.act_reps

        def spy(self, states, b, rngs, rows):
            calls.append(b)
            return act_reps(self, states, b, rngs, rows)

        monkeypatch.setattr(cls, "act_reps", spy)
        monkeypatch.setattr(cls, "update_reps", lambda *a: pytest.fail("update called"))
        dataset = synth_logged_dataset(preset("env6"), 999, seed=2)
        result = replay_evaluate(policy, dataset, b=3, seed=4)
        assert calls == [999]
        assert result.matched > 0

    def test_ucb_asks_per_window_its_leader_holds_not_per_match(self, monkeypatch):
        # the benchmark's 25k-row env1 log at b=1: 12,474 matches, each a
        # batch, and about 520 windows (one per leader change, and one per
        # doubling while a leader holds), each one leader and one run ahead
        calls = []
        for method in ("act_reps", "run_ahead"):
            real = getattr(UcbPolicy, method)

            def spy(self, *args, real=real, method=method):
                calls.append(method)
                return real(self, *args)

            monkeypatch.setattr(UcbPolicy, method, spy)
        dataset = synth_logged_dataset(preset("env1"), 25_000, seed=derive_seed(1, "log", "env1"))
        result = replay_evaluate(UcbPolicy(2), dataset, b=1, seed=0)
        assert result.matched > 12_000
        assert 0 < len(calls) <= result.matched // 8

    def test_ts_draws_without_a_proposal_call_per_record(self, monkeypatch):
        # the loop draws from its own posterior, so no record, match or
        # batch costs a policy call
        monkeypatch.setattr(ThompsonBetaPolicy, "act_reps",
                            lambda *a: pytest.fail("act_reps called"))
        monkeypatch.setattr(ThompsonBetaPolicy, "update_reps",
                            lambda *a: pytest.fail("update_reps called"))
        dataset = synth_logged_dataset(preset("env1"), 2400, seed=derive_seed(1, "log", "env1"))
        result = replay_evaluate(ThompsonBetaPolicy(2), dataset, b=1, seed=0)
        assert result.matched > 1000


class TestLinTsWindows:
    """LinTS proposes over look-ahead windows with normals drawn ahead in
    record order, in chunks of ``_NOISE_CHUNK`` records."""

    @staticmethod
    def log(rows):
        return synth_logged_dataset(make_linear_env(4, 3, seed=8), rows, seed=41)

    def test_one_call_per_window_not_per_record(self, monkeypatch):
        calls = []
        act_reps = LinTsPolicy.act_reps

        def spy(self, *args):
            calls.append(args[1])
            return act_reps(self, *args)

        monkeypatch.setattr(LinTsPolicy, "act_reps", spy)
        n = 2400
        result = replay_evaluate(LinTsPolicy(4, 3), self.log(n), b=1, seed=3)
        # at b=1 a call ends at a match or after a window of 2k matchless records
        assert result.matched <= len(calls) <= result.matched + n // 8 + 1
        assert len(calls) < n // 3
        assert max(calls) == 8

    @pytest.mark.parametrize("b", [1, 2, 7, 50, 300])
    def test_matches_reference_across_noise_refills(self, b):
        # the log spans 19 chunks of normals; at b=300 one
        # window spans more than one
        data = self.log(16 * _NOISE_CHUNK + 300)
        for policy in (LinUcbPolicy(4, 3), LinTsPolicy(4, 3)):
            result = replay_evaluate(policy, data, b=b, seed=11)
            assert (result.matched, result.successes) == reference_replay(
                policy.name, 4, data, b, 11)

    @pytest.mark.parametrize("policy", [LinUcbPolicy(4, 3), LinTsPolicy(4, 3)])
    def test_contexts_are_read_without_building_features(self, monkeypatch, policy):
        # the policies read the log's contexts as they are: no record's
        # dense k*p features are ever built
        monkeypatch.setattr(replay_module, "block_features",
                            lambda *a: pytest.fail("block_features called"))
        n = 2 * _NOISE_CHUNK + 300
        assert replay_evaluate(policy, self.log(n), b=1, seed=5).matched > 0


class TestContextualTrend:
    def test_linucb_small_batches_do_not_underperform_huge_batches(self):
        env = make_linear_env(4, 5, seed=3)
        dataset = synth_logged_dataset(env, 12_000, seed=11)
        pol = LinUcbPolicy(4, 5)
        fine = replay_evaluate(pol, dataset, b=1, seed=7)
        coarse = replay_evaluate(pol, dataset, b=1024, seed=7)
        assert fine.matched > 500 and coarse.matched > 500
        se = np.hypot(
            np.sqrt(fine.cr * (1 - fine.cr) / fine.matched),
            np.sqrt(coarse.cr * (1 - coarse.cr) / coarse.matched),
        )
        assert fine.cr >= coarse.cr - 2 * se


class TestRelativeCr:
    def test_self_relative_is_one(self):
        r = ReplayResult("a", 1, 100, 10, 0.10)
        assert relative_cr(r, r) == 1.0

    def test_ratio(self):
        r = ReplayResult("a", 1, 100, 12, 0.12)
        base = ReplayResult("b", 1, 100, 10, 0.10)
        assert relative_cr(r, base) == pytest.approx(1.2)

    def test_zero_cr_gives_zero(self):
        r = ReplayResult("a", 1, 100, 0, 0.0)
        base = ReplayResult("b", 1, 100, 10, 0.10)
        assert relative_cr(r, base) == 0.0

    def test_zero_baseline_rejected(self):
        r = ReplayResult("a", 1, 100, 10, 0.10)
        base = ReplayResult("b", 1, 100, 0, 0.0)
        with pytest.raises(DataError, match="baseline"):
            relative_cr(r, base)

    def test_undefined_result_rejected(self):
        r = ReplayResult("a", 1, 0, 0, None)
        base = ReplayResult("b", 1, 100, 10, 0.10)
        with pytest.raises(DataError, match="undefined"):
            relative_cr(r, base)

    def test_with_relative_fills_field(self):
        r = ReplayResult("a", 1, 100, 12, 0.12)
        base = ReplayResult("b", 1, 100, 10, 0.10)
        assert replace(r, relative_cr=relative_cr(r, base)).relative_cr == pytest.approx(1.2)


class TestCsv:
    def test_rows_and_blanks(self, tmp_path):
        rows = [
            ReplayResult("ucb", 8, 50, 25, 0.5, 1.25),
            ReplayResult("fixed", 1, 0, 0, None),
        ]
        path = tmp_path / "replay.csv"
        write_replay_csv(rows, path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == ",".join(REPLAY_CSV_HEADER)
        assert lines[1] == "ucb,8,50,25,0.5,1.25"
        assert lines[2] == "fixed,1,0,0,,"
