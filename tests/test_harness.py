"""Tests for the sweep harness and theorem-bound checker."""

from __future__ import annotations

import csv
import os
import time
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import batchband.harness as harness
from batchband import cli, meta, specifications
from batchband.core import _mean_se, derive_seed, make_grid
from batchband.environments import preset
from batchband.harness import (
    MODES,
    ConfigError,
    ExperimentConfig,
    _cell_seeds,
    bound_reports,
    check_theorem_bounds,
    resolve_threads,
    run_experiment,
)
from batchband.policies import UcbPolicy
from batchband.specifications import run_batch, run_online, whole_blocks


def small_config(**overrides):
    base = dict(
        envs=("env1",),
        policies=("ucb",),
        n=40,
        batch_sizes=(1, 4),
        reps=3,
        master_seed=7,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestConfigValidation:
    def test_unknown_env_rejected(self):
        with pytest.raises(ConfigError, match="bad env"):
            small_config(envs=("env99",)).validate()

    def test_inline_env_accepted(self):
        small_config(envs=("0.9,0.2",)).validate()

    def test_unknown_policy_rejected(self):
        with pytest.raises(ConfigError, match="unknown policy"):
            small_config(policies=("bogus",)).validate()

    def test_contextual_policy_rejected(self):
        with pytest.raises(ConfigError, match="contextual"):
            small_config(policies=("linucb",)).validate()

    def test_batch_larger_than_horizon_rejected(self):
        with pytest.raises(ConfigError, match="shorter than batch"):
            small_config(batch_sizes=(64,)).validate()

    def test_bad_mode_rejected(self):
        with pytest.raises(ConfigError, match="mode"):
            small_config(mode="sideways").validate()

    def test_bad_delta_rejected(self):
        with pytest.raises(ConfigError, match="delta"):
            small_config(mode="approx_delayed_start", delta=1.5).validate()

    def test_zero_reps_rejected(self):
        with pytest.raises(ConfigError, match="reps"):
            small_config(reps=0).validate()

    @pytest.mark.parametrize("overrides,message", [
        ({"envs": ("env1", "env2", "env1")}, "env 'env1' is given twice"),
        ({"policies": ("ucb", "ucb")}, "policy 'ucb' is given twice"),
        ({"batch_sizes": (1, 4, 1)}, "batch size 1 is given twice"),
    ])
    def test_repeated_entries_rejected(self, overrides, message):
        with pytest.raises(ConfigError, match=message):
            small_config(**overrides).validate()

    @pytest.mark.parametrize("overrides,message", [
        ({"envs": ()}, "envs, policies, and batch_sizes must be non-empty"),
        ({"policies": ("ts",), "policy_params": {"UCB": {"ucb_c": 1.0}}},
         "policy_params names 'UCB', which the sweep does not run"),
        ({"batch_sizes": (1, 2.7)}, "batch size must be an integer, got 2.7"),
        ({"master_seed": 1.0}, "master_seed must be an integer, got 1.0"),
        ({"n": 40.0}, "n must be an integer, got 40.0"),
        ({"reps": 3.0}, "reps must be an integer, got 3.0"),
        ({"delta": "0.1"}, "delta must be a real number, got '0.1'"),
        ({"delta": None}, "delta must be a real number, got None"),
        ({"envs": (1,)}, "env 1 must be a preset name or a mean list"),
        ({"policy_params": {"ucb": {"ucb_c": "1.5"}}},
         "policy 'ucb' on env 'env1': ucb_c must be a number, got '1.5'"),
    ], ids=["no-envs", "params-for-another-policy", "float-batch-size", "float-seed",
            "float-n", "float-reps", "text-delta", "no-delta", "integer-env", "text-policy-param"])
    def test_bad_input_rejected_before_any_cell(self, monkeypatch, overrides, message):
        monkeypatch.setattr(harness, "_run_cell", lambda p: pytest.fail("cell ran"))
        with pytest.raises(ConfigError, match=message):
            run_experiment(small_config(**overrides))

    def test_integer_fields_are_stored_as_ints(self):
        cfg = small_config(n=np.int64(40), reps=True, master_seed=np.uint8(7),
                           batch_sizes=(np.int32(4),))
        assert [type(v) for v in (cfg.n, cfg.reps, cfg.master_seed, *cfg.batch_sizes)] == [int] * 4
        assert (cfg.reps, cfg.master_seed) == (1, 7)

    def test_numpy_numbers_give_the_bytes_of_python_ones(self):
        # delta's text enters the approximate start's seeds, so np.float64(0.05),
        # whose repr is not 0.05's, must seed as 0.05 does
        def rows(n, b, reps, seed, delta):
            table = run_experiment(ExperimentConfig(
                envs=("env3",), policies=("ucb",), n=n, batch_sizes=(b,), reps=reps,
                master_seed=seed, mode="approx_delayed_start", delta=delta))
            assert type(table.config.delta) is float
            return [(r.mean_final, r.stderr_final, r.tau_mean, r.tau_none,
                     r.curve_mean.tobytes(), r.curve_stderr.tobytes()) for r in table.rows]

        assert rows(np.int64(300), np.int32(10), np.uint16(4), np.int64(0), np.float64(0.05)) \
            == rows(300, 10, 4, 0, 0.05)

    def test_validation_happens_before_any_run(self):
        cfg = small_config(envs=("env1", "env99"))
        with pytest.raises(ConfigError):
            run_experiment(cfg)

    def test_unknown_policy_parameter_rejected_before_any_cell(self, monkeypatch):
        import batchband.harness as harness

        monkeypatch.setattr(harness, "_run_cell", lambda p: pytest.fail("cell ran"))
        cfg = small_config(policy_params={"ucb": {"c": 5.0}})
        with pytest.raises(ConfigError, match="takes no parameter 'c'"):
            run_experiment(cfg)

    @pytest.mark.parametrize("params,message", [
        ({"ucb": {"ucb_c": "abc"}}, "ucb_c must be a number"),
        ({"ucb": {"ucb_c": float("nan")}}, "exploration constant"),
        ({"two_phase": {"switch_t": 2.7}}, "switch_t must be an integer"),
    ])
    def test_bad_policy_parameter_value_rejected(self, params, message):
        cfg = small_config(policies=("ucb", "two_phase"), policy_params=params)
        with pytest.raises(ConfigError, match=message):
            cfg.validate()

    def test_cell_cardinality_three_envs_two_policies_seven_batches(self):
        cfg = ExperimentConfig(
            envs=("env1", "env2", "env3"),
            policies=("ts", "ucb"),
            n=64,
            batch_sizes=(1, 2, 4, 8, 16, 32, 64),
            reps=1,
            master_seed=0,
        )
        assert len(cfg.cells()) == 42


class TestResolveThreads:
    def test_explicit_wins(self, monkeypatch):
        monkeypatch.setenv("BATCHBAND_THREADS", "8")
        assert resolve_threads(3) == 3

    def test_env_var_used(self, monkeypatch):
        monkeypatch.setenv("BATCHBAND_THREADS", "5")
        assert resolve_threads() == 5

    def test_bad_env_var_rejected(self, monkeypatch):
        monkeypatch.setenv("BATCHBAND_THREADS", "many")
        with pytest.raises(ConfigError):
            resolve_threads()

    def test_default_positive(self, monkeypatch):
        monkeypatch.delenv("BATCHBAND_THREADS", raising=False)
        assert resolve_threads() >= 1


class TestRunExperiment:
    def test_row_per_cell_in_config_order(self):
        cfg = small_config(envs=("env1", "env2"), batch_sizes=(1, 5))
        table = run_experiment(cfg)
        keys = [(r.env, r.policy, r.b) for r in table.rows]
        assert keys == [
            ("env1", "ucb", 1),
            ("env1", "ucb", 5),
            ("env2", "ucb", 1),
            ("env2", "ucb", 5),
        ]
        specs = [r.spec for r in table.rows]
        assert specs == ["online", "batch", "online", "batch"]

    @pytest.mark.parametrize("reps", [10, 100])
    def test_stacked_cells_equal_one_env_runs(self, monkeypatch, reps):
        # at reps=100 a call holds two cells' rep-steps, so the four 2-armed envs split
        if reps == 100:
            monkeypatch.setattr(harness, "STACK_STEPS", 2 * whole_blocks(reps) * 40)
        envs = ("env1", "env2", "env3", "env4", "0.6,0.4")
        cfg = small_config(envs=envs, policies=("ucb", "ts", "uniform", "two_phase"), reps=reps)
        lone = [r for e in envs for r in run_experiment(replace(cfg, envs=(e,))).rows]
        assert [_fields(r) for r in run_experiment(cfg).rows] == [_fields(r) for r in lone]

    @pytest.mark.parametrize("reps,stack_steps,calls,cells", [
        (10, None, 28, 3),
        (16, 3 * 16 * 64, 28, 3),
        (16, 3 * 16 * 64 - 1, 56, 2),
        (16, 16 * 64 - 1, 84, 1),
    ])
    def test_cells_of_one_policy_and_batch_size_share_an_engine_call(
        self, monkeypatch, reps, stack_steps, calls, cells
    ):
        # three envs of each arm count, so three cells per policy and batch size
        stacks = []

        def spy(policy, env, grid, seeds, **kwargs):
            stacks.append((len(env), len(seeds) * grid.n))
            return run_batch(policy, env, grid, seeds, **kwargs)

        monkeypatch.setattr(harness, "run_batch", spy)
        if stack_steps is not None:
            monkeypatch.setattr(harness, "STACK_STEPS", stack_steps)
        cfg = small_config(envs=("env1", "env2", "env3", "env4", "env5", "env6"),
                           policies=("ucb", "ts"), n=64,
                           batch_sizes=(1, 2, 4, 8, 16, 32, 64), reps=reps)
        assert len(run_experiment(cfg).rows) == 84
        assert len(stacks) == calls
        assert max(c for c, _ in stacks) == cells
        assert all(c == 1 or steps <= harness.STACK_STEPS for c, steps in stacks)

    def test_every_thread_count_hands_map_the_groups_of_one_thread(self, monkeypatch):
        groups = {}

        def spy(fn, payloads, threads):
            groups[threads] = [(p[1], p[2], p[-1]) for p in payloads]
            return [fn(p) for p in payloads]

        monkeypatch.setattr(harness, "_map", spy)
        cfg = small_config(envs=("env1", "env2", "env3"), policies=("ucb", "ts"))
        for threads in (1, 2, 3):
            assert len(run_experiment(cfg, threads=threads).rows) == 12
        assert [len(envs) for _, _, envs in groups[1]] == [3, 3, 3, 3]
        assert groups[2] == groups[3] == groups[1]

    def test_results_csv_bytes_stable_across_runs(self, tmp_path):
        cfg = small_config()
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        run_experiment(cfg).to_results_csv(p1)
        run_experiment(cfg).to_results_csv(p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_results_identical_across_thread_counts(self, tmp_path):
        cfg = small_config(envs=("env1",), batch_sizes=(1, 4), reps=3)
        p1, p2 = tmp_path / "t1.csv", tmp_path / "t2.csv"
        run_experiment(cfg, threads=1).to_results_csv(p1)
        run_experiment(cfg, threads=2).to_results_csv(p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_per_rep_seeds_match_documented_derivation(self):
        cfg = small_config(reps=3, batch_sizes=(4,))
        table = run_experiment(cfg)
        env = preset("env1")
        grid = make_grid(cfg.n, 4)
        finals = []
        for i in range(3):
            seed = derive_seed(cfg.master_seed, "env1|ucb|plain|40|4", i)
            finals.append(run_batch(UcbPolicy(2), env, grid, seed).pseudo_regret[-1])
        assert table.rows[0].mean_final == pytest.approx(np.mean(finals), abs=1e-12)

    def test_extending_reps_preserves_earlier_trajectories(self):
        cfg3 = small_config(reps=3, batch_sizes=(4,))
        cfg4 = small_config(reps=4, batch_sizes=(4,))
        t3 = run_experiment(cfg3)
        t4 = run_experiment(cfg4)
        env = preset("env1")
        grid = make_grid(cfg4.n, 4)
        rep3 = run_batch(
            UcbPolicy(2), env, grid, _cell_seeds(cfg4, "env1", "ucb", 4, False)[3]
        ).pseudo_regret[-1]
        recovered = t4.rows[0].mean_final * 4 - rep3
        assert recovered / 3 == pytest.approx(t3.rows[0].mean_final, abs=1e-9)

    @pytest.mark.parametrize("mode,key", [
        ("plain", "env1|ucb|plain|40|4"),
        ("delayed_start", "env1|ucb|delayed_start|40|4"),
        ("approx_delayed_start", "env1|ucb|approx_delayed_start|40|4|0.05|oracle"),
    ])
    def test_cell_seeds_key_delta_and_bound_from_only_in_the_mode_that_reads_them(
        self, mode, key
    ):
        cfg = small_config(mode=mode, delta=0.05, bound_from="oracle")
        assert _cell_seeds(cfg, "env1", "ucb", 4, False) == [
            derive_seed(7, key, i) for i in range(3)]
        assert _cell_seeds(cfg, "env1", "ucb", 4, True) == [
            derive_seed(7, key, i) for i in range(whole_blocks(3))]

    def test_regret_decomposition_matches_pull_counts(self):
        cfg = small_config(envs=("env4",), policies=("ucb", "ts"),
                           batch_sizes=(1, 5), n=100, reps=5)
        table = run_experiment(cfg)
        gap = preset("env4").gap_vector()
        for row in table.rows:
            implied = float(gap @ row.mean_pull_counts)
            assert abs(implied - row.mean_final) < 1e-9

    def test_plain_mode_has_no_tau_columns(self):
        table = run_experiment(small_config())
        for row in table.rows:
            assert row.tau_mean is None
            assert row.tau_none is None

    def test_approx_mode_reports_tau_stats(self):
        cfg = small_config(
            envs=("env3",), n=400, batch_sizes=(100,), reps=3,
            mode="approx_delayed_start", delta=0.5,
        )
        table = run_experiment(cfg)
        row = table.rows[0]
        assert row.policy == "approx_delayed_start(ucb)"
        assert row.tau_none is not None
        assert row.tau_none + (0 if row.tau_mean is None else 1) >= 1
        if row.tau_mean is not None:
            assert row.tau_mean % 100 == 0

    def test_delayed_mode_runs_and_labels(self):
        cfg = small_config(envs=("env3",), n=300, batch_sizes=(100,),
                           reps=2, mode="delayed_start")
        table = run_experiment(cfg)
        assert table.rows[0].policy == "delayed_start(ucb)"
        assert table.rows[0].tau_none is not None

    def test_row_lookup(self):
        table = run_experiment(small_config())
        r = table.row("env1", "ucb", 4)
        assert r.b == 4
        with pytest.raises(KeyError):
            table.row("env1", "ucb", 99)


class TestCsvOutputs:
    def test_results_csv_shape(self, tmp_path):
        cfg = small_config(batch_sizes=(1, 4, 8))
        path = tmp_path / "results.csv"
        run_experiment(cfg).to_results_csv(path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == (
            "env,policy,spec,b,n,reps,mean_final_regret,stderr_final_regret,"
            "mean_optimal_fraction,tau_hat_mean,tau_hat_none"
        )
        assert len(lines) == 1 + 3

    def test_curves_csv_long_format(self, tmp_path):
        cfg = small_config(n=12, batch_sizes=(1, 4), reps=2)
        path = tmp_path / "curves.csv"
        run_experiment(cfg).to_curves_csv(path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "cell,t,mean,stderr"
        assert len(lines) == 1 + 2 * 12
        first = lines[1].split(",")
        assert first[0] == "env1|ucb|online|1"
        assert first[1] == "1"
        last = lines[-1].split(",")
        assert last[0] == "env1|ucb|batch|4"
        assert last[1] == "12"

    @pytest.mark.parametrize("mode", ["plain", "delayed_start", "approx_delayed_start"])
    def test_results_rows_equal_last_curve_rows(self, tmp_path, mode):
        # one reduction per cell: the final mean and stderr are the last
        # point of the cell's curve, as written strings
        cfg = small_config(envs=("env1", "env6"), policies=("ucb", "ts"), n=120,
                           batch_sizes=(1, 3, 8), reps=6, mode=mode)
        table = run_experiment(cfg)
        table.to_results_csv(tmp_path / "results.csv")
        table.to_curves_csv(tmp_path / "curves.csv")
        with open(tmp_path / "results.csv", newline="") as fh:
            results = list(csv.DictReader(fh))
        last = {}
        with open(tmp_path / "curves.csv", newline="") as fh:
            for row in csv.DictReader(fh):
                last[row["cell"]] = row
        assert len(results) == len(last) == 12
        for row in results:
            curve = last[f"{row['env']}|{row['policy']}|{row['spec']}|{row['b']}"]
            assert curve["t"] == row["n"]
            assert (row["mean_final_regret"], row["stderr_final_regret"]) == (
                curve["mean"], curve["stderr"])


class TestCheckTheoremBounds:
    def test_batch_size_one_rejected(self):
        with pytest.raises(ConfigError, match="b >= 2"):
            check_theorem_bounds("ucb", "env1", n=100, b=1, reps=5)

    def test_two_phase_violates_upper_bound_deterministically(self):
        report = check_theorem_bounds(
            "two_phase", "env2", n=20, b=5, reps=2, master_seed=0,
            policy_params={"switch_t": 10},
        )
        lower = report.inequalities[0]
        upper = report.inequalities[1]
        assert report.mean_online == pytest.approx(3.0)
        assert report.mean_batch == pytest.approx(3.0)
        assert report.mean_m == pytest.approx(0.0)
        assert lower.verdict == "boundary"
        assert lower.gate_pass
        assert upper.verdict == "violated"
        assert not upper.gate_pass
        assert not report.gate_pass

    def test_two_phase_mid_batch_switch_violates_lower_bound(self):
        report = check_theorem_bounds(
            "two_phase", "env2", n=20, b=5, reps=2, master_seed=0,
            policy_params={"switch_t": 8},
        )
        assert report.mean_online == pytest.approx(3.6)
        assert report.mean_batch == pytest.approx(3.0)
        lower = report.inequalities[0]
        assert lower.verdict == "violated"
        assert not lower.gate_pass
        assert not report.gate_pass

    def test_ucb_sandwich_gate_passes(self):
        report = check_theorem_bounds("ucb", "env1", n=300, b=10, reps=40,
                                      master_seed=11)
        assert report.m == 30
        assert report.gate_pass
        for iq in report.inequalities:
            assert iq.verdict in ("holds", "inconclusive", "boundary")

    def test_single_rep_rejected(self):
        with pytest.raises(ConfigError, match="reps"):
            check_theorem_bounds("ucb", "env1", n=100, b=5, reps=1)

    @pytest.mark.parametrize("overrides,message", [
        ({"b": 2.5}, "b must be an integer, got 2.5"),
        ({"reps": 4.5}, "reps must be an integer, got 4.5"),
        ({"n": 100.0}, "n must be an integer, got 100.0"),
        ({"master_seed": 1.0}, "master_seed must be an integer, got 1.0"),
    ], ids=["float-b", "float-reps", "float-n", "float-seed"])
    def test_non_integer_argument_rejected(self, overrides, message):
        args = {"n": 100, "b": 5, "reps": 4, "master_seed": 1, **overrides}
        with pytest.raises(ConfigError, match=message):
            check_theorem_bounds("ucb", "env1", **args)

    def test_threads_do_not_change_estimates(self):
        r1 = check_theorem_bounds("ucb", "env2", n=60, b=6, reps=8,
                                  master_seed=3, threads=1)
        r2 = check_theorem_bounds("ucb", "env2", n=60, b=6, reps=8,
                                  master_seed=3, threads=2)
        assert r1.mean_online == r2.mean_online
        assert r1.mean_batch == r2.mean_batch
        assert r1.mean_m == r2.mean_m

    @pytest.mark.parametrize("name", ["ucb", "ts"])
    def test_a_check_runs_two_cells_and_reads_r_m_at_step_m(self, monkeypatch, name):
        runs = []
        monkeypatch.setattr(harness, "run_batch", _recording(harness.run_batch, runs))
        # n=63 truncates to 60 at b=5, so M=12; 7 reps are not a whole block
        report = check_theorem_bounds(name, "env1", n=63, b=5, reps=7, master_seed=3)
        # one engine call per cell: the b=1 cell over n, the b cell over its grid
        assert [(args[2].b, args[2].n) for _, args, _, _ in runs] == [(1, 63), (5, 60)]
        (_, on_args, online, _), (_, b_args, batch, _) = runs
        assert (report.n, report.m) == (60, 12)
        assert [report.mean_online, report.mean_m, report.mean_batch] == [
            online.mean[0][59], online.mean[0][11], batch.mean[0][-1]]
        assert [report.se_online, report.se_m, report.se_batch] == [
            online.stderr[0][59], online.stderr[0][11], batch.stderr[0][-1]]
        # the whole runs on the same arguments hold the same values there
        whole_online = run_batch(*on_args).pseudo_regret[:7]
        whole_batch = run_batch(*b_args).pseudo_regret[:7]
        means, ses = _mean_se(np.column_stack(
            [whole_online[:, 59], whole_online[:, 11], whole_batch[:, -1]]))
        assert [report.mean_online, report.mean_m, report.mean_batch] == means.tolist()
        assert [report.se_online, report.se_m, report.se_batch] == ses.tolist()


class TestBoundReports:
    def test_each_b_cell_reads_its_pairs_b1_curve(self):
        cfg = small_config(envs=("env1", "env6"), policies=("ucb", "ts"), n=41,
                           batch_sizes=(4, 1, 8), reps=5)
        table = run_experiment(cfg)
        reports = bound_reports(table)
        assert [(r.env, r.policy, r.b, r.n, r.m) for r in reports] == [
            (e, p, b, n, n // b) for e in cfg.envs for p in cfg.policies
            for b, n in ((4, 40), (8, 40))]
        for r in reports:
            online, cell = table.row(r.env, r.policy, 1), table.row(r.env, r.policy, r.b)
            assert (r.mean_online, r.mean_m) == (online.curve_mean[39],
                                                 online.curve_mean[r.m - 1])
            assert (r.mean_batch, r.se_batch) == (cell.mean_final, cell.stderr_final)
            upper = r.inequalities[1]
            assert (upper.rhs, upper.stderr) == (
                r.b * r.mean_m, np.hypot(r.b * r.se_m, r.se_batch))

    @pytest.mark.parametrize("mode", ["delayed_start", "approx_delayed_start"])
    def test_a_table_not_plain_is_rejected(self, mode):
        table = run_experiment(small_config(mode=mode))
        with pytest.raises(ConfigError, match=f"plain tables, not mode '{mode}'"):
            bound_reports(table)

    def test_a_table_of_one_rep_is_rejected(self):
        with pytest.raises(ConfigError, match="reps >= 2"):
            bound_reports(run_experiment(small_config(reps=1)))

    def test_a_b_cell_without_its_b1_cell_is_rejected(self):
        table = run_experiment(small_config(batch_sizes=(2, 4)))
        with pytest.raises(ConfigError, match=r"\(env1, ucb, b=2\) has no b=1 cell"):
            bound_reports(table)


def _recording(fn, results):
    """``fn`` that also appends ``(fn, args, keep, result)`` to ``results``
    for each call."""
    def spy(*args, keep=None):
        results.append((fn, args, keep, fn(*args, keep=keep)))
        return results[-1][-1]
    return spy


def _tag_pid(payload):
    """A payload of the ``_map`` tests: appends ``i`` to the file ``log``,
    sleeps ``delay`` s and returns ``(i, pid of the process that ran it)``."""
    i, delay, log = payload
    with open(log, "a") as fh:
        fh.write(f"{i}\n")
    time.sleep(delay)
    return i, os.getpid()


def _fail_in(payload):
    """A payload of the ``_map`` error tests: raises if it runs in the
    caller (``in_caller``) or in a worker (not ``in_caller``); else leaves a
    file named ``i`` in ``marks``, sleeps ``delay`` s and returns ``i``."""
    i, caller, in_caller, delay, marks = payload
    if (os.getpid() == caller) == in_caller:
        raise ValueError(f"payload {i} failed in the {'caller' if in_caller else 'worker'}")
    (marks / str(i)).touch()
    time.sleep(delay)
    return i


def _fail_after(payload):
    """A payload that sleeps ``delay`` s and raises."""
    i, delay = payload
    time.sleep(delay)
    raise ValueError(f"payload {i} failed")


def _exit_in_worker(caller):
    """A payload that ends any process but the caller without a reply."""
    if os.getpid() != caller:
        os._exit(3)
    time.sleep(0.1)
    return caller


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestWorkerCount:
    @pytest.mark.parametrize("threads,message", [
        (0, "threads must be >= 1"),
        (-3, "threads must be >= 1"),
        (1.5, "threads must be an integer, got 1.5"),
        ("2", "threads must be an integer, got '2'"),
    ], ids=["zero", "negative", "float", "string"])
    def test_bad_thread_count_rejected_before_any_cell_runs(self, threads, message):
        with pytest.raises(ConfigError, match=message):
            run_experiment(small_config(), threads=threads)
        with pytest.raises(ConfigError, match=message):
            check_theorem_bounds("ucb", "env1", n=100, b=5, reps=4, threads=threads)

    def test_pool_starts_no_more_workers_than_payloads(self, monkeypatch):
        # a fork that starts no child: its "child" never replies, so each
        # call that forks runs every payload but the children's own first
        # ones in the caller and then raises
        forks, fake = [], 2**30

        def fork():
            forks[-1] += 1
            return fake + forks[-1]

        def waitpid(pid, options):
            return (pid, 0) if pid > fake else os_waitpid(pid, options)

        os_waitpid = os.waitpid
        monkeypatch.setattr(os, "fork", fork)
        monkeypatch.setattr(os, "waitpid", waitpid)
        # a check runs its b=1 cell and its b cell, at any rep count
        calls = [lambda: check_theorem_bounds("ucb", "env1", n=20, b=5, reps=1000,
                                              threads=10_000),
                 lambda: check_theorem_bounds("ts", "env1", n=20, b=5, reps=10,
                                              threads=10_000),
                 lambda: run_experiment(small_config(batch_sizes=(4,)), threads=10_000)]
        for call, payloads in zip(calls, (2, 2, 1)):
            forks.append(0)
            if payloads == 1:
                call()
            else:
                with pytest.raises(RuntimeError, match="exited without a reply"):
                    call()
        # the caller is one of the workers, so it forks one fewer
        assert forks == [1, 1, 0]
        monkeypatch.undo()
        _no_child_left()

    @pytest.mark.parametrize("threads", [2, 3])
    def test_results_keep_payload_order_and_each_payload_runs_once(self, threads, tmp_path):
        log = tmp_path / "ran"
        results = harness._map(_tag_pid, [(i, 0.02, log) for i in range(12)], threads)
        assert [i for i, _ in results] == list(range(12))
        assert sorted(int(line) for line in log.read_text().split()) == list(range(12))
        # every process pulled payloads, the caller among them
        assert len({pid for _, pid in results}) == threads
        assert os.getpid() in {pid for _, pid in results}
        _no_child_left()

    def test_each_process_runs_its_own_first_payload_however_late_it_starts(
            self, monkeypatch, tmp_path):
        # a child that starts late would find the caller done with both
        # payloads if it pulled its first one too
        fork = os.fork

        def late_fork():
            pid = fork()
            if pid == 0:
                time.sleep(0.2)
            return pid

        monkeypatch.setattr(os, "fork", late_fork)
        results = harness._map(_tag_pid, [(i, 0.0, tmp_path / "ran") for i in range(2)], 2)
        monkeypatch.undo()
        assert [i for i, _ in results] == [0, 1]
        assert results[0][1] == os.getpid() != results[1][1]
        _no_child_left()

    def test_caller_error_surfaces_and_cancels_unstarted_payloads(self, tmp_path):
        payloads = [(i, os.getpid(), True, 0.2, tmp_path) for i in range(8)]
        with pytest.raises(ValueError, match=r"payload \d failed in the caller"):
            harness._map(_fail_in, payloads, 2)
        # the caller drained the index pipe as its first payload failed,
        # while the worker ran its own first payload, or two on a loaded
        # host
        assert len(list(tmp_path.iterdir())) <= 2
        _no_child_left()

    def test_worker_error_surfaces(self, tmp_path):
        payloads = [(i, os.getpid(), False, 0.2, tmp_path) for i in range(8)]
        with pytest.raises(ValueError, match=r"payload \d failed in the worker"):
            harness._map(_fail_in, payloads, 2)
        # the worker drained the index pipe as its first payload failed,
        # while the caller ran its own first payload, or two on a loaded
        # host
        assert len(list(tmp_path.iterdir())) <= 2
        _no_child_left()

    def test_the_first_failed_payload_wins_and_a_worker_that_dies_raises(self):
        # payload 0, the caller's own, fails last: after payload 1, the
        # worker's
        with pytest.raises(ValueError, match="payload 0 failed"):
            harness._map(_fail_after, [(0, 0.2), (1, 0.0)], 2)
        with pytest.raises(RuntimeError, match="exited without a reply"):
            harness._map(_exit_in_worker, [os.getpid()] * 4, 2)
        _no_child_left()

    def test_payloads_beyond_one_round_of_indices_run_in_rounds(self):
        payloads = list(range(-2 * harness._ROUND - 5, 0))
        assert harness._map(abs, payloads, 3) == [-p for p in payloads]
        _no_child_left()

    def test_without_fork_the_caller_runs_every_payload(self, monkeypatch, tmp_path):
        monkeypatch.delattr(os, "fork")
        results = harness._map(_tag_pid, [(i, 0.0, tmp_path / "ran") for i in range(4)], 3)
        assert results == [(i, os.getpid()) for i in range(4)]


def _table_outputs(table):
    return [
        (r.env, r.policy, r.b, r.mean_final, r.stderr_final, r.opt_frac, r.tau_mean,
         r.tau_none, r.mean_pull_counts.tolist(), r.curve_mean.tobytes(),
         r.curve_stderr.tobytes())
        for r in table.rows
    ]


def _fields(row):
    """Every field of a ``CellResult``, arrays as their bytes."""
    return {k: v.tobytes() if isinstance(v, np.ndarray) else v for k, v in vars(row).items()}


def _bound_outputs(report):
    return [report.mean_online, report.se_online, report.mean_batch, report.se_batch,
            report.mean_m, report.se_m]


@settings(max_examples=6, deadline=None)
@given(
    policy=st.sampled_from(["ts", "uniform"]),
    mode=st.sampled_from(MODES),
    reps=st.integers(2, 40).filter(lambda r: r % 16),
    seed=st.integers(0, 2**32 - 1),
)
def test_outputs_do_not_depend_on_threads(policy, mode, reps, seed):
    # every example starts pools; rep counts that are not whole blocks make
    # the last chunk pad its block
    # at one thread env1 and env2 stack in plain mode, env4 has more arms
    cfg = small_config(envs=("env1", "env2", "env4"), policies=(policy, "ucb"), mode=mode,
                       reps=reps, master_seed=seed)
    tables = [_table_outputs(run_experiment(cfg, threads=t)) for t in (1, 2, 3)]
    assert tables[0] == tables[1] == tables[2]
    bounds = [
        _bound_outputs(check_theorem_bounds(policy, "env2", n=30, b=3, reps=reps,
                                            master_seed=seed, threads=t))
        for t in (1, 2, 3)
    ]
    assert bounds[0] == bounds[1] == bounds[2]


class TestRegretCurve:
    """The per-step curve of a sweep cell, which every check reads."""

    def test_best_fixed_arm_has_zero_curve(self):
        cfg = small_config(policies=("fixed",), n=50, batch_sizes=(5,), reps=4,
                           master_seed=0, policy_params={"fixed": {"fixed_arm": 0}})
        cell = run_experiment(cfg).rows[0]
        assert np.all(cell.curve_mean == 0.0)
        assert np.all(cell.curve_stderr == 0.0)

    def test_uniform_env1_rate_is_half_gap(self):
        cfg = small_config(policies=("uniform",), n=400, batch_sizes=(1,), reps=400,
                           master_seed=5)
        curve = run_experiment(cfg).rows[0].curve_mean
        assert curve[-1] == pytest.approx(40.0, abs=0.5)
        assert curve[199] == pytest.approx(20.0, abs=0.4)

    def test_single_rep_matches_direct_run(self):
        cfg = small_config(envs=("env2",), n=30, batch_sizes=(1,), reps=1, master_seed=9)
        cell = run_experiment(cfg).rows[0]
        seed = derive_seed(9, "env2|ucb|plain|30|1", 0)
        rec = run_online(UcbPolicy(2), preset("env2"), 30, seed)
        assert np.array_equal(cell.curve_mean, rec.pseudo_regret)


def cli_outputs(calls, root):
    """The bytes of every CSV that the CLI ``calls`` write, each call in its
    own directory under ``root``."""
    for i, argv in enumerate(calls):
        cli.main(argv + ["--out-dir", str(root / str(i))])
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*.csv"))}


@pytest.mark.parametrize("chunk", [2, 3, specifications.CHUNK])
def test_output_csvs_do_not_depend_on_the_engine_chunk(tmp_path, monkeypatch, capsys, chunk):
    # plain stacked cells, certified starts, a sandwich check and the
    # assumption checks, at horizons of several chunks and a one-step tail
    calls = [
        ["simulate", "--env", "env1,env2,env6", "--policy", "ucb,ts,uniform,two_phase",
         "--n", "41", "--b", "1,3,8", "--reps", "5", "--threads", "1"],
        ["simulate", "--env", "env3", "--policy", "ucb,ts", "--mode", "approx_delayed_start",
         "--n", "301", "--b", "1,4", "--reps", "5", "--threads", "1"],
        ["simulate", "--env", "env3,env6", "--policy", "ucb,uniform", "--mode", "delayed_start",
         "--n", "301", "--b", "1,4", "--reps", "5", "--threads", "1"],
        ["check-bounds", "--policy", "ts", "--env", "env6", "--n", "61", "--b", "4",
         "--reps", "20", "--threads", "1"],
        ["check-assumptions", "--env", "env6", "--n", "61", "--b", "4", "--reps", "6",
         "--min-t", "5"],
    ]

    default = cli_outputs(calls, tmp_path / "default")
    assert len(default) == 8
    monkeypatch.setattr(specifications, "CHUNK", chunk)
    assert cli_outputs(calls, tmp_path / "chunked") == default
    capsys.readouterr()


@pytest.mark.parametrize("budget", [1, 40, 10**6])
def test_delayed_start_csvs_do_not_depend_on_the_check_budget(tmp_path, monkeypatch, capsys,
                                                             budget):
    # one boundary per call, calls that grow as reps hand over, and one call
    calls = [
        ["simulate", "--env", "env3,env6", "--policy", "ucb,ts", "--mode", mode,
         "--n", "301", "--b", "1,4", "--reps", "5", "--threads", "1"]
        for mode in ("approx_delayed_start", "delayed_start")]

    default = cli_outputs(calls, tmp_path / "default")
    assert len(default) == 4
    monkeypatch.setattr(meta, "CHECK_PAIRS", budget)
    assert cli_outputs(calls, tmp_path / "budget") == default
    capsys.readouterr()


def env3_ucb_cell(mode, n=20_000, b=10, reps=16):
    """The ``_run_cell`` group of one env3 ucb cell of ``mode``."""
    cfg = small_config(envs=("env3",), n=n, batch_sizes=(b,), reps=reps, mode=mode)
    return (cfg, "ucb", b, UcbPolicy(2), True, ["env3"])


@pytest.mark.parametrize("mode", MODES)
def test_a_sweep_cell_holds_o_reps_times_chunk_memory_in_every_mode(mode):
    # the delayed starts traced 13.0 and 17.1 MiB when they stored phase 1
    # and a whole phase-2 RunSet; the plain cell traces 1.2 MiB
    tracemalloc.start()
    try:
        (row,) = harness._run_cell(env3_ucb_cell(mode))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert row.curve_mean.shape == (20_000,)
    assert peak < 4 * 2**20


def test_a_certified_cell_at_256_reps_traces_about_a_plain_cells_memory():
    # the certification's check once held 256 boundaries of every open rep,
    # 12.0 MiB traced here against 3.5 MiB plain
    peaks = {}
    for mode in ("plain", "approx_delayed_start"):
        tracemalloc.start()
        try:
            harness._run_cell(env3_ucb_cell(mode, n=2000, b=10, reps=256))
            peaks[mode] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks["approx_delayed_start"] < peaks["plain"] + 2 * 2**20


@pytest.mark.parametrize("mode", ["delayed_start", "approx_delayed_start"])
def test_run_cell_calls_the_delayed_start_runners_by_their_harness_names(monkeypatch, mode):
    # the benchmark times the runners by wrapping these names
    calls = []
    name = f"{'approx_' if mode.startswith('approx') else ''}delayed_start_run"
    real = getattr(harness, name)

    def spy(*args, **kwargs):
        calls.append(kwargs["keep"])
        return real(*args, **kwargs)

    monkeypatch.setattr(harness, name, spy)
    harness._run_cell(env3_ucb_cell(mode, n=60, b=3, reps=2))
    assert len(calls) == 1 and calls[0] is not None
