"""Tests for the command-line interface: exit codes, files, determinism."""

from __future__ import annotations

import contextlib
import csv
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from batchband import cli, harness, specifications
from batchband.cli import main
from batchband.environments import (
    LoggedData,
    make_linear_env,
    preset,
    synth_logged_dataset,
    write_logged_csv,
)
from batchband.specifications import Readings

# a size numpy cannot index: each use of it must exit 2 before any run
HUGE = "1" + "0" * 400


@pytest.fixture
def logs(tmp_path):
    path = tmp_path / "logs.csv"
    write_logged_csv(synth_logged_dataset(preset("env1"), 2000, seed=4), path)
    return path


class TestSimulate:
    def test_writes_all_artifacts(self, tmp_path):
        rc = main(
            ["simulate", "--env", "env1", "--policy", "ucb", "--n", "40",
             "--b", "1,8", "--reps", "3", "--out-dir", str(tmp_path), "--plot"]
        )
        assert rc == 0
        assert (tmp_path / "results.csv").exists()
        assert (tmp_path / "curves.csv").exists()
        assert (tmp_path / "plot.svg").exists()
        lines = (tmp_path / "results.csv").read_text().strip().split("\n")
        assert len(lines) == 3

    def test_reruns_are_byte_identical(self, tmp_path):
        d1, d2 = tmp_path / "a", tmp_path / "b"
        flags = ["simulate", "--env", "env2", "--policy", "ts", "--n", "30",
                 "--b", "1,5", "--reps", "3", "--seed", "9", "--plot"]
        assert main(flags + ["--out-dir", str(d1)]) == 0
        assert main(flags + ["--out-dir", str(d2)]) == 0
        for name in ("results.csv", "curves.csv", "plot.svg"):
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes()

    def test_threads_do_not_change_bytes(self, tmp_path):
        d1, d2 = tmp_path / "t1", tmp_path / "t2"
        flags = ["simulate", "--env", "env1", "--policy", "ucb", "--n", "40",
                 "--b", "1,4", "--reps", "3", "--seed", "2"]
        assert main(flags + ["--threads", "1", "--out-dir", str(d1)]) == 0
        assert main(flags + ["--threads", "2", "--out-dir", str(d2)]) == 0
        assert (d1 / "results.csv").read_bytes() == (d2 / "results.csv").read_bytes()
        assert (d1 / "curves.csv").read_bytes() == (d2 / "curves.csv").read_bytes()

    def test_bad_env_exits_2(self, tmp_path):
        rc = main(["simulate", "--env", "envX", "--out-dir", str(tmp_path)])
        assert rc == 2

    def test_config_is_validated_once_after_the_threads_echo(
        self, tmp_path, monkeypatch, capsys
    ):
        calls = []
        validate = harness.ExperimentConfig.validate

        def spy(cfg):
            calls.append(capsys.readouterr().out)
            return validate(cfg)

        monkeypatch.setattr(harness.ExperimentConfig, "validate", spy)
        assert main(["simulate", "--n", "20", "--b", "5", "--reps", "2",
                     "--out-dir", str(tmp_path)]) == 0
        assert len(calls) == 1
        assert "# threads_resolved = " in calls[0]
        # a config error now comes after the echo
        assert main(["simulate", "--env", "envX", "--out-dir", str(tmp_path)]) == 2
        assert len(calls) == 2
        assert "# threads_resolved = " in calls[1]

    def test_approx_mode_fills_tau_columns(self, tmp_path):
        rc = main(
            ["simulate", "--env", "env3", "--policy", "ucb", "--n", "400",
             "--b", "100", "--reps", "2", "--mode", "approx_delayed_start",
             "--delta", "0.5", "--out-dir", str(tmp_path)]
        )
        assert rc == 0
        lines = (tmp_path / "results.csv").read_text().strip().split("\n")
        row = lines[1].split(",")
        assert row[1] == "approx_delayed_start(ucb)"
        assert row[-1] != ""

    def test_delta_and_bound_leave_oracle_delayed_start_unchanged(self, tmp_path):
        # only the certified start reads --delta and --bound
        outs = []
        for delta, bound in (("0.01", "instance"), ("0.05", "oracle")):
            d = tmp_path / bound
            assert main(["simulate", "--env", "env3", "--policy", "ucb", "--n", "400",
                         "--b", "10", "--reps", "8", "--mode", "delayed_start",
                         "--delta", delta, "--bound", bound, "--threads", "1",
                         "--out-dir", str(d)]) == 0
            outs.append([(d / f).read_bytes() for f in ("results.csv", "curves.csv")])
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("value,envs", [
        ("0.7,0.5", ["0.7,0.5"]),
        ("0.7,0.5;env3", ["0.7,0.5", "env3"]),
        ("env1,env6", ["env1", "env6"]),
        ("env3; 0.9,0.1,0.5 ;", ["env3", "0.9,0.1,0.5"]),
    ])
    def test_env_list_syntax(self, tmp_path, capsys, value, envs):
        rc = main(["simulate", "--env", value, "--n", "20", "--b", "5",
                   "--reps", "2", "--threads", "1", "--out-dir", str(tmp_path)])
        assert rc == 0
        with open(tmp_path / "results.csv", newline="") as fh:
            assert [row[0] for row in list(csv.reader(fh))[1:]] == envs
        sep = ";" if any("," in e for e in envs) else ","
        assert f"# env = {sep.join(envs)}" in capsys.readouterr().out

    @pytest.mark.parametrize("value", ["env1,0.5", "0.7,0.5;envX", ";", "0.7"])
    def test_bad_env_list_exits_2(self, tmp_path, value):
        rc = main(["simulate", "--env", value, "--n", "20", "--b", "5",
                   "--reps", "2", "--out-dir", str(tmp_path)])
        assert rc == 2

    @pytest.mark.parametrize("flags,message", [
        (["--policy", "ucb,fixed"], "fixed needs fixed_arm"),
        (["--mode", "delayed_start", "--env", "0.5,0.5"], "unique best arm"),
        (["--policy", "ucb", "--ucb-c", "nan"], "exploration constant"),
        (["--policy", "ucb", "--ucb-c", "inf"], "exploration constant"),
        (["--n", "abc"], "bad integer 'abc'"),
        (["--b", "1,x"], "bad integer list '1,x'"),
        (["--delta", "abc"], "bad number 'abc'"),
        (["--policy", "ts", "--ucb-c", "5"], "--ucb-c applies to ucb"),
        (["--policy", "ucb,ts", "--switch-t", "3"], "--switch-t applies to two_phase"),
        (["--policy", "two_phase", "--switch-t", "-1"], "switch_t must be non-negative"),
        (["--bound", "foo"], "bound_from must be 'instance' or 'oracle'"),
        (["--b", "0"], "batch size 0 must be >= 1"),
        (["--threads", "0"], "threads must be >= 1"),
        (["--n", HUGE], f"n must be at most {sys.maxsize}"),
        (["--policy", "two_phase", "--n", HUGE], f"n must be at most {sys.maxsize}"),
        (["--policy", "two_phase", "--switch-t", HUGE], "switch_t is too large for a float"),
        (["--reps", HUGE], f"reps must be at most {sys.maxsize}"),
    ])
    def test_unrunnable_cell_exits_2_before_any_cell_runs(
        self, tmp_path, capsys, monkeypatch, flags, message
    ):
        ran = []
        monkeypatch.setattr(harness, "_run_cell", ran.append)
        # the case's flags come last, so they override the defaults given here
        rc = main(["simulate", "--n", "20", "--b", "5", "--reps", "2",
                   "--threads", "1", "--out-dir", str(tmp_path), *flags])
        assert rc == 2
        assert message in capsys.readouterr().err
        assert ran == [] and not list(tmp_path.glob("*.csv"))

    def test_zero_threads_from_the_environment_exits_2_before_any_cell_runs(
        self, tmp_path, capsys, monkeypatch
    ):
        ran = []
        monkeypatch.setattr(harness, "_run_cell", ran.append)
        monkeypatch.setenv("BATCHBAND_THREADS", "0")
        rc = main(["simulate", "--n", "20", "--b", "5", "--reps", "2",
                   "--out-dir", str(tmp_path)])
        assert rc == 2
        assert "BATCHBAND_THREADS must be >= 1" in capsys.readouterr().err
        assert ran == [] and not list(tmp_path.glob("*.csv"))

    @pytest.mark.parametrize("flags,message", [
        (["--env", "env1,env1", "--policy", "ucb", "--b", "5"], "env 'env1' is given twice"),
        (["--env", "env1", "--policy", "ucb,ts,ucb", "--b", "5"], "policy 'ucb' is given twice"),
        (["--env", "env1", "--policy", "ucb", "--b", "1,1"], "batch size 1 is given twice"),
    ])
    def test_repeated_entry_exits_2_before_any_cell_runs(
        self, tmp_path, capsys, monkeypatch, flags, message
    ):
        ran = []
        monkeypatch.setattr(harness, "_run_cell", ran.append)
        rc = main(["simulate", *flags, "--n", "20", "--reps", "2", "--threads", "1",
                   "--out-dir", str(tmp_path)])
        assert rc == 2
        assert message in capsys.readouterr().err
        assert ran == [] and not list(tmp_path.glob("*.csv"))

    def test_echoes_resolved_config(self, tmp_path, capsys):
        main(["simulate", "--env", "env1", "--policy", "ucb", "--n", "20",
              "--b", "1", "--reps", "1", "--out-dir", str(tmp_path)])
        out = capsys.readouterr().out
        assert "# env = env1" in out
        assert "# n = 20" in out
        assert "# threads_resolved = " in out


class TestConfigFile:
    def test_file_values_used_and_flags_override(self, tmp_path):
        cfg = tmp_path / "run.ini"
        cfg.write_text(
            "[simulate]\nenv = env2\npolicy = ucb\nn = 30\nb = 1,5\n"
            "reps = 2\nseed = 3\n"
        )
        d = tmp_path / "out"
        rc = main(["simulate", "--config", str(cfg), "--n", "20",
                   "--out-dir", str(d)])
        assert rc == 0
        lines = (d / "results.csv").read_text().strip().split("\n")
        row = lines[1].split(",")
        assert row[0] == "env2"
        assert row[4] == "20"

    def test_env_list_from_file(self, tmp_path):
        cfg = tmp_path / "run.ini"
        cfg.write_text("[simulate]\nenv = 0.7,0.5;env3\nn = 20\nb = 5\nreps = 2\n")
        d = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--threads", "1",
                     "--out-dir", str(d)]) == 0
        with open(d / "results.csv", newline="") as fh:
            assert [row[0] for row in list(csv.reader(fh))[1:]] == ["0.7,0.5", "env3"]

    def test_unread_option_from_file_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "run.ini"
        cfg.write_text("[check-bounds]\npolicy = ts\nucb_c = 2\n")
        assert main(["check-bounds", "--config", str(cfg), "--out-dir", str(tmp_path)]) == 2
        assert "--ucb-c applies to ucb" in capsys.readouterr().err
        assert not (tmp_path / "bounds.csv").exists()

    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "run.ini"
        cfg.write_text("[simulate]\nbogus = 1\n")
        assert main(["simulate", "--config", str(cfg)]) == 2

    def test_missing_file_rejected(self, tmp_path):
        assert main(["simulate", "--config", str(tmp_path / "nope.ini")]) == 2

    def test_bad_boolean_rejected(self, tmp_path, capsys):
        # --plot is a switch, so only a file can give it a value to reject
        cfg = tmp_path / "run.ini"
        cfg.write_text("[simulate]\nplot = maybe\n")
        assert main(["simulate", "--config", str(cfg), "--out-dir", str(tmp_path)]) == 2
        assert "bad boolean 'maybe'" in capsys.readouterr().err
        assert not list(tmp_path.glob("*.csv"))


# two or more valid texts for each simulate field; a flag --plot is always True
SIMULATE_TEXTS = {
    "env": ["env2", "env1,env6", "0.7,0.5;env3"],
    "policy": ["ts", "ucb,uniform"],
    "n": ["20", "300"],
    "b": ["1,5", "8"],
    "reps": ["2", "7"],
    "seed": ["3", "11"],
    "mode": ["plain", "delayed_start"],
    "delta": ["0.05", "0.2"],
    "bound": ["oracle", "instance"],
    "ucb_c": ["0.5", "2"],
    "switch_t": ["10", "40"],
    "threads": ["1", "3"],
    "out_dir": ["out_a", "out b"],
    "plot": ["yes", "no", "true", "0"],
}


@st.composite
def simulate_sources(draw):
    """For each simulate field: where its value comes from, a file text and a flag text."""
    return {
        name: (draw(st.sampled_from(["flag", "file", "both", "default"])),
               draw(st.sampled_from(texts)), draw(st.sampled_from(texts)))
        for name, texts in SIMULATE_TEXTS.items()
    }


def test_simulate_texts_cover_every_field():
    assert set(SIMULATE_TEXTS) == {f.name for f in cli.SIMULATE_FIELDS}


@settings(max_examples=100, deadline=None)
@given(simulate_sources())
def test_flags_beat_file_values_and_file_values_beat_defaults(sources):
    lines, argv, want = ["[simulate]"], ["simulate"], {}
    for f in cli.SIMULATE_FIELDS:
        source, file_text, flag_text = sources[f.name]
        if source in ("file", "both"):
            lines.append(f"{f.name} = {file_text}")
        if source in ("flag", "both"):
            argv += [f"--{f.name.replace('_', '-')}"] + ([] if f.name == "plot" else [flag_text])
        if source == "default":
            want[f.name] = f.default
        elif source == "file":
            want[f.name] = f.conv(file_text)
        else:
            want[f.name] = True if f.name == "plot" else f.conv(flag_text)
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp, "run.ini")
        cfg.write_text("\n".join(lines) + "\n")
        args = cli.build_parser().parse_args(argv + ["--config", str(cfg)])
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli._resolve(args, cli.SIMULATE_FIELDS, "simulate") == want


class TestCheckBounds:
    def test_clean_policy_exits_0(self, tmp_path):
        rc = main(["check-bounds", "--policy", "ucb", "--env", "env1",
                   "--n", "100", "--b", "5", "--reps", "20",
                   "--out-dir", str(tmp_path)])
        assert rc == 0
        lines = (tmp_path / "bounds.csv").read_text().strip().split("\n")
        assert lines[0].startswith("inequality,")
        assert len(lines) == 3

    def test_single_rep_exits_2(self, tmp_path):
        # one rep has no standard error, so no verdict can be gated on it
        rc = main(["check-bounds", "--n", "100", "--b", "5", "--reps", "1",
                   "--out-dir", str(tmp_path)])
        assert rc == 2
        assert not (tmp_path / "bounds.csv").exists()

    def test_non_finite_env_exits_2(self, tmp_path):
        rc = main(["check-bounds", "--env", "nan,0.5", "--n", "100", "--b", "5",
                   "--reps", "4", "--out-dir", str(tmp_path)])
        assert rc == 2

    def test_batch_one_exits_2(self, tmp_path):
        assert main(["check-bounds", "--b", "1", "--out-dir", str(tmp_path)]) == 2

    def test_a_horizon_numpy_cannot_index_exits_2_before_any_run(
        self, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.setattr(harness, "_run_cell", lambda group: pytest.fail("a cell ran"))
        assert main(["check-bounds", "--n", HUGE, "--out-dir", str(tmp_path)]) == 2
        assert f"n must be at most {sys.maxsize}" in capsys.readouterr().err
        assert not (tmp_path / "bounds.csv").exists()

    @pytest.mark.parametrize("flags,message", [
        (["--policy", "ts", "--switch-t", "3"], "--switch-t applies to two_phase"),
        (["--policy", "two_phase", "--ucb-c", "2"], "--ucb-c applies to ucb"),
    ])
    def test_unread_option_exits_2_before_any_run(
        self, tmp_path, capsys, monkeypatch, flags, message
    ):
        monkeypatch.setattr(cli, "check_theorem_bounds", lambda *a, **kw: pytest.fail("ran"))
        rc = main(["check-bounds", *flags, "--out-dir", str(tmp_path)])
        assert rc == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "bounds.csv").exists()

    @pytest.mark.parametrize("policy", ["ucb", "ts"])
    def test_bounds_are_the_cells_that_simulate_writes(self, tmp_path, policy):
        # n=103 truncates to 100 at b=5, so M=20
        run = ["--policy", policy, "--env", "env1", "--n", "103", "--reps", "20", "--seed", "9"]
        assert main(["check-bounds", *run, "--b", "5", "--out-dir", str(tmp_path / "b")]) == 0
        assert main(["simulate", *run, "--b", "1,5", "--out-dir", str(tmp_path / "s")]) == 0

        def rows(path):
            with open(path, newline="") as fh:
                return list(csv.DictReader(fh))

        lower, upper = rows(tmp_path / "b" / "bounds.csv")
        batch = {r["b"]: r for r in rows(tmp_path / "s" / "results.csv")}["5"]
        curve = {(r["cell"], r["t"]): r for r in rows(tmp_path / "s" / "curves.csv")}
        r_n, r_m = (curve[f"env1|{policy}|online|1", t] for t in (batch["n"], "20"))
        assert batch["n"] == "100"
        assert [lower["lhs"], lower["rhs"], upper["lhs"]] == [
            r_n["mean"], batch["mean_final_regret"], batch["mean_final_regret"]]
        assert float(upper["rhs"]) == 5 * float(r_m["mean"])
        se_b = float(batch["stderr_final_regret"])
        assert float(lower["stderr"]) == np.hypot(se_b, float(r_n["stderr"]))
        assert float(upper["stderr"]) == np.hypot(5 * float(r_m["stderr"]), se_b)

    def test_pooled_run_writes_the_bytes_of_one_thread(self, tmp_path):
        # a check runs two cells, so two threads fork
        flags = ["check-bounds", "--policy", "ucb", "--env", "env1", "--n", "60",
                 "--b", "5", "--reps", "48", "--seed", "6"]
        d1, d2 = tmp_path / "t1", tmp_path / "t2"
        assert main(flags + ["--threads", "1", "--out-dir", str(d1)]) == 0
        assert main(flags + ["--threads", "2", "--out-dir", str(d2)]) == 0
        assert (d1 / "bounds.csv").read_bytes() == (d2 / "bounds.csv").read_bytes()

    def test_adversarial_two_phase_exits_1(self, tmp_path):
        rc = main(["check-bounds", "--policy", "two_phase", "--env", "env2",
                   "--n", "20", "--b", "5", "--reps", "2", "--switch-t", "8",
                   "--out-dir", str(tmp_path)])
        assert rc == 1
        text = (tmp_path / "bounds.csv").read_text()
        assert "lower" in text and "violated" in text


class TestCheckAssumptions:
    def test_ucb_defaults_pass(self, tmp_path):
        rc = main(["check-assumptions", "--policy", "ucb", "--env", "env1",
                   "--n", "200", "--reps", "40", "--out-dir", str(tmp_path)])
        assert rc == 0
        lines = (tmp_path / "assumptions.csv").read_text().strip().split("\n")
        assert lines[0] == "check,subject,verdict,statistic,ci_low,ci_high"
        checks = {line.split(",")[0] for line in lines[1:]}
        assert {"sublinearity", "informativeness", "monotone-envelope"} <= checks

    def test_single_rep_exits_2_before_any_check(self, tmp_path):
        rc = main(["check-assumptions", "--reps", "1", "--out-dir", str(tmp_path)])
        assert rc == 2
        assert not (tmp_path / "assumptions.csv").exists()

    @pytest.mark.parametrize("flags,message", [
        (["--b", "500"], "--b in 1..400, got 500"),
        (["--b", "0"], "--b in 1..400, got 0"),
        (["--min-t", "0"], "--min-t in 1..400, got 0"),
        (["--n", "200", "--min-t", "201"], "--min-t in 1..200, got 201"),
        (["--probe-t", "1"], "--probe-t >= 2, got 1"),
        (["--env", "env6", "--n", "4"], "--n above the arm count 4 for the averaging check, got 4"),
        (["--n", "2"], "--n above the arm count 2 for the averaging check, got 2"),
        (["--reps", "1"], "--reps >= 2 for standard errors, got 1"),
        (["--env", "0.5,0.5"], "bound needs a unique best arm"),
        (["--policy", "ts", "--ucb-c", "5"], "--ucb-c applies to ucb"),
        (["--switch-t", "3"], "--switch-t applies to two_phase"),
        (["--n", HUGE], f"--n at most {sys.maxsize}, the largest size numpy indexes"),
        (["--n", "60", "--reps", "3", "--probe-t", HUGE], f"--probe-t at most {sys.maxsize}"),
    ])
    def test_bad_flag_exits_2_before_any_check(
        self, tmp_path, capsys, monkeypatch, flags, message
    ):
        def no_check(*args, **kwargs):
            raise AssertionError("a check ran")

        monkeypatch.setattr(cli, "run_online", no_check)
        rc = main(["check-assumptions", *flags, "--out-dir", str(tmp_path)])
        assert rc == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "assumptions.csv").exists()

    @pytest.mark.parametrize("policy", ["ucb", "ts", "uniform", "two_phase"])
    def test_one_engine_run_serves_every_simulated_row(self, tmp_path, monkeypatch, policy):
        runs = []
        real = specifications.run_lockstep

        def spy(*args, **kwargs):
            runs.append(kwargs["keep"])
            return real(*args, **kwargs)

        monkeypatch.setattr(specifications, "run_lockstep", spy)
        assert main(["check-assumptions", "--policy", policy, "--env", "env3", "--n", "120",
                     "--reps", "20", "--out-dir", str(tmp_path)]) in (0, 1)
        (keep,) = runs
        assert isinstance(keep, Readings) and keep.groups == [(0, 20)]
        assert keep.cap == 120 and keep.steps.tolist() == [119, 14]

    @pytest.mark.parametrize("policy", ["ucb", "ts"])
    def test_sublinearity_reads_the_online_cell_of_simulate(self, tmp_path, policy):
        # one online cell per (env, policy, n, reps, seed): the sublinearity
        # row and check-bounds' R_n(online) are simulate's b=1 cell, bit for bit
        n = 120
        run = ["--policy", policy, "--env", "env3", "--n", str(n), "--reps", "20",
               "--seed", "11"]
        assert main(["simulate", *run, "--b", "1", "--out-dir", str(tmp_path / "s")]) == 0
        assert main(["check-bounds", *run, "--b", "6", "--out-dir", str(tmp_path / "b")]) == 0
        assert main(["check-assumptions", *run, "--min-t", "10",
                     "--out-dir", str(tmp_path / "a")]) in (0, 1)

        def rows(path):
            with open(path, newline="") as fh:
                return list(csv.DictReader(fh))

        (cell,) = rows(tmp_path / "s" / "results.csv")
        sub = {r["check"]: r for r in rows(tmp_path / "a" / "assumptions.csv")}["sublinearity"]
        lower = rows(tmp_path / "b" / "bounds.csv")[0]
        rate = float(cell["mean_final_regret"]) / n
        rate_se = float(cell["stderr_final_regret"]) / n
        assert float(sub["statistic"]) == rate
        assert [float(sub["ci_low"]), float(sub["ci_high"])] == [
            rate - 2 * rate_se, rate + 2 * rate_se]
        assert lower["lhs"] == cell["mean_final_regret"]

    def test_linear_regret_policy_exits_1(self, tmp_path):
        rc = main(["check-assumptions", "--policy", "two_phase", "--env", "env2",
                   "--n", "150", "--reps", "30", "--out-dir", str(tmp_path)])
        assert rc == 1
        text = (tmp_path / "assumptions.csv").read_text()
        assert "sublinearity" in text and "violated" in text


class TestReplay:
    def test_runs_and_writes_csv(self, tmp_path, logs):
        rc = main(["replay", "--data", str(logs), "--policy", "ucb",
                   "--b", "1,50", "--out-dir", str(tmp_path)])
        assert rc == 0
        lines = (tmp_path / "replay.csv").read_text().strip().split("\n")
        assert lines[0] == "policy,b,matched,successes,cr,relative_cr"
        assert len(lines) == 4
        assert lines[1].startswith("baseline(uniform),1,")

    def test_ucb_c_reaches_a_ucb_baseline(self, tmp_path, logs):
        rc = main(["replay", "--data", str(logs), "--policy", "ts", "--baseline", "ucb",
                   "--ucb-c", "2", "--out-dir", str(tmp_path)])
        assert rc == 0

    def test_baseline_none_skips_relative(self, tmp_path, logs):
        rc = main(["replay", "--data", str(logs), "--policy", "ucb",
                   "--b", "1", "--baseline", "none", "--out-dir", str(tmp_path)])
        assert rc == 0
        lines = (tmp_path / "replay.csv").read_text().strip().split("\n")
        assert len(lines) == 2
        assert lines[1].endswith(",")

    def test_contextual_policy_on_contextual_logs(self, tmp_path):
        path = tmp_path / "ctx.csv"
        write_logged_csv(
            synth_logged_dataset(make_linear_env(3, 4, seed=1), 600, seed=6), path
        )
        rc = main(["replay", "--data", str(path), "--policy", "linucb",
                   "--b", "4", "--out-dir", str(tmp_path)])
        assert rc == 0

    def test_non_finite_reward_exits_2(self, tmp_path, capsys):
        path = tmp_path / "log.csv"
        path.write_text("action,reward,logging_prob\n0,1.0,0.5\n1,nan,0.5\n")
        assert main(["replay", "--data", str(path), "--out-dir", str(tmp_path)]) == 2
        assert "line 3" in capsys.readouterr().err

    @pytest.mark.parametrize("text, flags, message", [
        ("", [], "empty logged-data file"),
        ("action,reward,logging_prob\n", [], "empty logged dataset"),
        ("action,reward,logging_prob\n0,1.0,0.5\n\n1,0.0,0.5\n5,1.0,0.5\n", [],
         "line 3: expected 3 fields, got 0"),
        ("action,reward,logging_prob\n0,1.0,0.5\n1,0.0,0.5\n5,1.0,0.5\n", [],
         "line 4: action out of range for k=2"),
        ("action,reward,logging_prob\n0,1.0,0.9\n1,0.0,0.1\n", [],
         "line 2: logging_prob 0.9 is not 1/k for any k >= 2"),
        ("action,reward,logging_prob\n1,1.0,0.1\n0,0.0,0.9\n", [],
         "line 3: logging_prob is not 1/k"),
        ("action,reward,logging_prob\n0,1.0,0.5\n1,1.5,0.5\n", ["--baseline", "ts"],
         "line 3: ts needs rewards in [0, 1]"),
        ("action,reward,logging_prob\n0,1.0,0.5\n1,1.5,0.5\n", ["--policy", "ucb,ts"],
         "line 3: ts needs rewards in [0, 1]"),
        # the CLI derives a linear policy's context width from the log
        ("action,reward,logging_prob\n0,1.0,0.5\n1,0.0,0.5\n", ["--policy", "linucb"],
         "linucb needs a context dimension"),
        # an empty --data overrides the test's own, as if none were given
        ("action,reward,logging_prob\n0,1.0,0.5\n", ["--data", ""],
         "replay needs --data"),
    ])
    def test_bad_log_exits_2_before_any_replay(
        self, tmp_path, monkeypatch, capsys, text, flags, message
    ):
        path = tmp_path / "log.csv"
        path.write_text(text)
        calls = []
        monkeypatch.setattr(cli, "replay_evaluate", lambda *a, **kw: calls.append(a))
        rc = main(["replay", "--data", str(path), *flags, "--out-dir", str(tmp_path)])
        assert rc == 2
        assert message in capsys.readouterr().err
        assert calls == []
        assert not (tmp_path / "replay.csv").exists()

    def test_non_uniform_log_exits_2_before_any_replay(self, tmp_path, monkeypatch, capsys):
        # logged 90/10; replaying it as if uniform reports the logging mix
        rng = np.random.default_rng(3)
        actions = (rng.random(4000) < 0.1).astype(np.int64)
        rewards = (rng.random(4000) < np.where(actions == 0, 0.7, 0.5)).astype(float)
        path = tmp_path / "skewed.csv"
        write_logged_csv(LoggedData(np.zeros((4000, 0)), actions, rewards,
                                    np.where(actions == 0, 0.9, 0.1)), path)
        calls = []
        monkeypatch.setattr(cli, "replay_evaluate", lambda *a, **kw: calls.append(a))
        rc = main(["replay", "--data", str(path), "--out-dir", str(tmp_path)])
        assert rc == 2
        assert "logging_prob" in capsys.readouterr().err
        assert calls == []
        assert not (tmp_path / "replay.csv").exists()

    def test_ts_baseline_on_gaussian_rewards_exits_2_before_any_replay(
        self, tmp_path, monkeypatch, capsys
    ):
        path = tmp_path / "ctx.csv"
        write_logged_csv(
            synth_logged_dataset(make_linear_env(3, 4, seed=1), 600, seed=6), path
        )
        calls = []
        monkeypatch.setattr(cli, "replay_evaluate", lambda *a, **kw: calls.append(a))
        rc = main(["replay", "--data", str(path), "--policy", "linucb",
                   "--baseline", "ts", "--out-dir", str(tmp_path)])
        assert rc == 2
        assert "ts needs rewards in [0, 1]" in capsys.readouterr().err
        assert calls == []

    def test_k_option_is_gone(self, tmp_path, logs, capsys):
        assert main(["replay", "--data", str(logs), "--k", "2",
                     "--out-dir", str(tmp_path)]) == 2
        assert "unrecognized arguments: --k 2" in capsys.readouterr().err

    def test_missing_data_exits_2(self, tmp_path):
        assert main(["replay", "--data", str(tmp_path / "no.csv")]) == 2

    def test_unknown_policy_exits_2(self, tmp_path, logs):
        assert main(["replay", "--data", str(logs), "--policy", "bogus"]) == 2

    @pytest.mark.parametrize("flags, message", [
        (["--policy", "ucb,fixed"], "fixed needs fixed_arm"),
        (["--policy", "ucb", "--baseline", "two_phase"], "two_phase needs environment means"),
        (["--policy", "ts", "--ucb-c", "2"], "--ucb-c applies to ucb"),
        (["--policy", "ts", "--baseline", "none", "--ucb-c", "2"], "--ucb-c applies to ucb"),
    ])
    def test_unbuildable_policy_exits_2_before_any_replay(
        self, tmp_path, logs, monkeypatch, capsys, flags, message
    ):
        calls = []
        monkeypatch.setattr(cli, "replay_evaluate", lambda *a, **kw: calls.append(a))
        rc = main(["replay", "--data", str(logs), *flags, "--out-dir", str(tmp_path)])
        assert rc == 2
        assert message in capsys.readouterr().err
        assert calls == []
        assert not (tmp_path / "replay.csv").exists()

    @pytest.mark.parametrize("flags, message", [
        (["--policy", "ucb,ucb", "--b", "1"], "policy 'ucb' is given twice"),
        (["--policy", "ucb", "--b", "1,3,1"], "batch size 1 is given twice"),
        (["--policy", "ucb", "--b", "1,0"], "must be >= 1"),
    ])
    def test_repeated_entry_exits_2_before_any_replay(
        self, tmp_path, logs, monkeypatch, capsys, flags, message
    ):
        calls = []
        monkeypatch.setattr(cli, "replay_evaluate", lambda *a, **kw: calls.append(a))
        rc = main(["replay", "--data", str(logs), *flags, "--out-dir", str(tmp_path)])
        assert rc == 2
        assert message in capsys.readouterr().err
        assert calls == []
        assert not (tmp_path / "replay.csv").exists()

    def test_reruns_byte_identical(self, tmp_path, logs):
        d1, d2 = tmp_path / "a", tmp_path / "b"
        flags = ["replay", "--data", str(logs), "--policy", "ts", "--b", "1,10",
                 "--seed", "5"]
        assert main(flags + ["--out-dir", str(d1)]) == 0
        assert main(flags + ["--out-dir", str(d2)]) == 0
        assert (d1 / "replay.csv").read_bytes() == (d2 / "replay.csv").read_bytes()


class TestPresetsAndPlot:
    def test_presets_lists_all(self, capsys):
        assert main(["presets"]) == 0
        out = capsys.readouterr().out
        for name in ("env1", "env2", "env3", "env4", "env5", "env6"):
            assert name in out

    def test_plot_roundtrip(self, tmp_path):
        assert main(["simulate", "--env", "env1", "--policy", "ucb,ts",
                     "--n", "24", "--b", "1,4", "--reps", "2",
                     "--out-dir", str(tmp_path)]) == 0
        svg = tmp_path / "p.svg"
        rc = main(["plot", "--curves", str(tmp_path / "curves.csv"),
                   "--out", str(svg)])
        assert rc == 0
        assert svg.read_text().startswith("<svg ")

    def test_plot_empty_exits_2(self, tmp_path):
        empty = tmp_path / "e.csv"
        empty.write_text("")
        assert main(["plot", "--curves", str(empty)]) == 2

    def test_plot_malformed_row_exits_2(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("cell,t,mean,stderr\nenv1|ucb|online|1,x,0.1,0.1\n")
        assert main(["plot", "--curves", str(bad)]) == 2

    @pytest.mark.parametrize("text, message", [
        ("cell,t,mean\nenv1|ucb|online|1,1,0.1\n",
         "row 1: expected header cell,t,mean,stderr, got ['cell', 't', 'mean']"),
        ("cell,t,mean,stderr\nenv1|ucb|online|1,1,0.1\n", "row 2: expected 4 columns, got 3"),
    ], ids=["wrong-header", "short-row"])
    def test_plot_bad_curves_exits_2_writing_nothing(self, tmp_path, capsys, text, message):
        curves, svg = tmp_path / "curves.csv", tmp_path / "plot.svg"
        curves.write_text(text)
        assert main(["plot", "--curves", str(curves), "--out", str(svg)]) == 2
        assert message in capsys.readouterr().err
        assert not svg.exists()


class TestParser:
    def test_no_subcommand_exits_2(self):
        assert main([]) == 2

    def test_unknown_flag_exits_2(self):
        assert main(["simulate", "--frobnicate"]) == 2

    def test_help_exits_0(self):
        assert main(["--help"]) == 0
        assert main(["simulate", "--help"]) == 0

    def test_unknown_subcommand_exits_2(self):
        assert main(["transmogrify"]) == 2


# runs in a fresh interpreter: which process-pool modules each step has loaded
POOL_PROBE = """
import json, sys
def loaded():
    return [m for m in ("concurrent.futures.process", "multiprocessing") if m in sys.modules]
out, steps = sys.argv[1], {}
import batchband
from batchband import cli
from batchband.environments import preset, synth_logged_dataset, write_logged_csv
steps["import"] = loaded()
cli.main(["simulate", "--n", "30", "--reps", "2", "--threads", "1", "--out-dir", out])
steps["simulate"] = loaded()
write_logged_csv(synth_logged_dataset(preset("env1"), 200, seed=1), out + "/logs.csv")
cli.main(["replay", "--data", out + "/logs.csv", "--b", "1,5", "--out-dir", out])
steps["replay"] = loaded()
cli.main(["check-bounds", "--n", "20", "--b", "5", "--reps", "48", "--threads", "2",
          "--out-dir", out])
steps["check-bounds --threads 2"] = loaded()
print(json.dumps(steps))
"""


def fresh_python(code: str, *args: str) -> str:
    """The stdout of ``code`` run with ``args`` in a fresh interpreter that
    imports this package's source tree."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    return subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True, check=True).stdout


def test_no_step_loads_the_process_pool_modules(tmp_path):
    # a forking run starts its workers with os.fork and pipes
    steps = json.loads(fresh_python(POOL_PROBE, str(tmp_path)).strip().splitlines()[-1])
    assert steps == {"import": [], "simulate": [], "replay": [],
                     "check-bounds --threads 2": []}


def test_importing_the_package_does_not_load_the_verifiers():
    # the sweep's reduction and verdict live in core and specifications, so
    # only the CLI and direct users load the assumption verifiers
    code = "import sys, batchband; print('batchband.assumptions' in sys.modules)"
    assert fresh_python(code).strip() == "False"
