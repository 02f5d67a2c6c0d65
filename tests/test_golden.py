"""Pinned output bytes and exit codes of small CLI runs.

Every rep's generator is consumed in a fixed order (README, "Seed
contract"), whatever the engine does to run reps together, so these bytes
may change only with a deliberate change of the random streams or of a
reduction, which must say so and re-pin them.
"""

import contextlib
import hashlib
import io
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from batchband.cli import main
from batchband.core import make_grid
from batchband.environments import (
    make_linear_env,
    preset,
    synth_logged_dataset,
    write_logged_csv,
)
from batchband.policies import LinTsPolicy, LinUcbPolicy
from batchband.specifications import run_batch

SIM = ["--threads", "1"]
DELAYED = ["--policy", "ucb", "--env", "env1,env3", "--n", "600", "--b", "1,10",
           "--reps", "5", "--seed", "8", *SIM]

CASES = {
    "plain": (
        ["simulate", "--env", "env1,env6", "--policy", "ucb,ts,uniform,two_phase",
         "--n", "120", "--b", "1,3,8", "--reps", "6", "--seed", "5", "--plot", *SIM],
        0,
        {"results.csv": "4a7fcfd3422f2d9d665c87bfded3aae2be38489f959d398832310157bb70aab9",
         "curves.csv": "8ffb3117d27b40d3ec2537fb121f53d82d0b71ae87bd8d2cf31621011f082fdc",
         "plot.svg": "73ffa52273540f1a912b4ddba19cdc8a299a2f7e0000ab5bec98139dd3f2ce62"},
    ),
    "delayed_start": (
        ["simulate", "--mode", "delayed_start", *DELAYED],
        0,
        {"results.csv": "6e03bc3fc46c497b42591818d51257ce07bfd2e9afe739a56d409ad186d8d7c0",
         "curves.csv": "fbac78673dcb8cf81f212a62e6be51f23d8255c9b589f8e7a8e415cef097b108"},
    ),
    "approx_delayed_start": (
        ["simulate", "--mode", "approx_delayed_start", *DELAYED],
        0,
        {"results.csv": "04828ef2b82b28c15ffd370fd21457bc2a123371c8461a808efe0dd84d6fb868",
         "curves.csv": "e248a04af1f5274a56d43849d496507a3c079e55fe6499fae3089529f2c7f355"},
    ),
}
BOUNDS = {
    "ucb": "198d2a463cef6f8719925c48ad7118877c450c3f54c61c4b389553f320e965da",
    "ts": "1fa0984385aea7596b38db688a5f43e1b0e0bbe1040766cf768605345468e75c",
}
for _policy, _digest in BOUNDS.items():
    for _threads in ("1", "2"):
        CASES[f"bounds-{_policy}-threads{_threads}"] = (
            ["check-bounds", "--policy", _policy, "--env", "env1", "--n", "200",
             "--b", "5", "--reps", "24", "--seed", "4", "--threads", _threads],
            0,
            {"bounds.csv": _digest},
        )
# regret curves, rule traces, the informativeness probe, the envelope check
# (ucb only) and the b-fold reversal
ASSUMPTIONS = {
    "ucb": (0, "6436607f2b42ffe92eac335697e26f51bfc735d2a07174397343a5a671ba6b23"),
    "ts": (1, "8b8d1d98ac261adb4098964851612493a923a4dde65573397c2f113de2b182be"),
    "uniform": (0, "74f6d51c80335f2963811f96c2e38577407961ce062ab63fa7e33dd3dc9da70a"),
    "two_phase": (1, "a201d85060755196743cc158a9da8fa23b1a77e89c4696eae4756a399c4a4e21"),
}
for _policy, (_code, _digest) in ASSUMPTIONS.items():
    CASES[f"assumptions-{_policy}"] = (
        ["check-assumptions", "--policy", _policy, "--env", "env6", "--n", "160",
         "--b", "8", "--reps", "12", "--seed", "3"],
        _code,
        {"assumptions.csv": _digest},
    )


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_bytes_are_pinned(name, tmp_path):
    argv, code, digests = CASES[name]
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv + ["--out-dir", str(tmp_path)]) == code
    got = {f: hashlib.sha256((tmp_path / f).read_bytes()).hexdigest() for f in digests}
    assert got == digests


# logged data synthesised in the test: (log, replay policies, batch sizes,
# log.csv digest, replay.csv digest)
REPLAY = {
    "env1": ("env1", "ucb,ts,uniform", "1,3,50",
             "3e71572573313c95a82e46034cf6bca9077f72984418e0888185a304f601a17a",
             "e88fb00771ed3726a5fb70714a69db01d1ed3a199b66bf98a5091674fbcb94de"),
    "linear": ("linear", "linucb,lints", "1,50",
               "e45d2a4031f15f5f2cc8233b31349db5bbf376d73cf13f4c8a4548ddf5109612",
               "eb5d546c4b31985b3b62709f2a388f654fa837c91a23c01a6ee34b48a2c71a22"),
}


def _write_log(kind, path):
    if kind == "env1":
        env, rows = preset("env1"), 3000
    else:
        env, rows = make_linear_env(4, 5, seed=2), 1200
    write_logged_csv(synth_logged_dataset(env, rows, seed=19), path)


@pytest.mark.parametrize("name", sorted(REPLAY))
def test_replay_output_bytes_are_pinned(name, tmp_path):
    kind, policies, batches, log_digest, digest = REPLAY[name]
    log = tmp_path / "log.csv"
    _write_log(kind, log)
    assert hashlib.sha256(log.read_bytes()).hexdigest() == log_digest
    argv = ["replay", "--data", str(log), "--policy", policies, "--b", batches,
            "--seed", "6", "--out-dir", str(tmp_path)]
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0
    assert hashlib.sha256((tmp_path / "replay.csv").read_bytes()).hexdigest() == digest


# lone contextual runs of the library API, online and batched, several seeds
LINEAR_RUNS = {
    "linucb": (LinUcbPolicy, "f74be1498d1ce64c2c507287abbd19fbe08a79396bad28fd881aec63c0721b22"),
    "lints": (LinTsPolicy, "1c79c1698d345efcb8ee68749a00c059cea27b7f4f9476cd7ebd2e55629f5a7f"),
}


def linear_runs_digest(policy_cls):
    env = make_linear_env(3, 2, seed=7)
    h = hashlib.sha256()
    for b in (1, 5):
        for seed in range(4):
            rec = run_batch(policy_cls(3, 2), env, make_grid(40, b), seed)
            for arr in (rec.actions, rec.pseudo_regret, rec.optimal_hits):
                h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(LINEAR_RUNS))
def test_contextual_library_runs_are_pinned(name):
    policy_cls, digest = LINEAR_RUNS[name]
    assert linear_runs_digest(policy_cls) == digest


# stdout of each demo, run as a script from the repository's own sources
ROOT = Path(__file__).resolve().parents[1]
DEMOS = {
    "assumption_audit": "5058e29c636a87c3e89459475eb26432bea13f603d43b2ebda12e38f7ce876d9",
    "batch_effect": "8b35642c60533196663ccd6c70f80f53392bdb60d59ba3614a763512a7928126",
    "delayed_start": "e8684eeb855045c8ff124e1d7a015324bef5f82e652d5a5ef2d689d046727e09",
    "offline_replay": "54bb547fb35d12e8abfed125f3f4168667ff180030df7838fe59e98389552ecd",
    "theorem_sandwich": "8240be822f16268c7936c41aace85a058e956d9854dd749d1d6b62300813d15e",
}


@pytest.mark.parametrize("name", sorted(DEMOS))
def test_demo_stdout_is_pinned(name):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, str(ROOT / "demos" / f"{name}.py")],
        env={**os.environ, "PYTHONPATH": path}, capture_output=True, check=True,
    ).stdout
    assert hashlib.sha256(out).hexdigest() == DEMOS[name]
