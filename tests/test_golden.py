"""Pinned output bytes and exit codes of small CLI runs.

Every generator, each rep's own and each cell's policy stream, is
consumed in a fixed order (README, "Seed contract"), whatever the engine
does to run reps together, so these bytes may change only with a
deliberate change of the random streams or of a reduction, which must say
so and re-pin them.
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
        {"results.csv": "a86989ec33e20b5b309412ff2abb7c42f1d08a88598bd24b652b54d2a5861044",
         "curves.csv": "201a83f538d78cc369dc78dd0afa4f6ffaf404ed7830c4d9390c9dfaa0c1a8cb",
         "plot.svg": "8b9aeead2fce11b7ecf3ceb21f061de0dc12fe583e76ace8e41110329609d7bb"},
    ),
    "delayed_start": (
        ["simulate", "--mode", "delayed_start", *DELAYED],
        0,
        {"results.csv": "c0d7d431543217b0a5b2ac031614bef1db79f5d5346d7adc4f87697312431a9f",
         "curves.csv": "16a9be19e33b7dad362c456381131a1ca7aa057e21e9ce85b0711bf16bd619ab"},
    ),
    "approx_delayed_start": (
        ["simulate", "--mode", "approx_delayed_start", *DELAYED],
        0,
        {"results.csv": "b51962cda6e364c6cf33684d7e37688318d4d3c5e173fea7d7e00ed4416f895b",
         "curves.csv": "79995a5166e8a19d4b27f8760ee0d77624962190af6329568597f1ac4cbb5f01"},
    ),
    # an inline env's label holds a comma, so the csv module quotes it
    "quoted_label": (
        ["simulate", "--env", "0.7,0.5;env3", "--policy", "ucb,ts", "--n", "60",
         "--b", "1,4", "--reps", "5", "--seed", "2", *SIM],
        0,
        {"results.csv": "7e9251c13814de5198d09a60a57dd09c137227f8b5da3b40cdf0243c561584d7",
         "curves.csv": "a2d074288ac55e878c9e365c9d81cee5ddd2a1e72ccc41989ad79b0d1f97aeb7"},
    ),
}
BOUNDS = {
    "ucb": "ce0dfda3680c7df97808dcd8e294e9a10378c69472b2db9914279e6cc70cb47c",
    "ts": "3f6fffd40da30976dc6ca5b69b394e21024b95ed4e1948f6d18754610b21740a",
}
for _policy, _digest in BOUNDS.items():
    for _threads in ("1", "2"):
        CASES[f"bounds-{_policy}-threads{_threads}"] = (
            ["check-bounds", "--policy", _policy, "--env", "env1", "--n", "200",
             "--b", "5", "--reps", "24", "--seed", "4", "--threads", _threads],
            0,
            {"bounds.csv": _digest},
        )
# the online cell's regret curve, rule trace, envelope check (ucb only) and
# b-fold reversal, all read off one run, and the informativeness probe
ASSUMPTIONS = {
    "ucb": (0, "a1913940c187adb21877bae237f1303b2e65b996a240e76bfd33a16a3bd0ea44"),
    "ts": (1, "522df9255964dd64e975bb24e64957c22b4e4fccada1b3eca74fdbab61fd14e7"),
    "uniform": (0, "850dc1788722b40b8dcc44bd8da24874155e41e6f63580458faf794d7106f0e7"),
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
    "assumption_audit": "14590e6a85e463918c753fed489ee848ef869a2d3f7d3d328a538e4664aa337a",
    "batch_effect": "d304e370aca49a285bf549d18226f9ca75717f6747ce4c03949845a877fcb107",
    "delayed_start": "9a3200e4e87f4888b60979f1280e8bc4dc26521c347ea71b4c7989289f50d8fa",
    "offline_replay": "54bb547fb35d12e8abfed125f3f4168667ff180030df7838fe59e98389552ecd",
    "theorem_sandwich": "a87615e9b97eebd645d19b6c353c9fdad7a03c030db97e8be4a8031709fd67ae",
}


@pytest.mark.parametrize("name", sorted(DEMOS))
def test_demo_stdout_is_pinned(name):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, str(ROOT / "demos" / f"{name}.py")],
        env={**os.environ, "PYTHONPATH": path}, capture_output=True, check=True,
    ).stdout
    assert hashlib.sha256(out).hexdigest() == DEMOS[name]
