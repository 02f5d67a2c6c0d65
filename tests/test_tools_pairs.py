"""The alternating-pairs protocol of the timing scripts in ``tools/``, and
smoke runs of ``tools/time_replay.py``, ``tools/time_log_io.py`` and
``tools/sweep_scalar_beta.py``.

``tools/pairs.py`` is not part of the package, so it is loaded from its
file, as ``tests/test_bench_hooks.py`` loads the benchmark's files.
"""

import importlib.util
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parents[1] / "tools"
SRC = TOOLS.parent / "src"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"_tools_{name}", TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


pairs = _load("pairs")


def test_pairs_alternate_which_side_runs_first():
    calls = []
    runs = pairs.run_pairs(3, ["a", "b"], {"parent": 0, "change": 1},
                           lambda case, side, pair: calls.append((pair, case, side)) or pair)
    assert calls == [
        (0, "a", "parent"), (0, "a", "change"), (0, "b", "parent"), (0, "b", "change"),
        (1, "a", "change"), (1, "a", "parent"), (1, "b", "change"), (1, "b", "parent"),
        (2, "a", "parent"), (2, "a", "change"), (2, "b", "parent"), (2, "b", "change"),
    ]
    # each side's results are in pair order, whichever side ran first
    assert runs == {case: {"parent": [0, 1, 2], "change": [0, 1, 2]} for case in "ab"}


@pytest.mark.parametrize("better, expected", [("lower", 1), ("higher", 2)])
def test_only_strict_wins_count_in_the_metrics_direction(better, expected):
    change, parent = [1.0, 2.0, 3.0, 4.0], [2.0, 2.0, 1.0, 0.5]  # one tie
    assert pairs.wins(change, parent, better) == expected
    summary = pairs.compare(parent, change, better)
    assert summary["change_wins"] == f"{expected}/4"
    assert summary["median_change_frac"] == statistics.median(change) / 1.5 - 1


def test_summary_holds_median_and_quartiles():
    summary = pairs.summarise([5.0, 1.0, 4.0, 2.0, 3.0])
    assert summary == {"median": 3.0, "q1": 1.5, "q3": 4.5, "values": [5.0, 1.0, 4.0, 2.0, 3.0]}


def test_src_lines_counts_the_package_modules(tmp_path):
    package = tmp_path / "src" / "batchband"
    package.mkdir(parents=True)
    (package / "a.py").write_text("x = 1\ny = 2\n")
    (package / "b.py").write_text("z = 3\n")
    (package / "notes.txt").write_text("not a module\n")
    assert pairs.src_lines(str(tmp_path)) == 3


def test_time_replay_runs_at_tiny_sizes(tmp_path):
    # both sides are this tree, so every call must return the same result
    root = str(TOOLS.parent)
    out = tmp_path / "replay.json"
    subprocess.run([sys.executable, str(TOOLS / "time_replay.py"), "--parent", root,
                    "--change", root, "--pairs", "2", "--smoke", "--out", str(out)],
                   check=True, capture_output=True)
    record = json.loads(out.read_text())
    replays = [f"{name} b={b}" for name in ("ucb", "ts", "uniform", "linucb", "lints")
               for b in (1, 50)] + [f"ts env4 b={b}" for b in (1, 7, 50)]
    assert list(record["calls"]) == replays + [
        "lone ucb n=50", "lone ts n=50", "criterion4 2 runs n=100"] + [
        f"linear {name} b={b}" for name in ("linucb", "lints") for b in (1, 10)]
    for entry in record["calls"].values():
        assert entry["results_equal_between_sides"]
        assert len(entry["s"]["parent"]["values"]) == len(entry["s"]["change"]["values"]) == 2
    assert record["src_lines"]["parent"] == record["src_lines"]["change"] > 0


def test_time_log_io_runs_at_tiny_sizes(tmp_path):
    # both sides are this tree, so every case must write, read and replay
    # the same bytes
    root = str(TOOLS.parent)
    out = tmp_path / "log_io.json"
    subprocess.run([sys.executable, str(TOOLS / "time_log_io.py"), "--parent", root,
                    "--change", root, "--pairs", "2", "--smoke", "--out", str(out)],
                   check=True, capture_output=True)
    record = json.loads(out.read_text())
    assert list(record["cases"]) == [f"{what} {log}" for log in ("env1", "linear")
                                     for what in ("write", "read", "replay")]
    for entry in record["cases"].values():
        assert entry["same_bytes_on_every_side"]
        assert len(entry["peak_mib"]["change"]["values"]) == 2
    assert record["src_lines"]["parent"] == record["src_lines"]["change"] > 0


def test_scalar_beta_sweep_runs_at_tiny_sizes(tmp_path):
    # every value of the switch draws the same variates, so every result holds
    out = tmp_path / "sweep.json"
    subprocess.run([sys.executable, str(TOOLS / "sweep_scalar_beta.py"), "--smoke",
                    "--rounds", "2", "--values", "1,12,1000000000", "--out", str(out)],
                   check=True, capture_output=True, env=dict(os.environ, PYTHONPATH=str(SRC)))
    record = json.loads(out.read_text())
    assert record["results_equal_across_values"]
    assert list(record["by_value"]) == ["1", "12", "1000000000"]
    for entry in record["by_value"].values():
        assert len(entry["case_s"]) == 8
        assert len(entry["caller_rounds_s"]["replay"]["values"]) == 2
