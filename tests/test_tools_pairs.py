"""The alternating-pairs protocol of the timing scripts in ``tools/``, the
summary of ``tools/bench_pairs.py``, and smoke runs of
``tools/time_replay.py``, ``tools/time_log_io.py``,
``tools/measure_memory.py``, ``tools/time_fast_paths.py``,
``tools/time_pool.py``, ``tools/time_check_bounds.py`` and
``tools/sandwich_table.py``; every other script in ``tools/`` fails
``test_every_tool_script_is_run_by_a_test``.

``tools/pairs.py`` is not part of the package, so it is loaded from its
file, as ``tests/test_bench_hooks.py`` loads the benchmark's files.
"""

import importlib.util
import inspect
import json
import os
import re
import statistics
import subprocess
import sys
import types
from pathlib import Path

import pytest

from batchband import bound_reports, run_experiment

TOOLS = Path(__file__).resolve().parents[1] / "tools"
SRC = TOOLS.parent / "src"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"_tools_{name}", TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


pairs = _load("pairs")
sys.modules.setdefault("pairs", pairs)  # as the scripts import it
bench_pairs = _load("bench_pairs")


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


def _bench_record(tree, seed, setups, refs, wall):
    """``tree``, whose ``.bench_results`` now holds one fake benchmark
    result of workload ``w``."""
    (tree / ".bench_results").mkdir(parents=True)
    record = {
        "result": {"correct": True, "metrics": {"wall_s": {"value": wall},
                                                "setup_s": {"value": 0.1}}},
        "detail": {"pass_wall_samples": [wall], "digests": {"a.csv": "x"},
                   "setup_samples": setups, "setup_ref_import_s": refs},
    }
    path = tree / ".bench_results" / f"w-seed{seed}-trace0.json"
    path.write_text(json.dumps(record))
    return str(tree)


def test_bench_pairs_records_raw_setup_times_and_their_medians(tmp_path, monkeypatch):
    monkeypatch.setattr(bench_pairs.subprocess, "run", lambda *a, **kw: None)
    sides = {"parent": ([0.3, 0.2, 0.4], [0.05, 0.04, 0.06]),
             "change": ([0.1, 0.2, 0.15], [0.07, 0.06, 0.05])}
    runs = {side: [bench_pairs.bench_run(_bench_record(tmp_path / f"{side}{seed}", seed, *[
        [x + seed for x in xs] for xs in sides[side]], wall=seed), "w", seed, 1.0)
        for seed in (0, 1)] for side in sides}
    assert runs["parent"][1]["raw_setup_s"] == [1.3, 1.2, 1.4]
    assert runs["change"][0]["raw_setup_ref_import_s"] == [0.07, 0.06, 0.05]
    entry = bench_pairs.summarise_workload(runs["parent"], runs["change"],
                                           {"wall_s": "lower", "setup_s": "lower"})
    assert entry["all_correct"] and entry["output_digests_equal_between_sides"]
    assert entry["raw_setup_s"]["parent"] == [[0.3, 0.2, 0.4], [1.3, 1.2, 1.4]]
    assert entry["raw_setup_ref_import_s"]["change"] == [[0.07, 0.06, 0.05],
                                                        [1.07, 1.06, 1.05]]
    # per side, the median over runs of each run's median
    unscaled = entry["setup_unscaled"]
    assert unscaled["setup_s"]["parent"]["values"] == [0.3, 1.3]
    assert unscaled["setup_s"]["change"]["median"] == statistics.median([0.15, 1.15])
    assert unscaled["setup_s"]["change_wins"] == "2/2"
    assert unscaled["setup_ref_import_s"]["parent"]["values"] == [0.05, 1.05]
    assert unscaled["setup_ref_import_s"]["change_wins"] == "0/2"
    assert entry["metrics"]["wall_s"]["change_wins"] == "0/2"


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


def test_measure_memory_runs_at_tiny_sizes(tmp_path):
    # both sides are this tree, and a swept chunk changes no output byte
    root = str(TOOLS.parent)
    out = tmp_path / "memory.json"
    subprocess.run([sys.executable, str(TOOLS / "measure_memory.py"), "--parent", root,
                    "--change", root, "--pairs", "2", "--smoke", "--chunks", "3",
                    "--out", str(out)], check=True, capture_output=True)
    record = json.loads(out.read_text())
    assert list(record["cases"]) == ["check-bounds ucb n=100000", "check-bounds ts n=2000",
                                     "check-assumptions n=4000", "check-assumptions n=20000",
                                     "simulate approx_delayed_start", "simulate delayed_start"]
    for case, entry in record["cases"].items():
        assert entry["same_bytes_on_every_side"]
        sides = ["change", "chunk=3"]
        if not case.endswith("20000"):
            sides.insert(0, "parent")
        assert list(entry["peak_mib"]) == sides
        assert all(len(entry["peak_mib"][side]["values"]) == 2 for side in sides)
        assert ("change_vs_parent" in entry) == ("parent" in sides)
    assert record["src_lines"]["parent"] == record["src_lines"]["change"] > 0


def test_fast_path_timings_run_at_tiny_sizes(tmp_path):
    # every path is forced off without changing a result, so each case's
    # sides must agree
    out = tmp_path / "fast_paths.json"
    subprocess.run([sys.executable, str(TOOLS / "time_fast_paths.py"), "--smoke",
                    "--out", str(out)],
                   check=True, capture_output=True, env=dict(os.environ, PYTHONPATH=str(SRC)))
    record = json.loads(out.read_text())
    for case in ("switches", "ucb_run_ahead", "pair_cells"):
        assert record[case]["results_equal"]
    workloads = {k: v["workload"] for k, v in record["switches"].items() if k != "results_equal"}
    assert workloads == {"AHEAD_CELLS": "certified_start", "_Certify.reduced": "certified_start",
                         "_SCALAR_BETA_MAX": "replay_log", "STACK_STEPS": "fig1_sweep"}
    assert record["ucb_run_ahead"]["calls_per_certified_start_iteration"]["run_ahead_reps"] > 0
    cells = [cell for key, cell in record["ucb_run_ahead"].items() if key.endswith("reps=32")]
    assert len(cells) == 4 and all(cell[label]["traced_peak_mib"] > 0 for cell in cells
                                   for label in ("off", "2**10", "2**12", "2**14"))
    assert all(record["pair_cells"][f"n={n}"][f"2**{e}"]["traced_peak_mib"] > 0
               for n in (300, 600) for e in (14, 16, 18, 20))


def test_pool_timings_run_at_tiny_sizes(tmp_path):
    out = tmp_path / "pool.json"
    subprocess.run([sys.executable, str(TOOLS / "time_pool.py"), "--parent", str(TOOLS.parent),
                    "--change", str(TOOLS.parent), "--n", "64", "--reps", "2", "--pairs", "2",
                    "--out", str(out)], cwd=TOOLS.parent, check=True, capture_output=True)
    record = json.loads(out.read_text())
    assert record["same_bytes"]
    for run in record["runs"]["parent"] + record["runs"]["change"]:
        # 84 cells over the caller and one worker, each ending within the call
        assert run["caller"]["cells"] + sum(w["cells"] for w in run["workers"]) == 84
        assert len(run["workers"]) <= 1
        assert max(w["end_s"] for w in [run["caller"], *run["workers"]]) <= run["wall_s"]
    assert set(record["summary"]) == {"wall_s", "caller_end_s", "last_worker_end_s",
                                      "caller_idle_s"}


def test_check_bounds_timings_run_at_tiny_sizes(tmp_path):
    # both sides are this tree, so their online and batch means must agree
    root = str(TOOLS.parent)
    out = tmp_path / "bounds.json"
    subprocess.run([sys.executable, str(TOOLS / "time_check_bounds.py"), "--parent", root,
                    "--change", root, "--pairs", "2", "--smoke", "--out", str(out)],
                   check=True, capture_output=True)
    record = json.loads(out.read_text())
    assert list(record["policies"]) == ["ucb", "ts"]
    for entry in record["policies"].values():
        assert entry["online_and_batch_means_equal_between_sides"]
        assert list(entry["verdicts"]["change"]) == ["2", "4"]
        assert len(entry["grid_s"]["change"]["values"]) == 2


def test_sandwich_table_writes_the_bound_reports_of_the_grid(tmp_path):
    # in-process: the grid at tiny sizes against bound_reports of the same table
    tool = _load("sandwich_table")
    out = tmp_path / "sandwich.json"
    assert tool.main(["--seed", "3", "--reps", "2", "--n", "64", "--out", str(out)]) == 0
    record = json.loads(out.read_text())
    assert (record["seed"], record["reps"]) == (3, 2)
    reports = bound_reports(run_experiment(tool.grid(64, 2, 3)))
    assert len(record["rows"]) == len(reports) == 72
    for row, report in zip(record["rows"], reports):
        assert (row["env"], row["policy"], row["b"], row["n"], row["M"]) == (
            report.env, report.policy, report.b, report.n, report.m)
        for iq in report.inequalities:
            got = row[iq.name]
            assert (got["lhs"], got["rhs"], got["stderr"], got["verdict"]) == (
                iq.lhs, iq.rhs, iq.stderr, iq.verdict)
            assert got["z"] == (iq.diff / iq.stderr if iq.stderr else None)
        assert row["bound_ratio"] == report.b * report.mean_m / report.mean_online
        assert row["batch_ratio"] == report.mean_batch / report.mean_online


def test_every_tool_script_is_run_by_a_test():
    # a test runs a script as a child, loads it, or calls a module this file
    # loaded from it; ``pairs.py`` is the scripts' library
    loaded = {m.__name__.removeprefix("_tools_"): name for name, m in globals().items()
              if isinstance(m, types.ModuleType) and m.__name__.startswith("_tools_")}
    sources = [inspect.getsource(test) for name, test in globals().items()
               if name.startswith("test_")]

    def run(stem):
        return any(f'TOOLS / "{stem}.py"' in source or f'_load("{stem}")' in source
                   or stem in loaded and re.search(rf"\b{loaded[stem]}\.\w+\(", source)
                   for source in sources)

    scripts = sorted(path.stem for path in TOOLS.glob("*.py"))
    assert [stem for stem in scripts if stem != "pairs" and not run(stem)] == []
