"""The benchmark wraps package functions by name; every name must exist.

``bench/spans.py`` and ``bench/run_bench.py`` replace attributes looked up
as ``owner.__dict__[attr]``, so a refactor that renames or moves one of
them would make every benchmark run fail with a KeyError.  Every run also
starts with ``bench/checks.py``'s naive-UCB check, which must pass.
"""

import importlib.util
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"_bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def test_every_bench_hook_names_an_attribute_of_its_owner():
    points = [(owner, attr) for owner, attr, _span in _load("spans")._patch_points()]
    points += _load("run_bench").PieceTimer._points()
    missing = [f"{getattr(o, '__name__', o)}.{a}" for o, a in points if a not in vars(o)]
    assert points and not missing


def test_bench_correctness_check_passes():
    # every benchmark run starts with this check; a broken lone run fails them all
    cases = _load("run_bench").naive_cases(7, True)
    total, failed, problems = _load("checks").check_naive_ucb(cases)
    assert (total, failed) == (4, 0), problems
