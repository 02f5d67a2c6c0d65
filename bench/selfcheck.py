#!/usr/bin/env python3
"""Smoke run of every workload at minimal size, plus the benchmark contract.

Usage (from the repository root)::

    python3 bench/selfcheck.py

For each workload and trace mode it runs ``run_bench.py --smoke`` in a fresh
interpreter and asserts that the last stdout line is the result object,
that every operation passed, and that every metric ``BENCHMARK.json`` names
is emitted with its unit (end-to-end ones non-zero).  It also asserts that
``BENCHMARK.json`` matches the metric tables in ``run_bench.py`` and that
the benchmark fails, without printing a result, in a directory holding only
``BENCHMARK.json`` and ``bench/``.  Exit code 0 means every check passed.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run_bench

RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run(cmd, cwd) -> subprocess.CompletedProcess:
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def check_spec(spec) -> list[str]:
    errors = []
    e2e = [(d["name"], d["unit"], d["better"], d["bound"]) for d in spec["end_to_end"]]
    if e2e != list(run_bench.END_TO_END):
        errors.append("BENCHMARK.json end_to_end differs from run_bench.END_TO_END")
    layers = [(d["name"], d["unit"], d["better"]) for d in spec["per_layer"]]
    if layers != list(run_bench.PER_LAYER):
        errors.append("BENCHMARK.json per_layer differs from run_bench.PER_LAYER")
    if sorted(w["name"] for w in spec["workloads"]) != sorted(run_bench.WORKLOADS):
        errors.append("BENCHMARK.json workloads differ from run_bench.WORKLOADS")
    return errors


def check_result(spec, workload, trace, proc) -> list[str]:
    where = f"{workload} trace={trace}"
    if proc.returncode != 0:
        return [f"{where}: exit {proc.returncode}: {proc.stderr[-2000:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if set(result) != RESULT_KEYS:
        return [f"{where}: result keys {sorted(result)}"]
    errors = []
    if not (result["correct"] and result["failed"] == 0 and result["attempted"] >= 1):
        errors.append(f"{where}: not correct: {proc.stderr[-2000:]}")
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    if set(result["metrics"]) != {d["name"] for d in declared}:
        errors.append(f"{where}: metric names {sorted(result['metrics'])}")
    for d in declared:
        got = result["metrics"].get(d["name"])
        if got is None:
            continue
        if got["unit"] != d["unit"] or not isinstance(got["value"], (int, float)):
            errors.append(f"{where}: {d['name']} = {got}")
        elif not trace and got["value"] <= 0:
            errors.append(f"{where}: end-to-end {d['name']} is {got['value']}")
    return errors


def check_bare_directory(root: Path) -> list[str]:
    """Only BENCHMARK.json and bench/: the run must fail and print no result."""
    work = root / ".bench_run"
    work.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=work))
    try:
        shutil.copy(root / "BENCHMARK.json", bare)
        shutil.copytree(root / "bench", bare / "bench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run([sys.executable, "bench/run_bench.py", "--workload", "fig1_sweep",
                    "--seed", "1", "--seconds", "1", "--trace", "0"], bare)
    finally:
        shutil.rmtree(bare)
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        return [f"bare directory: exit {proc.returncode}, stdout {proc.stdout[-500:]!r}"]
    return []


def main() -> int:
    root = run_bench.ROOT
    spec = json.loads((root / "BENCHMARK.json").read_text())
    errors = check_spec(spec)
    for workload in sorted(run_bench.WORKLOADS):
        for trace in (0, 1):
            proc = run([sys.executable, "bench/run_bench.py", "--workload", workload,
                        "--seed", "7", "--seconds", "1", "--trace", str(trace),
                        "--smoke"], root)
            errs = check_result(spec, workload, trace, proc)
            print(f"{workload} trace={trace}: {'ok' if not errs else 'FAIL'}")
            errors += errs
    errors += check_bare_directory(root)
    for e in errors:
        print(f"error: {e}", file=sys.stderr)
    print("selfcheck passed" if not errors else f"selfcheck failed: {len(errors)} error(s)")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
