"""The alternating-pairs protocol shared by the timing scripts in ``tools/``.

A script times two sides, the parent and the change tree or two settings of
one tree, on a list of cases.  Pair ``i`` runs every case on both sides back
to back: the first, third, ... pair in the sides' given order, the others in
reverse, so that neither side always runs first.  A metric's summary holds
each side's values, median and quartiles (``statistics.quantiles(values,
n=4)``) and how many pairs one side won: strictly better in the metric's
direction, so a tie counts for neither side.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import platform
import statistics
import subprocess
import sys

import numpy as np


def run_pairs(pairs: int, cases, sides, run) -> dict:
    """``runs[case][side]``, the list of ``run(case, side, pair)`` results
    over ``pairs`` alternating pairs, in run order."""
    sides = tuple(sides)
    runs = {case: {side: [] for side in sides} for case in cases}
    for pair in range(pairs):
        for case in cases:
            for side in sides if pair % 2 == 0 else sides[::-1]:
                runs[case][side].append(run(case, side, pair))
        print(f"pair {pair + 1}/{pairs} done", file=sys.stderr)
    return runs


def summarise(values: list) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "values": values}


def wins(values: list, against: list, better: str = "lower") -> int:
    """Pairs in which ``values[i]`` beats ``against[i]`` strictly, where
    ``better`` (``"lower"`` or ``"higher"``) is the metric's direction."""
    if better == "lower":
        return sum(v < a for v, a in zip(values, against))
    return sum(v > a for v, a in zip(values, against))


def compare(parent: list, change: list, better: str = "lower") -> dict:
    """One metric over the pairs: each side's summary, the change's wins
    and the relative change of the medians."""
    return {
        "parent": summarise(parent),
        "change": summarise(change),
        "change_wins": f"{wins(change, parent, better)}/{len(parent)}",
        "median_change_frac": statistics.median(change) / statistics.median(parent) - 1,
    }


# child code that defines ``peak_mib()``, the calling process's peak resident
# set in MiB: ``VmHWM`` from /proc/self/status, which exec resets, or, where
# that file is missing, ``ru_maxrss``, which on Linux keeps the peak that the
# forking parent had reached when the child exec'd
PEAK_MIB = """
import resource
def peak_mib():
    try:
        with open("/proc/self/status") as fh:
            return next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:")) / 1024
    except (OSError, StopIteration):
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
"""


def run_child(tree: str, code: str, *args: str):
    """What ``code`` prints as JSON, run with ``args`` in a fresh Python
    process whose ``PYTHONPATH`` is the tree's ``src``."""
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"))
    proc = subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


def src_lines(tree: str) -> int:
    """The total of ``wc -l src/batchband/*.py`` in ``tree``."""
    total = 0
    for path in glob.glob(os.path.join(tree, "src", "batchband", "*.py")):
        with open(path, "rb") as fh:
            total += fh.read().count(b"\n")
    return total


def host() -> str:
    return (f"{os.cpu_count()} CPUs, Python {platform.python_version()}, "
            f"numpy {np.__version__}")


def order(what: str) -> str:
    """The recorded order of a parent-and-change run over ``what``s."""
    return (f"in each pair every {what} runs on both trees back to back; "
            "odd pairs run the parent first, even pairs the change first")


def tree_parser(doc: str, change: str | None = ".") -> argparse.ArgumentParser:
    """A parser of the flags every parent-and-change script takes;
    ``--change`` is required when ``change`` is None."""
    p = argparse.ArgumentParser(description=doc.split("\n\n")[0])
    p.add_argument("--parent", required=True, help="source tree of the parent commit")
    p.add_argument("--change", required=change is None, default=change,
                   help="source tree of the change")
    p.add_argument("--parent-commit", default="", help="recorded as given")
    p.add_argument("--out", required=True)
    return p


def write_json(record: dict, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
