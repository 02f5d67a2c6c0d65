"""In-memory span tracer installed from outside the package.

``Tracer.install()`` replaces selected batchband functions and methods with
timing wrappers at the names their callers look up (module globals and
class attributes), and ``uninstall()`` puts the originals back.  Nothing in
``src/`` changes.  Each span records its name, start, end, parent span and
operation id; an operation is one harness cell, one bound check or one
replay evaluation, and every span started inside it shares its id.

Self time is a span's duration minus the time its child spans cover.  The
run is single-threaded while tracing, so children nest inside their parent
and never overlap; ``summary()`` checks that and reports any violation.
"""

from __future__ import annotations

import time
from array import array

import numpy as np

# Spans with these names start a new operation.
OPERATION_ROOTS = ("harness.cell", "harness.bounds", "replay.evaluate")


def _patch_points():
    """(owner, attribute, span name) for every wrapped call site."""
    import batchband.cli as cli
    import batchband.environments as environments
    import batchband.harness as harness
    import batchband.meta as meta
    import batchband.policies as policies
    import batchband.replay as replay

    points = [
        (cli, "main", "cli.main"),
        (cli, "run_experiment", "harness.run_experiment"),
        (cli, "check_theorem_bounds", "harness.bounds"),
        (cli, "read_logged_csv", "environments.csv_read"),
        (cli, "replay_evaluate", "replay.evaluate"),
        (cli, "write_replay_csv", "replay.csv_write"),
        (cli, "make_policy", "policies.make"),
        (cli, "derive_seed", "core.derive_seed"),
        (cli, "table_to_plot_data", "plotting.svg"),
        (cli, "write_plot_svg", "plotting.svg"),
        (harness, "_run_cell", "harness.cell"),
        (harness, "run_batch", "specifications.run"),
        (harness, "run_online", "specifications.run"),
        (harness, "delayed_start_run", "meta.run"),
        (harness, "approx_delayed_start_run", "meta.run"),
        (harness, "make_policy", "policies.make"),
        (harness, "derive_seed", "core.derive_seed"),
        (harness.RegretTable, "to_results_csv", "harness.csv_write"),
        (harness.RegretTable, "to_curves_csv", "harness.csv_write"),
        (meta, "check_phase", "meta.check"),
        (meta, "pessimistic_instance", "meta.pessimistic"),
        (environments.BernoulliEnv, "sample_rewards", "environments.sample"),
        (replay, "block_features", "environments.features"),
    ]
    for obj in vars(policies).values():
        if (
            isinstance(obj, type)
            and issubclass(obj, policies.BasePolicy)
            and obj is not policies.BasePolicy
        ):
            for attr, name in (("act_batch", "policies.act"), ("update_arrays", "policies.update")):
                if attr in obj.__dict__:
                    points.append((obj, attr, name))
    return points


class Tracer:
    """Span recorder; wrappers append to flat arrays, analysis happens later."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_of = array("q")
        self.parent = array("q")
        self.op = array("q")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._n_ops = 0
        self._saved: list = []

    def _wrap(self, name: str, fn):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        nid = self._name_ids[name]
        is_root = name in OPERATION_ROOTS
        name_of, parent_of, op_of = self.name_of, self.parent, self.op
        starts, ends, stack = self.start, self.end, self._stack
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            idx = len(starts)
            parent = stack[-1]
            if is_root:
                tracer._n_ops += 1
                op = tracer._n_ops
            else:
                op = op_of[parent] if parent >= 0 else 0
            name_of.append(nid)
            parent_of.append(parent)
            op_of.append(op)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for owner, attr, name in _patch_points():
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def summary(self) -> dict:
        """Per-name call counts, total and self seconds, plus consistency checks.

        ``self_s_total`` is the sum of every span's self time, which the
        caller compares with a wall time it measured itself;
        ``nesting_errors`` counts children that leave their parent's
        interval.
        """
        start = np.array(self.start, dtype=float)
        end = np.array(self.end, dtype=float)
        parent = np.array(self.parent, dtype=np.int64)
        name = np.array(self.name_of, dtype=np.int64)
        op = np.array(self.op, dtype=np.int64)
        n = start.size
        dur = end - start
        has_parent = parent >= 0
        child_cover = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
        self_s = dur - child_cover
        p = parent[has_parent]
        nesting_errors = int(
            np.count_nonzero(start[has_parent] < start[p])
            + np.count_nonzero(end[has_parent] > end[p])
        )
        out = {}
        for nid, nm in enumerate(self.names):
            sel = name == nid
            out[nm] = {
                "calls": int(np.count_nonzero(sel)),
                "s": float(dur[sel].sum()),
                "self_s": float(self_s[sel].sum()),
            }
        return {
            "spans": n,
            "operations": int(np.unique(op[op > 0]).size),
            "by_name": out,
            "self_s_total": float(self_s.sum()),
            "nesting_errors": nesting_errors,
        }

    def write(self, path) -> None:
        """Dump every span as CSV: id, name, parent, op, start, end."""
        n = len(self.start)
        with open(path, "w") as fh:
            fh.write("id,name,parent,op,start,end\n")
            for i in range(n):
                fh.write(
                    f"{i},{self.names[self.name_of[i]]},{self.parent[i]},"
                    f"{self.op[i]},{self.start[i]!r},{self.end[i]!r}\n"
                )

