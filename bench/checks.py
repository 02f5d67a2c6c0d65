"""Output checks for the benchmark workloads.

Every check is an invariant that holds for any correct implementation and
any seed, so a later change that alters the random streams still passes.
Each function returns ``(attempted, failed, problems)`` for the operations
whose output it judges: one cell, one bound check or one replay
evaluation.  ``naive_ucb_run`` is an independent per-step UCB written from
the policy's definition; the engine must reproduce it bit for bit.
"""

from __future__ import annotations

import csv
import math
from collections import defaultdict

import numpy as np

REL_TOL = 1e-9


def check_simulate(out_dir, cells, n, reps, mode, max_gaps):
    """Check results.csv and curves.csv of one ``simulate`` invocation.

    ``cells`` lists (env, policy, b) in configured order and ``max_gaps``
    maps env name to its largest gap.
    """
    problems = []
    with open(f"{out_dir}/results.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    curves = defaultdict(list)
    with open(f"{out_dir}/curves.csv", newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        for cell, t, mean, stderr in reader:
            curves[cell].append((int(t), float(mean), float(stderr)))
    if len(rows) != len(cells):
        problems.append(f"results.csv has {len(rows)} rows, expected {len(cells)}")
    failed = 0
    for i, (env, policy, b) in enumerate(cells):
        bad = _check_cell(rows[i] if i < len(rows) else None, curves, env, policy,
                          b, n, reps, mode, max_gaps[env])
        if bad:
            failed += 1
            problems.append(f"{env}|{policy}|b={b}: {bad}")
    if len(curves) != len(cells):
        problems.append(f"curves.csv has {len(curves)} cells, expected {len(cells)}")
        failed = len(cells)
    return len(cells), failed, problems


def _check_cell(row, curves, env, policy, b, n, reps, mode, max_gap):
    if row is None:
        return "missing row"
    n_cell = (n // b) * b
    label = policy if mode == "plain" else f"{mode}({policy})"
    expect = {"env": env, "policy": label, "spec": "online" if b == 1 else "batch",
              "b": str(b), "n": str(n_cell), "reps": str(reps)}
    for key, val in expect.items():
        if row[key] != val:
            return f"{key}={row[key]!r}, expected {val!r}"
    mean_final = float(row["mean_final_regret"])
    stderr = float(row["stderr_final_regret"])
    opt = float(row["mean_optimal_fraction"])
    if not 0.0 <= mean_final <= n_cell * max_gap:
        return f"mean_final {mean_final} outside [0, {n_cell * max_gap}]"
    if not (math.isfinite(stderr) and stderr >= 0.0):
        return f"stderr {stderr}"
    if not 0.0 <= opt <= 1.0:
        return f"opt_frac {opt}"
    if mode == "plain":
        if row["tau_hat_mean"] or row["tau_hat_none"]:
            return "plain cell reports tau_hat"
    else:
        none = int(row["tau_hat_none"])
        if not 0 <= none <= reps:
            return f"tau_hat_none {none}"
        if (row["tau_hat_mean"] == "") != (none == reps):
            return "tau_hat_mean presence disagrees with tau_hat_none"
        if row["tau_hat_mean"] and not 0.0 <= float(row["tau_hat_mean"]) <= n_cell:
            return f"tau_hat_mean {row['tau_hat_mean']}"
    curve = curves.get(f"{env}|{label}|{expect['spec']}|{b}")
    if curve is None or len(curve) != n_cell:
        return "curve missing or wrong length"
    ts = [c[0] for c in curve]
    means = np.array([c[1] for c in curve])
    ses = np.array([c[2] for c in curve])
    if ts != list(range(1, n_cell + 1)):
        return "curve t is not 1..n"
    if means[0] < 0.0 or np.any(np.diff(means) < 0.0):
        return "curve mean is negative or decreasing"
    if not np.all(np.isfinite(ses)) or np.any(ses < 0.0):
        return "curve stderr negative or non-finite"
    if abs(means[-1] - mean_final) > REL_TOL * max(abs(mean_final), 1e-300):
        return f"curve end {means[-1]!r} != mean_final {mean_final!r}"
    return None


def _verdict(diff: float, se: float) -> str:
    if se == 0.0:
        return "holds" if diff > 0 else ("boundary" if diff == 0.0 else "violated")
    if diff > 2 * se:
        return "holds"
    if diff < -2 * se:
        return "violated"
    return "inconclusive"


def check_bounds(out_dir, exit_code):
    """Check bounds.csv of one ``check-bounds`` invocation (one operation)."""
    with open(f"{out_dir}/bounds.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    bad = _check_bound_rows(rows, exit_code)
    return 1, int(bad is not None), [] if bad is None else [f"{out_dir}: {bad}"]


def _check_bound_rows(rows, exit_code):
    if [r["inequality"] for r in rows] != ["lower", "upper"]:
        return "expected rows lower, upper"
    gates = []
    for r in rows:
        lhs, rhs, se = float(r["lhs"]), float(r["rhs"]), float(r["stderr"])
        if not all(map(math.isfinite, (lhs, rhs, se))) or se < 0.0:
            return f"{r['inequality']}: non-finite or negative value"
        if lhs < 0.0 or rhs < 0.0:
            return f"{r['inequality']}: negative regret"
        diff = rhs - lhs
        if r["verdict"] != _verdict(diff, se):
            return f"{r['inequality']}: verdict {r['verdict']} for diff {diff!r} se {se!r}"
        gate = "pass" if diff >= -2 * se else "fail"
        if r["gate"] != gate:
            return f"{r['inequality']}: gate {r['gate']}, expected {gate}"
        gates.append(gate)
    if rows[0]["rhs"] != rows[1]["lhs"]:
        return "R_n(b) differs between the two inequalities"
    if exit_code != (0 if gates == ["pass", "pass"] else 1):
        return f"exit code {exit_code} disagrees with gates {gates}"
    return None


def check_replay(out_dir, n_records, labels):
    """Check replay.csv; ``labels`` lists the expected (policy, b) rows."""
    with open(f"{out_dir}/replay.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    problems = []
    failed = 0
    if [(r["policy"], int(r["b"])) for r in rows] != labels:
        problems.append(f"replay.csv rows {[(r['policy'], r['b']) for r in rows]}")
        return len(labels), len(labels), problems
    base_cr = float(rows[0]["cr"]) if rows[0]["policy"].startswith("baseline") else None
    for r in rows:
        matched, successes = int(r["matched"]), int(r["successes"])
        bad = None
        if not 0 <= successes <= matched <= n_records:
            bad = f"successes {successes} matched {matched} rows {n_records}"
        elif matched == 0:
            bad = "no record matched"
        else:
            cr = float(r["cr"])
            if not 0.0 <= cr <= 1.0 or cr != successes / matched:
                bad = f"cr {cr!r} != {successes}/{matched}"
            elif base_cr and r["relative_cr"] != repr(cr / base_cr):
                bad = f"relative_cr {r['relative_cr']} != {cr / base_cr!r}"
        if bad:
            failed += 1
            problems.append(f"{r['policy']} b={r['b']}: {bad}")
    return len(rows), failed, problems


def naive_ucb_run(means, n, b, seed, c=1.0):
    """UCB under batch feedback, one step at a time, from its definition.

    The arm for a whole batch comes from the statistics released before the
    batch: an unpulled arm first (lowest index), else the first maximiser of
    ``mean + c * sqrt(2 ln(t + 1) / pulls)`` with ``t`` the feedback seen.
    Rewards are ``u < mean`` for one uniform ``u`` per step, drawn batch by
    batch from ``default_rng(seed)``; regret accrues the arm's gap per step.
    """
    rng = np.random.default_rng(seed)
    k = len(means)
    best = max(means)
    counts = [0] * k
    sums = [0.0] * k
    seen = 0
    actions, regret, total = [], [], 0.0
    for _ in range(n // b):
        arm = next((a for a in range(k) if counts[a] == 0), None)
        if arm is None:
            bonus = 2.0 * math.log(seen + 1)
            scores = [sums[a] / counts[a] + c * math.sqrt(bonus / counts[a]) for a in range(k)]
            arm = scores.index(max(scores))
        for u in rng.random(b):
            reward = 1.0 if u < means[arm] else 0.0
            counts[arm] += 1
            sums[arm] += reward
            total += best - means[arm]
            actions.append(arm)
            regret.append(total)
        seen += b
    return actions, regret


def check_naive_ucb(cases):
    """Compare the engine with ``naive_ucb_run`` on (means, n, b, seed) cases."""
    from batchband import BernoulliEnv, UcbPolicy, make_grid, run_batch, run_online

    problems = []
    for means, n, b, seed in cases:
        env = BernoulliEnv(np.array(means))
        if b == 1:
            rec = run_online(UcbPolicy(len(means)), env, n, seed)
        else:
            rec = run_batch(UcbPolicy(len(means)), env, make_grid(n, b), seed)
        actions, regret = naive_ucb_run(means, n, b, seed)
        if rec.actions.tolist() != actions or rec.pseudo_regret.tolist() != regret:
            problems.append(f"naive UCB mismatch: means={means} n={n} b={b} seed={seed}")
    return len(cases), len(problems), problems
