"""Naive per-step references for the finite-armed run engine and replay.

Written from the policies' definitions, one step at a time, with no numpy
beyond the generator: the engine and the replay evaluator must reproduce
them bit for bit.  Per batch a run draws the policy's randomness (TS: one
Beta draw per arm and step, in step-then-arm order; uniform:
``integers(0, k, size=b)``), then one uniform per step for the Bernoulli
rewards.  Replay makes one proposal per logged record, in record order.
"""

import math

import numpy as np


def _ucb_arm(counts, sums, seen, c):
    pick = next((a for a in range(len(counts)) if counts[a] == 0), None)
    if pick is None:
        bonus = 2.0 * math.log(seen + 1)
        idx = [s / n + c * math.sqrt(bonus / n) for s, n in zip(sums, counts)]
        pick = idx.index(max(idx))
    return pick


def _ts_arm(alpha, beta, rng):
    draws = [rng.beta(alpha[a], beta[a]) for a in range(len(alpha))]
    return draws.index(max(draws))


def reference_run(name, means, n, b, seed, short=False, c=1.0, arm=0, switch_t=0):
    rng = np.random.default_rng(seed)
    k, best = len(means), max(means)
    counts, sums = [0] * k, [0.0] * k
    alpha, beta = [1.0] * k, [1.0] * k
    seen, total = 0, 0.0
    actions, regret = [], []
    for _ in range(n // b):
        if name == "ts":
            batch = [_ts_arm(alpha, beta, rng) for _ in range(b)]
        elif name == "uniform":
            batch = [int(a) for a in rng.integers(0, k, size=b)]
        else:
            if name == "ucb":
                pick = _ucb_arm(counts, sums, seen, c)
            elif name == "two_phase":
                good, bad = means.index(best), means.index(min(means))
                pick = good if seen + 1 <= switch_t else bad
            else:
                pick = arm
            batch = [pick] * b
        fed = 1 if short else b
        for i, (a, u) in enumerate(zip(batch, rng.random(b))):
            reward = 1.0 if u < means[a] else 0.0
            total += best - means[a]
            actions.append(a)
            regret.append(total)
            if i < fed:
                counts[a] += 1
                sums[a] += reward
                alpha[a] += reward
                beta[a] += 1.0 - reward
        seen += fed
    return actions, regret


def reference_replay(name, k, records, b, seed, c=1.0):
    """(matched, successes) of replaying ``records`` with ``name`` at batch
    size ``b``: a record matches when the proposal equals its logged action,
    and every ``b`` matches are fed back together."""
    rng = np.random.default_rng(seed)
    counts, sums = [0] * k, [0.0] * k
    alpha, beta = [1.0] * k, [1.0] * k
    seen = matched = successes = 0
    pending = []
    for rec in records:
        if name == "ucb":
            proposal = _ucb_arm(counts, sums, seen, c)
        elif name == "ts":
            proposal = _ts_arm(alpha, beta, rng)
        else:
            proposal = int(rng.integers(0, k))
        if proposal != rec.action:
            continue
        matched += 1
        successes += rec.reward >= 0.5
        pending.append((rec.action, rec.reward))
        if len(pending) == b:
            for a, reward in pending:
                counts[a] += 1
                sums[a] += reward
                alpha[a] += reward
                beta[a] += 1.0 - reward
            seen += b
            pending = []
    return matched, successes
