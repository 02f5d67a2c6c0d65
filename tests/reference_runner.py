"""Naive per-step reference for the finite-armed run engine.

Written from the policies' definitions, one step at a time, with no numpy
beyond the generator: the engine must reproduce it bit for bit.  Per batch
a run draws the policy's randomness (TS: one Beta draw per arm and step, in
step-then-arm order; uniform: ``integers(0, k, size=b)``), then one uniform
per step for the Bernoulli rewards.
"""

import math

import numpy as np


def reference_run(name, means, n, b, seed, short=False, c=1.0, arm=0, switch_t=0):
    rng = np.random.default_rng(seed)
    k, best = len(means), max(means)
    counts, sums = [0] * k, [0.0] * k
    alpha, beta = [1.0] * k, [1.0] * k
    seen, total = 0, 0.0
    actions, regret = [], []
    for _ in range(n // b):
        if name == "ts":
            batch = []
            for _ in range(b):
                draws = [rng.beta(alpha[a], beta[a]) for a in range(k)]
                batch.append(draws.index(max(draws)))
        elif name == "uniform":
            batch = [int(a) for a in rng.integers(0, k, size=b)]
        else:
            if name == "ucb":
                pick = next((a for a in range(k) if counts[a] == 0), None)
                if pick is None:
                    bonus = 2.0 * math.log(seen + 1)
                    idx = [sums[a] / counts[a] + c * math.sqrt(bonus / counts[a]) for a in range(k)]
                    pick = idx.index(max(idx))
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
