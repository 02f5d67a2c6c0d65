"""Naive per-step references for the finite-armed run engine and replay.

Written from the policies' definitions, one step at a time, with no numpy
beyond the generator, the linear policies' ridge algebra and the
certification check: the engine and the replay evaluator must reproduce
them bit for bit.  Per batch a run draws the policy's randomness (TS: one
Beta draw per arm and step, in step-then-arm order; uniform:
``integers(0, k, size=b)``), then one uniform per step for the Bernoulli
rewards.  Replay makes one proposal per logged record, in record order;
the linear policies factor their ridge statistics afresh for every
proposal.  The estimated delayed start checks one rep's 1-D counts and
means at each boundary.
"""

import math

import numpy as np

from batchband.meta import check_phase


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


def reference_approx_delayed_start(means, n, b, seed, delta, c=1.0):
    """(tau, actions) of one rep of the estimated delayed start of UCB.

    Uniform play, ``integers(0, k, size=b)`` then ``random(b)`` per batch,
    until the first boundary ``t`` (0, b, ..., n) with ``t >= 2``, every
    arm pulled and ``check_phase`` passing on the rep's counts and means;
    from there UCB plays on the whole history.  ``tau`` is that ``t``, or
    None when phase 1 never ends."""
    rng = np.random.default_rng(seed)
    k = len(means)
    counts, sums = [0] * k, [0.0] * k
    tau, actions = None, []
    for t in range(0, n + 1, b):
        if tau is None and t >= 2 and min(counts) >= 1:
            mean_hat = [s / m for s, m in zip(sums, counts)]
            if not check_phase(np.array(counts, dtype=float), np.array(mean_hat), t, k, delta):
                tau = t
        if t == n:
            break
        if tau is None:
            batch = [int(a) for a in rng.integers(0, k, size=b)]
        else:
            batch = [_ucb_arm(counts, sums, t, c)] * b
        for a, u in zip(batch, rng.random(b)):
            actions.append(a)
            counts[a] += 1
            sums[a] += 1.0 if u < means[a] else 0.0
    return tau, actions


def _ridge_arm(name, feats, V, z, rng, alpha):
    """LinUCB or LinTS proposal from a fresh factoring of ``V``."""
    if name == "linucb":
        theta_hat = np.linalg.solve(V, z)
        Vinv = np.linalg.inv(V)
        widths = np.sqrt(np.einsum("kd,de,ke->k", feats, Vinv, feats))
        scores = feats @ theta_hat + alpha * widths
    else:
        Vinv = np.linalg.inv(V)
        chol = np.linalg.cholesky(Vinv)
        draw = Vinv @ z + rng.standard_normal((1, len(z))) @ chol.T
        scores = feats @ draw[0]
    return int(np.argmax(scores))


def reference_replay(name, k, data, b, seed, c=1.0, arm=0, good=0, bad=1,
                     switch_t=0, alpha=1.0, ridge_lambda=1.0):
    """(matched, successes) of replaying ``data`` with ``name`` at batch
    size ``b``: a record matches when the proposal equals its logged action,
    and every ``b`` matches are fed back together.  ``arm`` is the fixed
    arm; ``good``, ``bad`` and ``switch_t`` configure two-phase play; the
    linear policies place record ``i``'s context in arm ``a``'s block of a
    ``k * p`` feature vector."""
    rng = np.random.default_rng(seed)
    counts, sums = [0] * k, [0.0] * k
    alpha_post, beta_post = [1.0] * k, [1.0] * k
    linear = name in ("linucb", "lints")
    if linear:
        p = data.contexts.shape[1]
        V, z = ridge_lambda * np.eye(k * p), np.zeros(k * p)
    seen = matched = successes = 0
    pending = []
    for context, action, reward in zip(
        data.contexts, data.actions.tolist(), data.rewards.tolist()
    ):
        if linear:
            feats = np.zeros((k, k * p))
            for a in range(k):
                feats[a, a * p : (a + 1) * p] = context
            proposal = _ridge_arm(name, feats, V, z, rng, alpha)
        elif name == "ucb":
            proposal = _ucb_arm(counts, sums, seen, c)
        elif name == "ts":
            proposal = _ts_arm(alpha_post, beta_post, rng)
        elif name == "fixed":
            proposal = arm
        elif name == "two_phase":
            proposal = good if seen + 1 <= switch_t else bad
        else:
            proposal = int(rng.integers(0, k))
        if proposal != action:
            continue
        matched += 1
        successes += reward >= 0.5
        pending.append((feats[action] if linear else action, reward))
        if len(pending) == b:
            if linear:
                F = np.array([f for f, _ in pending])
                V += F.T @ F
                z += F.T @ np.array([r for _, r in pending])
            else:
                for a, reward in pending:
                    counts[a] += 1
                    sums[a] += reward
                    alpha_post[a] += reward
                    beta_post[a] += 1.0 - reward
            seen += b
            pending = []
    return matched, successes
