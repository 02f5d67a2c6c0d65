"""Naive per-step references for the run engine and replay.

Written from the policies' definitions, one step at a time, with no numpy
beyond the generators, the linear policies' ridge algebra, the linear
model's contexts and means and the certification check: the engine and
the replay evaluator must reproduce them bit for bit.  A finite-armed run's
reps form one cell.  Each rep draws its reward uniforms from
``default_rng(seed)``, one per step.  Uniform play draws one ``integers(0,
k)`` per step from the rep's own ``default_rng(derive_seed("policy",
seed))``.  TS draws batch ``j`` from a fresh
``default_rng(derive_seed("policy", seeds[0]))`` advanced ``j * STRIDE``
draws: for every rep in rep order, one Beta per step and arm, in
step-then-arm order.
The linear policies keep dense ``k * p`` ridge statistics, in the
disjoint model's block layout, and factor them afresh for every proposal,
in runs and in replay.  Replay makes one proposal per logged record, in
record order, on one generator.  A two-phase run asks at each boundary
whether a rep hands over; the estimated delayed start checks one rep's
1-D counts and means there.
"""

import math

import numpy as np

from batchband.core import derive_seed
from batchband.meta import check_phase

STRIDE = 2**40


def _batch_generator(seeds, j):
    """TS's generator for batch ``j`` of the cell ``seeds``."""
    gen = np.random.default_rng(derive_seed("policy", seeds[0]))
    gen.bit_generator.advance(j * STRIDE)
    return gen


def _own_generators(seeds):
    """Each rep's reward generator and its uniform play's generator."""
    return ([np.random.default_rng(s) for s in seeds],
            [np.random.default_rng(derive_seed("policy", s)) for s in seeds])


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


def reference_run(name, means, n, b, seeds, short=False, c=1.0, arm=0, switch_t=0):
    """[(actions, regret)] of each rep of a run over ``seeds``."""
    k, best, reps = len(means), max(means), len(seeds)
    rngs, own = _own_generators(seeds)
    counts, sums = [[0] * k for _ in rngs], [[0.0] * k for _ in rngs]
    alpha, beta = [[1.0] * k for _ in rngs], [[1.0] * k for _ in rngs]
    totals = [0.0] * reps
    runs = [([], []) for _ in rngs]
    seen = 0
    for j in range(n // b):
        gen = _batch_generator(seeds, j) if name == "ts" else None
        batches = []
        for r in range(reps):
            if name == "ts":
                batch = [_ts_arm(alpha[r], beta[r], gen) for _ in range(b)]
            elif name == "uniform":
                batch = [int(own[r].integers(0, k)) for _ in range(b)]
            else:
                if name == "ucb":
                    pick = _ucb_arm(counts[r], sums[r], seen, c)
                elif name == "two_phase":
                    good, bad = means.index(best), means.index(min(means))
                    pick = good if seen + 1 <= switch_t else bad
                else:
                    pick = arm
                batch = [pick] * b
            batches.append(batch)
        fed = 1 if short else b
        for r, batch in enumerate(batches):
            actions, regret = runs[r]
            for i, (a, u) in enumerate(zip(batch, rngs[r].random(b))):
                reward = 1.0 if u < means[a] else 0.0
                totals[r] += best - means[a]
                actions.append(a)
                regret.append(totals[r])
                if i < fed:
                    counts[r][a] += 1
                    sums[r][a] += reward
                    alpha[r][a] += reward
                    beta[r][a] += 1.0 - reward
        seen += fed
    return runs


def reference_approx_delayed_start(means, n, b, seeds, delta, c=1.0):
    """[(tau, actions)] of each rep of the estimated delayed start of UCB:
    ``reference_two_phase`` leaving phase 1 at the first boundary ``t`` with
    ``t >= 2``, every arm pulled and ``check_phase`` passing on the rep's
    counts and means."""
    def certifies(i, t, counts, sums):
        if t < 2 or min(counts) < 1:
            return False
        mean_hat = [s / m for s, m in zip(sums, counts)]
        return not check_phase(np.array(counts, dtype=float), np.array(mean_hat), t, delta)

    return reference_two_phase(means, n, b, seeds, certifies, c)


def reference_two_phase(means, n, b, seeds, hands_over, c=1.0):
    """[(tau, actions)] of each rep of a two-phase run of uniform play and
    then UCB.

    Rep ``i`` plays uniformly until the first boundary ``t`` (0, b, ...,
    n) at which ``hands_over(i, t, counts, sums)`` holds on its history;
    from there UCB plays on the whole history.  ``tau`` is that ``t``, or
    None when phase 1 never ends.  Phase 1 is a plain uniform run: each
    rep draws its uniform play from its own generator."""
    k, reps = len(means), len(seeds)
    rngs, own = _own_generators(seeds)
    counts, sums = [[0] * k for _ in rngs], [[0.0] * k for _ in rngs]
    taus, runs = [None] * reps, [[] for _ in rngs]
    for t in range(0, n + 1, b):
        for r in range(reps):
            if taus[r] is None and hands_over(r, t, counts[r], sums[r]):
                taus[r] = t
        if t == n:
            break
        for r in range(reps):
            if taus[r] is None:
                batch = [int(own[r].integers(0, k)) for _ in range(b)]
            else:
                batch = [_ucb_arm(counts[r], sums[r], t, c)] * b
            for a, u in zip(batch, rngs[r].random(b)):
                runs[r].append(a)
                counts[r][a] += 1
                sums[r][a] += 1.0 if u < means[a] else 0.0
    return list(zip(taus, runs))


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


def _dense_features(context, k):
    """Arm ``a``'s ``k * p`` feature vector holds ``context`` in block ``a``."""
    p = len(context)
    feats = np.zeros((k, k * p))
    for a in range(k):
        feats[a, a * p : (a + 1) * p] = context
    return feats


def reference_linear_run(name, env, n, b, seeds, alpha=1.0, ridge_lambda=1.0):
    """[(actions, rewards)] of each rep of a LinUCB or LinTS run on ``env``
    over ``seeds``, in the dense ``k * p`` layout.  Each rep owns
    ``default_rng(seed)`` and per batch draws from it the batch's contexts
    (``b`` rows of ``p`` standard normals, each over its norm), one
    proposal per step, and then the batch's reward noise (``b`` standard
    normals); the batch's feature vectors and rewards are then fed back
    together."""
    k, p = env.k, env.context_dim
    out = []
    for seed in seeds:
        rng = np.random.default_rng(seed)
        V, z = ridge_lambda * np.eye(k * p), np.zeros(k * p)
        actions, rewards = [], []
        for _ in range(n // b):
            raw = rng.standard_normal((b, p))
            contexts = raw / np.linalg.norm(raw, axis=1, keepdims=True)
            feats = [_dense_features(c, k) for c in contexts]
            batch = [_ridge_arm(name, f, V, z, rng, alpha) for f in feats]
            F = np.array([f[a] for f, a in zip(feats, batch)])
            X = F @ env.theta + rng.standard_normal(b)
            V += F.T @ F
            z += F.T @ X
            actions += batch
            rewards += X.tolist()
        out.append((actions, rewards))
    return out


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
            feats = _dense_features(context, k)
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
