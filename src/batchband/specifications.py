"""Run engine for the three feedback schedules.

A policy interacts with an environment over a batch grid.  The schedules
differ only in what feedback the policy sees and when:

* online: every step's feedback is visible before the next decision
  (the degenerate grid with batch size 1);
* batch: all feedback from batch ``j`` is released together after the
  batch ends;
* short: only the first step of each batch is ever released, so after
  ``j`` batches the policy has seen ``j`` entries.

Decisions inside a batch are made from the frozen pre-batch state, so the
played rule is constant within a batch for every policy in this package.

``run_lockstep`` is the one run loop.  It advances all reps of a
configuration together, batch by batch, with per-rep state held as arrays.
Each rep owns its reward generator; on a Bernoulli environment the
finite-armed policies draw from block streams, one generator per block of
``BLOCK_REPS`` consecutive reps (``block_streams``), so a rep's trajectory
depends on the other reps of its block, never on reps outside it.
Callers that report ``reps`` results from a drawing policy therefore
simulate ``whole_blocks(reps)`` reps and drop the surplus.
``run_online``, ``run_batch`` and ``run_short`` call the engine with one
seed or many; the delayed-start runners in ``meta`` add a naive first
phase and a per-rep hand-over gate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import BatchGrid, derive_seed, make_grid
from .environments import LinearContextualEnv, block_features
from .policies import BLOCK_REPS, rep_bincount

OPT_TOL = 1e-12


@dataclass(eq=False)
class RunRecord:
    """Full trace of one run.

    ``pseudo_regret`` and ``optimal_hits`` are cumulative per step;
    ``pull_counts`` is indexed by arm.  ``phase`` is filled by the
    delayed-start runners.
    """

    spec: str
    policy: str
    n: int
    b: int
    seed: int
    actions: np.ndarray
    pseudo_regret: np.ndarray
    optimal_hits: np.ndarray
    pull_counts: np.ndarray
    phase: object | None = None

    @property
    def final_regret(self) -> float:
        return float(self.pseudo_regret[-1])

    @property
    def optimal_pulls(self) -> int:
        return int(self.optimal_hits[-1])


@dataclass(eq=False)
class RunSet:
    """Lockstep runs of one configuration, one row per seed.

    The array fields of ``RunRecord`` with a leading rep axis: ``actions``,
    ``pseudo_regret`` and ``optimal_hits`` are ``(R, n)``, ``pull_counts``
    is ``(R, k)``.  For a contextual run ``features`` holds every chosen
    feature vector.  ``tau`` is the step at which each rep left phase 1 of
    a two-phase run (-1 when it never did); ``phases`` is filled by the
    delayed-start runners.
    """

    spec: str
    policy: str
    n: int
    b: int
    seeds: list
    actions: np.ndarray
    pseudo_regret: np.ndarray
    optimal_hits: np.ndarray
    pull_counts: np.ndarray
    tau: np.ndarray
    features: np.ndarray | None = None
    phases: list | None = None

    @property
    def final_regret(self) -> np.ndarray:
        return self.pseudo_regret[:, -1].copy()

    @property
    def optimal_pulls(self) -> np.ndarray:
        return self.optimal_hits[:, -1].copy()

    def record(self, i: int) -> RunRecord:
        """Rep ``i`` as a single-run record."""
        return RunRecord(
            spec=self.spec, policy=self.policy, n=self.n, b=self.b,
            seed=self.seeds[i], actions=self.actions[i],
            pseudo_regret=self.pseudo_regret[i], optimal_hits=self.optimal_hits[i],
            pull_counts=self.pull_counts[i],
            phase=None if self.phases is None else self.phases[i],
        )


def seed_list(seed) -> tuple[list, bool]:
    """(seeds, single): a lone integer seed, or a sequence of per-rep seeds."""
    if isinstance(seed, (int, np.integer)):
        return [int(seed)], True
    return [int(s) for s in seed], False


def block_streams(seeds) -> list:
    """One policy generator per block of ``BLOCK_REPS`` consecutive seeds,
    seeded from that block's own seeds only."""
    return [
        np.random.default_rng(derive_seed("policy", *seeds[lo : lo + BLOCK_REPS]))
        for lo in range(0, len(seeds), BLOCK_REPS)
    ]


def whole_blocks(reps: int) -> int:
    """``reps`` rounded up to whole blocks of ``BLOCK_REPS``."""
    return -(-reps // BLOCK_REPS) * BLOCK_REPS


def _spec_tag(visibility: str, b: int) -> str:
    if visibility == "short":
        return "short"
    return "online" if b == 1 else "batch"


def run_lockstep(
    policy,
    env,
    grid: BatchGrid,
    seeds,
    visibility: str = "batch",
    naive=None,
    gate=None,
) -> RunSet:
    """Run one rep per seed, all reps advancing batch by batch together.

    Rep ``i`` owns ``default_rng(seeds[i])``.  On a Bernoulli environment
    it draws its reward uniforms up front, one ``random(n)`` call, and the
    policies draw from ``block_streams(seeds)``: per batch, each block that
    holds a rep in phase 1 makes the naive policy's draw for all its reps,
    then each block that holds a rep past phase 1 makes the policy's.  A
    contextual environment draws per batch and rep, on the rep's own
    generator, the batch's contexts, the policy's draws and then Gaussian
    reward noise.  So a rep's trajectory depends only on the seeds of its
    block: it is the same in every call whose block of that rep holds the
    same seeds.

    With ``naive`` every rep starts in phase 1, where ``naive`` plays.  At
    each boundary ``t`` (0, b, ..., n) ``gate(t, naive_state, rows)`` gets
    the naive policy's state and the phase-1 reps ``rows`` and returns
    which of them hand over to ``policy``; that happens to a rep at most
    once.  ``policy`` first plays a rep's next batch with the
    rep's whole history absorbed.  Two-phase runs use batch feedback.
    """
    if visibility not in ("batch", "short"):
        raise ValueError(f"unknown visibility {visibility!r}")
    rngs = [np.random.default_rng(s) for s in seeds]
    reps = len(rngs)
    n, b, M = grid.n, grid.b, grid.M
    k = env.k
    contextual = isinstance(env, LinearContextualEnv)
    actions = np.empty((reps, n), dtype=np.int64)
    rewards = np.empty((reps, n))
    if contextual:
        contexts = np.empty((reps, n, env.context_dim))
        chosen = np.empty((reps, n, env.dim))
    else:
        uniforms = np.empty((reps, n))
        for rng, row in zip(rngs, uniforms):
            rng.random(out=row)
        drawing = policy.draws or (naive is not None and naive.draws)
        streams = block_streams(seeds) if drawing else None
    all_rows = np.arange(reps)
    phase1 = np.full(reps, naive is not None)
    n_phase1 = reps if naive is not None else 0
    tau = np.full(reps, -1)
    naive_state = naive.init_reps(reps) if naive is not None else None
    state = policy.init_reps(reps) if naive is None else None

    for j in range(M + 1):
        lo, hi = j * b, (j + 1) * b
        if gate is not None and n_phase1:
            rows = np.flatnonzero(phase1)
            switch = rows[gate(lo, naive_state, rows)]
            if switch.size:
                if state is None:
                    state = policy.init_reps(reps)
                    if lo:
                        state = policy.update_reps(state, actions[:, :lo], rewards[:, :lo])
                phase1[switch] = False
                n_phase1 -= switch.size
                tau[switch] = lo
        if j == M:
            break

        if contextual:
            for r in all_rows:
                contexts[r, lo:hi] = env.sample_contexts(rngs[r], b)
            ctx = contexts[:, lo:hi].reshape(reps * b, -1)
            feats = block_features(ctx, k).reshape(reps, b, k, -1)
            acts = policy.act_reps(state, b, rngs, all_rows, feats)
            chosen[:, lo:hi] = feats[all_rows[:, None], np.arange(b), acts]
            for r in all_rows:
                rewards[r, lo:hi] = env.sample_rewards(chosen[r, lo:hi], rngs[r])
            actions[:, lo:hi] = acts
            acts, rews = chosen[:, lo:hi], rewards[:, lo:hi]
        else:
            if not n_phase1:
                acts = policy.act_reps(state, b, streams, all_rows)
            else:
                acts = np.empty((reps, b), dtype=np.int64)
                rows = np.flatnonzero(phase1)
                acts[rows] = naive.act_reps(naive_state, b, streams, rows)
                if n_phase1 < reps:
                    rows = np.flatnonzero(~phase1)
                    acts[rows] = policy.act_reps(state, b, streams, rows)
            rews = (uniforms[:, lo:hi] < env.means[acts]).astype(float)
            actions[:, lo:hi] = acts
            rewards[:, lo:hi] = rews

        if visibility == "short":
            acts, rews = acts[:, :1], rews[:, :1]
        if n_phase1:
            naive_state = naive.update_reps(naive_state, acts, rews)
        if state is not None:
            state = policy.update_reps(state, acts, rews)

    if contextual:
        # one (b, p) @ (p, k) product per batch: BLAS may round a product
        # differently when its shape changes
        means = env.mean_matrix(contexts.reshape(reps, M, b, -1)).reshape(reps, n, k)
        best = means.max(axis=2)
        played = np.take_along_axis(means, actions[..., None], axis=2)[..., 0]
        deltas = best - played
        opt = played >= best - OPT_TOL
    else:
        deltas = env.gap_vector()[actions]
        opt = deltas == 0.0
    return RunSet(
        spec=_spec_tag(visibility, b),
        policy=policy.name,
        n=n,
        b=b,
        seeds=list(seeds),
        actions=actions,
        pseudo_regret=np.cumsum(deltas, axis=1),
        optimal_hits=np.cumsum(opt, axis=1),
        pull_counts=rep_bincount(actions, k),
        tau=tau,
        features=chosen if contextual else None,
    )


def _run(policy, env, grid: BatchGrid, seed, visibility: str):
    seeds, single = seed_list(seed)
    run = run_lockstep(policy, env, grid, seeds, visibility)
    return run.record(0) if single else run


def run_online(policy, env, n: int, seed):
    """Run with every step's feedback visible immediately (batch size 1).

    ``seed`` is one integer, for a ``RunRecord``, or a sequence of per-rep
    seeds, run in lockstep into a ``RunSet``; the same holds for
    ``run_batch`` and ``run_short``.
    """
    return _run(policy, env, make_grid(n, 1), seed, "batch")


def run_batch(policy, env, grid: BatchGrid, seed):
    """Run with feedback released once per batch boundary."""
    return _run(policy, env, grid, seed, "batch")


def run_short(policy, env, grid: BatchGrid, seed):
    """Run releasing only the first entry of each batch."""
    return _run(policy, env, grid, seed, "short")
