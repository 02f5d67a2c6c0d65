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
configuration together, batch by batch, with per-rep state held as arrays;
a policy that ignores feedback plays its batches in one call instead,
from the start, or from the last hand-over of a two-phase run, and a
lone run of a policy that can ``run_ahead`` (UCB, on a Bernoulli
environment) plays one call per window its leader holds.
Each rep owns its reward generator; on a Bernoulli environment the
finite-armed policies draw from block streams, one generator per block of
``BLOCK_REPS`` consecutive reps (``block_streams``), so a rep's trajectory
depends on the other reps of its block, never on reps outside it.
Callers that report ``reps`` results from a drawing policy therefore
simulate ``whole_blocks(reps)`` reps and drop the surplus.
``run_online``, ``run_batch`` and ``run_short`` call the engine with one
seed or many, on one environment or a stack.  The delayed-start runners
in ``meta`` play their first phase as a plain run of the naive policy,
decide each rep's hand-over from it, and pass the engine that run's
actions as a prefix with the per-rep hand-over steps.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import BatchGrid, DimensionMismatchError, check_seed, derive_seed, make_grid
from .environments import BernoulliEnv, LinearContextualEnv
from .policies import BLOCK_REPS, RUN_AHEAD_START, rep_bincount

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
    is ``(R, k)``, and ``rewards`` ``(R, n)`` holds every realised reward.
    For a contextual run ``features`` holds every chosen feature vector.
    ``tau`` is the step at which each rep left phase 1 of a two-phase run
    (-1 when it never did); ``phases`` is filled by the delayed-start
    runners.
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
    rewards: np.ndarray
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
    """(seeds, single): a lone seed, or a sequence of per-rep seeds, each a
    non-negative integer (``check_seed``)."""
    if np.ndim(seed) == 0:
        return [check_seed(seed)], True
    return [check_seed(s) for s in seed], False


def block_streams(seeds, tag: str = "policy") -> list:
    """One policy generator per block of ``BLOCK_REPS`` consecutive seeds,
    seeded from ``tag`` and that block's own seeds only."""
    return [
        np.random.default_rng(derive_seed(tag, *seeds[lo : lo + BLOCK_REPS]))
        for lo in range(0, len(seeds), BLOCK_REPS)
    ]


def whole_blocks(reps: int) -> int:
    """``reps`` rounded up to whole blocks of ``BLOCK_REPS``."""
    return -(-reps // BLOCK_REPS) * BLOCK_REPS


def check_arms(policy, env) -> None:
    """Raise ``DimensionMismatchError``, naming both, unless ``policy`` plays
    ``env``'s arms on contexts of its width (0 for a finite-armed pair)."""
    want, have = getattr(policy, "context_dim", 0), getattr(env, "context_dim", 0)
    if policy.k != env.k or want != have:
        raise DimensionMismatchError(
            f"{policy.name} plays {policy.k} arms on contexts of width {want} but "
            f"the {type(env).__name__} has {env.k} arms and contexts of width {have}"
        )


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
    prefix=None,
) -> RunSet:
    """Run one rep per seed, all reps advancing batch by batch together.

    Rep ``i`` owns ``default_rng(seeds[i])``.  On a Bernoulli environment
    it draws its reward uniforms up front, one ``random(n)`` call, and a
    drawing policy draws from ``block_streams(seeds)``, per batch one draw
    for each block that holds a rep it plays.  A contextual environment
    draws per batch and rep, on the rep's own generator, the batch's
    contexts, the policy's draws and then Gaussian reward noise.  So a
    rep's trajectory depends only on the seeds of its block: it is the
    same in every call whose block of that rep holds the same seeds.  A
    policy that is not ``adaptive`` ignores feedback and gets none, and
    once every rep plays it, it plays every remaining batch in one
    ``act_reps(..., batches=...)`` call.  One rep on a Bernoulli
    environment, of a policy with a ``run_ahead`` method, plays window by
    window after its hand-over, if any, on the same uniforms: per window
    its leader, then the batches the leader keeps.

    ``prefix`` is a two-phase run's first phase, ``(head, tau)``: rep ``i``
    plays ``head[i]`` up to its hand-over step ``tau[i]`` (a batch
    boundary, or -1 for none, when ``head`` covers all ``n`` steps), and
    ``policy`` plays it from there with the rep's whole history absorbed,
    drawing from ``block_streams(seeds, "candidate")``.  Everything before
    the earliest hand-over is copied in one step.  Two-phase runs use batch
    feedback on a finite-armed environment.

    ``env`` may also be a stack, a tuple of ``(env, reps)`` pairs of
    Bernoulli envs of one arm count and no ``prefix``: the first ``reps``
    seeds play the first env, and so on, each rep as in its own env's run.
    """
    if visibility not in ("batch", "short"):
        raise ValueError(f"unknown visibility {visibility!r}")
    stack = env if isinstance(env, tuple) else ((env, len(seeds)),)
    env = stack[0][0]
    check_arms(policy, env)
    if len(stack) > 1 and (prefix is not None or sum(r for _, r in stack) != len(seeds) or any(
            not isinstance(e, BernoulliEnv) or e.k != env.k for e, _ in stack)):
        raise ValueError("a stack of environments takes Bernoulli envs of one arm count, "
                         "one seed per rep and no prefix")
    contextual = isinstance(env, LinearContextualEnv)
    if prefix is not None and (contextual or visibility != "batch"):
        raise ValueError("a two-phase run needs batch feedback on a finite-armed environment")
    rngs = [np.random.default_rng(s) for s in seeds]
    reps = len(rngs)
    n, b, M = grid.n, grid.b, grid.M
    k = env.k
    actions = np.empty((reps, n), dtype=np.int64)
    rewards = np.empty((reps, n))
    if contextual:
        contexts = np.empty((reps, n, env.context_dim))
        chosen = np.zeros((reps, n, env.dim))
    else:
        uniforms = rewards  # each uniform is read once, then overwritten by its reward
        for rng, row in zip(rngs, uniforms):
            rng.random(out=row)
        # rep i reads its own env's row of means and gaps at acts + offsets[i]
        offsets = np.arange(0, reps * k, k)[:, None]
        means = np.concatenate([np.tile(e.means, r) for e, r in stack])
        gaps = np.concatenate([np.tile(e.gap_vector(), r) for e, r in stack])
        tag = "policy" if prefix is None else "candidate"
        streams = block_streams(seeds, tag) if policy.draws else None
    all_rows = np.arange(reps)
    if prefix is None:
        tau, start, last = np.full(reps, -1), 0, 0
    else:
        head, tau = prefix
        tau = np.asarray(tau).copy()
        # rep i plays head[i] before step until[i]: all reps do before start, none from last
        until = np.where(tau < 0, n, tau)
        start, last = int(until.min(initial=n)), int(until.max(initial=0))
        actions[:, :start] = head[:, :start]
        rewards[:, :start] = uniforms[:, :start] < means[actions[:, :start] + offsets]
    state = None
    if start < n:
        state = policy.init_reps(reps)
        if start and policy.adaptive:
            state = policy.update_reps(state, actions[:, :start], rewards[:, :start])
    # a policy that ignores feedback plays every batch after the last
    # hand-over in one call
    split = M if policy.adaptive or contextual else last // b
    first = start // b
    if state is not None and reps == 1 and not contextual and hasattr(policy, "run_ahead"):
        fed = 1 if visibility == "short" else b
        _run_ahead(policy, state, grid, first, fed, means, rewards[0], actions[0])
        first = M

    for j in range(first, split):
        lo, hi = j * b, (j + 1) * b
        if contextual:
            for r in all_rows:
                contexts[r, lo:hi] = env.sample_contexts(rngs[r], b)
            ctx = contexts[:, lo:hi]
            acts = policy.act_reps(state, b, rngs, all_rows, ctx)
            # each context in its arm's block: block_features' row of that arm
            chosen.reshape(reps, n, k, -1)[all_rows[:, None], np.arange(lo, hi), acts] = ctx
            for r in all_rows:
                rewards[r, lo:hi] = env.sample_rewards(chosen[r, lo:hi], rngs[r])
            actions[:, lo:hi] = acts
            rews = rewards[:, lo:hi]
        else:
            if lo >= last:
                acts = policy.act_reps(state, b, streams, all_rows)
            else:
                acts = head[:, lo:hi].copy()
                rows = np.flatnonzero(until <= lo)
                acts[rows] = policy.act_reps(state, b, streams, rows)
            rews = (uniforms[:, lo:hi] < means[acts + offsets]).astype(float)
            actions[:, lo:hi] = acts
            rewards[:, lo:hi] = rews

        if not policy.adaptive:
            continue
        feedback = (acts, rews, ctx) if contextual else (acts, rews)
        if visibility == "short":
            feedback = [f[:, :1] for f in feedback]
        state = policy.update_reps(state, *feedback)
    if split < M:
        lo = split * b
        acts = policy.act_reps(state, b, streams, all_rows, batches=M - split)
        actions[:, lo:] = acts
        rewards[:, lo:] = uniforms[:, lo:] < means[acts + offsets]

    # reduce in place, in the order that holds the fewest (reps, n) arrays
    pull_counts = rep_bincount(actions, k)
    if contextual:
        # one (b, p) @ (p, k) product per batch: BLAS may round a product
        # differently when its shape changes
        means = env.mean_matrix(contexts.reshape(reps, M, b, -1)).reshape(reps, n, k)
        best = means.max(axis=2)
        played = np.take_along_axis(means, actions[..., None], axis=2)[..., 0]
        deltas = best - played
        opt = (played >= best - OPT_TOL).astype(np.int64)
    else:
        deltas = gaps[actions + offsets]
        opt = (deltas == 0.0).astype(np.int64)
    return RunSet(
        spec=_spec_tag(visibility, b),
        policy=policy.name,
        n=n,
        b=b,
        seeds=list(seeds),
        actions=actions,
        pseudo_regret=np.cumsum(deltas, axis=1, out=deltas),
        optimal_hits=np.cumsum(opt, axis=1, out=opt),
        pull_counts=pull_counts,
        rewards=rewards,
        tau=tau,
        features=chosen if contextual else None,
    )


def _run_ahead(policy, state, grid: BatchGrid, j, fed, means, row, actions) -> None:
    """Play a lone run's batches from ``j`` on, window by window: per window
    its leader, and the batches the leader keeps (``policy.run_ahead``) on
    the rewards of the first ``fed`` steps of each batch.  ``row`` holds
    the uniforms and takes the rewards of the steps played."""
    b, M = grid.b, grid.M
    window, one = RUN_AHEAD_START, np.zeros(1, dtype=np.int64)
    while j < M:
        lead = int(policy.act_reps(state, 1, None, one)[0, 0])
        w = min(window, M - j)
        lo, hi = j * b, (j + w) * b
        rews = (row[lo:hi] < means[lead]).astype(float).reshape(w, b)
        keep = policy.run_ahead(state, lead, rews[:, :fed])
        hi = lo + keep * b
        row[lo:hi] = rews[:keep].ravel()
        actions[lo:hi] = lead
        j += keep
        window = 2 * window if keep == window else RUN_AHEAD_START


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
