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
configuration together, batch by batch, with per-rep state held as arrays,
and hands each chunk of steps to a ``Keep``, which keeps what its caller
reads: the whole ``RunSet`` (``Whole``), per-step curves (``Curves``), or
those with an action prefix and step readings (``Readings``).  A policy that
ignores feedback plays each chunk's batches in one call instead, from the
start, or from the last hand-over of a two-phase run.  A lone run is a run of one rep.
Each rep owns its reward generator; on a Bernoulli environment the
finite-armed policies draw from block streams, one generator per block of
``BLOCK_REPS`` consecutive reps (``block_streams``), so a rep's trajectory
depends on the other reps of its block, never on reps outside it.
Callers that report ``reps`` results from a drawing policy therefore
simulate ``whole_blocks(reps)`` reps (``sim_seeds``) and drop the surplus.
``run_online``, ``run_batch`` and ``run_short`` call the engine with one
seed or many, on one environment or a stack.  The delayed-start runners
in ``meta`` decide each rep's hand-over and pass the engine their naive
policy, which ignores feedback, as a prefix with the per-rep hand-over
steps: the engine plays it again, a chunk at a time.  Once every rep has
handed over, a candidate that runs ahead (UCB) plays the batches its
leaders have held for two batches in one call (``AHEAD_CELLS``); plain runs
ask it batch by batch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import BatchGrid, DimensionMismatchError, _mean_se, check_seed, derive_seed, make_grid
from .environments import BernoulliEnv, LinearContextualEnv
from .policies import BLOCK_REPS, rep_bincount

OPT_TOL = 1e-12

# Steps per rep in each chunk of a run (whole batches, at least one): the
# engine draws, plays and reduces a chunk of every rep at a time and hands
# it to the run's ``keep``.  Chunks of 128 to 2,048 steps timed alike within
# the host's noise for check-bounds at reps=1,000 (ucb at n=100,000, ts at
# n=2,000), while the ucb call's peak RSS read 44, 49, 59, 80 and 127 MiB;
# below 256 a chunk pays one generator call per rep for fewer steps
# (BENCH_25.json).
CHUNK = 256

# Once every rep of a two-phase run has handed over and its leaders have held
# for two batches, a policy that runs ahead (``UcbPolicy.run_ahead_reps``)
# plays windows of as many batches as they have held, up to the chunk's end and
# ``AHEAD_CELLS`` (rep, batch) cells, so runs of more than ``AHEAD_CELLS // 2``
# reps play batch by batch.  With no window the benchmark's certified_start
# calls took 1.38 times as long (30/30 rounds, BENCH_35.json;
# tools/time_fast_paths.py re-measures it).  Its sweep made 342 run-ahead
# calls, 303 in alike time at 2**12 cells, and from 2, 4 and 8 held batches
# took 122, 121 and 127 ms, alike within the rounds' spread, as on 256-rep
# cells (0.87-1.11 of no window).  At 1,024 reps a window costs what the
# batches it spares cost: env3 delayed-start cells read 0.91-1.13 of no
# window's time at every budget and start, the spread of no window against
# itself, and at 2**12 cells the delayed starts peaked 0.1-0.35 MiB higher in
# fresh processes, so 2**10 keeps them batch by batch (BENCH_32.json)
AHEAD_CELLS = 1024


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

    def record(self, i: int) -> RunRecord:
        """Rep ``i`` as a single-run record."""
        return RunRecord(
            spec=self.spec, policy=self.policy, n=self.n, b=self.b,
            seed=self.seeds[i], actions=self.actions[i],
            pseudo_regret=self.pseudo_regret[i], optimal_hits=self.optimal_hits[i],
            pull_counts=self.pull_counts[i],
            phase=None if self.phases is None else self.phases[i],
        )


class Chunk(NamedTuple):
    """Steps ``lo..lo+w-1`` of every rep of a run, as ``Keep.add`` gets them."""

    actions: np.ndarray
    rewards: np.ndarray
    pseudo_regret: np.ndarray | None = None
    optimal_hits: np.ndarray | None = None
    pull_counts: np.ndarray | None = None
    features: np.ndarray | None = None


class Keep:
    """What ``run_lockstep`` returns, reduced as the run goes.

    The engine calls ``start(run)`` with the run's ``RunSet`` before any
    step, its arrays still None; then ``add(lo, part)`` per finished chunk
    of steps ``lo..lo+w-1``, whose ``(R, w)`` arrays carry ``RunSet``'s
    names: ``pseudo_regret`` and ``optimal_hits`` cumulative from step 0,
    and ``pull_counts`` ``(R, k)`` the pulls up to the chunk's end; and
    returns ``result()``.  When ``reduced`` is false those three are None.
    An ``add`` that returns true ends the run: the engine draws no further
    chunk.  The next chunk overwrites a part's step arrays, so a keep copies
    what it keeps of them.  A keep that is not ``chunked`` gets the whole
    run as one part.
    """

    reduced = True
    chunked = True

    def start(self, run) -> None:
        self.run = run


class Whole(Keep):
    """Every array of the run: ``run_lockstep`` returns its ``RunSet``.  It
    keeps every step, so it takes the run as one chunk: chunks would only be
    copied into whole arrays."""

    chunked = False

    def add(self, lo, part) -> None:
        for name in Chunk._fields:
            setattr(self.run, name, getattr(part, name))

    def result(self):
        return self.run


class Curves(Keep):
    """Per group of rows ``(lo, hi)`` of a run, the per-step ``mean`` and
    standard error (``stderr``) of cumulative regret over those rows
    (``_mean_se``); ``hits`` and ``pulls`` hold every row's final optimal
    hits and pull counts, and ``run`` the run's ``RunSet`` fields other than
    its step arrays.  The run returns the keep itself."""

    def __init__(self, groups):
        self.groups = list(groups)

    def start(self, run) -> None:
        super().start(run)
        self.mean = [np.empty(run.n) for _ in self.groups]
        self.stderr = [np.empty(run.n) for _ in self.groups]

    def add(self, lo, part) -> None:
        regret = part.pseudo_regret
        hi = lo + regret.shape[1]
        for (r0, r1), mean, se in zip(self.groups, self.mean, self.stderr):
            mean[lo:hi], se[lo:hi] = _mean_se(regret[r0:r1], axis=0)
        self.hits, self.pulls = part.optimal_hits[:, -1].copy(), part.pull_counts

    def result(self):
        return self


class Readings(Curves):
    """The ``Curves`` of rows ``0..reps-1``, with every row's ``actions`` up
    to step ``cap``, ``(R, cap)``, and cumulative ``regret`` at the 0-based
    ``steps``, ``(R, len(steps))``.  ``ValueError`` before the run's first
    step unless ``cap`` is in ``0..n`` and each step in ``0..n-1``."""

    def __init__(self, reps: int, cap: int, steps=()):
        super().__init__([(0, reps)])
        self.cap, self.steps = cap, np.array(steps, dtype=np.int64)

    def start(self, run) -> None:
        if not 0 <= self.cap <= run.n or ((self.steps < 0) | (self.steps >= run.n)).any():
            raise ValueError(f"readings need a cap in 0..{run.n} and steps in 0..{run.n - 1}, "
                             f"got cap {self.cap} and steps {self.steps.tolist()}")
        super().start(run)
        self.actions = np.empty((len(run.seeds), self.cap), dtype=np.int64)
        self.regret = np.empty((len(run.seeds), len(self.steps)))

    def add(self, lo, part) -> None:
        super().add(lo, part)
        hi = lo + part.actions.shape[1]
        self.actions[:, lo:hi] = part.actions[:, : max(self.cap - lo, 0)]
        at = np.flatnonzero((self.steps >= lo) & (self.steps < hi))
        self.regret[:, at] = part.pseudo_regret[:, self.steps[at] - lo]


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


def whole_blocks(reps: int, pads: bool = True) -> int:
    """``reps`` rounded up to whole blocks of ``BLOCK_REPS`` if ``pads``."""
    return -(-reps // BLOCK_REPS) * BLOCK_REPS if pads else reps


def sim_seeds(pads: bool, reps: int, *key) -> list:
    """Seeds ``derive_seed(*key, i)`` of the reps that a run simulates to
    report ``reps``: whole blocks when it ``pads``."""
    return [derive_seed(*key, i) for i in range(whole_blocks(reps, pads))]


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
    *,
    keep: Keep | None = None,
):
    """Run one rep per seed, all reps advancing batch by batch together.

    Rep ``i`` owns ``default_rng(seeds[i])``.  On a Bernoulli environment
    it draws its reward uniforms one chunk at a time, ``random(w)`` for a
    chunk of ``w`` steps, the same stream as one ``random(n)`` call, and a
    drawing policy draws from ``block_streams(seeds)``, per batch one draw
    for each block that holds a rep it plays.  On a contextual environment
    rep ``i`` draws only standard normals, one call per chunk: the stream of
    a call per batch of its contexts, LinTS's normals and reward noise, so
    such a run never pads.  So a rep's trajectory depends only on the seeds
    of its block: it is the same in every call whose block of that rep
    holds the same seeds.  A policy that is not ``adaptive`` ignores
    feedback and gets none, and once every rep plays it, it plays the
    remaining batches of each chunk in one ``act_reps(..., batches=...)``
    call.

    The run walks the horizon in chunks of as many whole batches as fit in
    ``CHUNK`` steps, or of one batch, never of one step (a one-step tail
    joins the chunk before it).  Each finished chunk goes to ``keep`` (a
    ``Keep``; ``Whole()`` by default, for the run's ``RunSet``), with
    running regret, optimal-hit and pull totals carried across chunks, until
    the last chunk or one whose ``add`` returns true, and the call returns
    what ``keep`` returns.  So a caller that keeps little holds ``O(R * (k +
    CHUNK) + n)`` memory.  A run for a keep that is not
    ``chunked`` is one chunk of all ``n`` steps.

    ``prefix`` is a two-phase run's first phase, ``(naive, tau)``: rep
    ``i`` plays its row of a plain run of ``naive``, a policy that ignores
    feedback, up to its hand-over step ``tau[i]`` (a batch boundary, or -1
    for none), and ``policy`` plays it from there with the rep's whole
    history absorbed, drawing from ``block_streams(seeds, "candidate")``.
    Two-phase runs use batch feedback on a finite-armed environment.  Once
    every rep has handed over, a policy with ``run_ahead_reps`` plays the
    batches all its leaders have held for two batches in one call per window
    (``AHEAD_CELLS``).

    ``env`` may also be a stack, a tuple of ``(env, reps)`` pairs of
    Bernoulli envs of one arm count and no ``prefix``: the first ``reps``
    seeds play the first env, and so on, each rep as in its own env's run.
    """
    if visibility not in ("batch", "short"):
        raise ValueError(f"unknown visibility {visibility!r}")
    stacked = isinstance(env, tuple)
    stack = env if stacked else ((env, len(seeds)),)
    if stacked and (not stack or prefix is not None or sum(r for _, r in stack) != len(seeds)
                    or any(not isinstance(e, BernoulliEnv) or e.k != stack[0][0].k or r < 0
                           for e, r in stack)):
        raise ValueError("a stack of environments takes Bernoulli envs of one arm count, "
                         "one seed per rep and no prefix")
    env = stack[0][0]
    check_arms(policy, env)
    contextual = isinstance(env, LinearContextualEnv)
    if prefix is not None and (contextual or visibility != "batch"):
        raise ValueError("a two-phase run needs batch feedback on a finite-armed environment")
    rngs = [np.random.default_rng(s) for s in seeds]
    reps = len(rngs)
    n, b, M = grid.n, grid.b, grid.M
    k = env.k
    if not contextual:
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
        naive, tau = prefix
        check_arms(naive, env)
        if naive.adaptive:
            raise ValueError(f"a two-phase run's first phase needs a policy that ignores "
                             f"feedback, not {naive.name}")
        tau = np.asarray(tau).copy()
        # rep i plays naive before step until[i]: all reps do before start, none from last
        until = np.where(tau < 0, n, tau)
        start, last = int(until.min(initial=n)), int(until.max(initial=0))
        naive_state = naive.init_reps(reps)
        naive_streams = block_streams(seeds) if naive.draws else None
    state = policy.init_reps(reps) if start < n else None
    # a policy that ignores feedback plays the batches after the last
    # hand-over a chunk at a time
    split = M if policy.adaptive or contextual else last // b
    # one that runs ahead does so there over as many batches as every rep's
    # leaders ``lead`` have ``held`` since any of them last moved; ``led`` is
    # the last batch's leaders as bytes, the cheapest to compare
    held, cap = 0, AHEAD_CELLS // max(reps, 1)
    ahead = prefix is not None and hasattr(policy, "run_ahead_reps") and cap > 1
    lead = led = None
    keep = Whole() if keep is None else keep
    width = max(CHUNK // b, 1) * b if keep.chunked else n
    cuts = list(range(0, n, width))
    if n - cuts[-1] == 1 and len(cuts) > 1:
        cuts.pop()  # _mean_se over one column need not match the whole reduction
    spans = list(zip(cuts, cuts[1:] + [n]))
    keep.start(RunSet(
        spec=_spec_tag(visibility, b), policy=policy.name, n=n, b=b, seeds=list(seeds),
        actions=None, pseudo_regret=None, optimal_hits=None, pull_counts=None,
        rewards=None, tau=tau,
    ))
    regret, hits = np.zeros(reps), np.zeros(reps, dtype=np.int64)
    pulls = np.zeros((reps, k), dtype=np.int64)
    # every chunk plays and reduces in these arrays: fresh ones per chunk
    # cost a page fault per page, which made a 1,008-rep ucb run about 20%
    # slower
    wide = max(c1 - c0 for c0, c1 in spans)
    # actions, rewards and, for a reduced keep, optimal hits and regret
    buffers = [np.empty((reps, wide), dtype=dtype)
               for dtype in (np.int64, float) * (2 if keep.reduced else 1)]

    for c0, c1 in spans:
        w = c1 - c0
        actions, rewards, *work = (buf[:, :w] for buf in buffers)
        if contextual:
            # one draw per rep; per batch: contexts, LinTS's normals, noise
            cw, drawn = env.context_dim, env.dim if policy.draws else 0
            normals = np.empty((reps, w // b, b * (cw + drawn + 1)))
            for rng, row in zip(rngs, normals):
                rng.standard_normal(out=row)
            contexts = env.contexts(normals[..., : b * cw].reshape(reps, w, cw))
            chosen = np.zeros((reps, w, env.dim))
        else:
            uniforms = rewards  # each uniform is read once, then overwritten by its reward
            for rng, row in zip(rngs, uniforms):
                rng.random(out=row)
        q = min(last, c1) - c0
        if q > 0:
            actions[:, :q] = naive.act_reps(naive_state, b, naive_streams, all_rows,
                                            batches=q // b)
        p = min(start, c1) - c0
        if p > 0:
            rewards[:, :p] = uniforms[:, :p] < means[actions[:, :p] + offsets]
            if state is not None and policy.adaptive:
                state = policy.update_reps(state, actions[:, :p], rewards[:, :p])
        j, stop = max(start, c0) // b, min(split, c1 // b)
        while j < stop:
            lo, hi = j * b - c0, (j + 1) * b - c0
            j += 1
            if contextual:
                ctx, batch = contexts[:, lo:hi], normals[:, lo // b]
                noise = (batch[:, b * cw : -b].reshape(reps, b, drawn),) if drawn else ()
                acts = policy.act_reps(state, b, None, all_rows, ctx, *noise)
                # each context in its arm's block: block_features' row of that arm
                chosen.reshape(reps, w, k, cw)[all_rows[:, None], np.arange(lo, hi), acts] = ctx
                rews = env.rewards(chosen[:, lo:hi], batch[:, -b:])
            else:
                if ahead and c0 + lo >= last:
                    if lead is None:
                        acts = policy.act_reps(state, b, streams, all_rows)
                        lead = acts[:, 0]
                        held = held + 1 if lead.tobytes() == led else 0
                    else:
                        acts = lead[:, None].repeat(b, axis=1)
                    span = min(held, stop - j + 1, cap)
                    if span > 1:
                        got = uniforms[:, lo : lo + span * b] < means[lead[:, None] + offsets]
                        got = got.reshape(reps, span, b)
                        kept, after = policy.run_ahead_reps(state, lead, got)
                        hi = lo + kept * b
                        actions[:, lo:hi] = lead[:, None]
                        rewards[:, lo:hi] = got[:, :kept].reshape(reps, -1)
                        held = held + kept if after.tobytes() == lead.tobytes() else 0
                        lead = after
                        j += kept - 1
                        continue
                    led, lead = lead.tobytes(), None
                elif c0 + lo >= last:
                    acts = policy.act_reps(state, b, streams, all_rows)
                else:
                    acts = actions[:, lo:hi].copy()
                    rows = np.flatnonzero(until <= c0 + lo)
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
        lo = max(split * b, c0) - c0
        if lo < w:
            acts = policy.act_reps(state, b, streams, all_rows, batches=(w - lo) // b)
            actions[:, lo:] = acts
            rewards[:, lo:] = uniforms[:, lo:] < means[acts + offsets]
        if not keep.reduced:
            if keep.add(c0, Chunk(actions, rewards)):
                break
            continue

        opt, deltas = work
        pulls += rep_bincount(actions, k)
        if contextual:
            # one (b, p) @ (p, k) product per batch: BLAS may round a product
            # differently when its shape changes
            mean = env.mean_matrix(contexts.reshape(reps, w // b, b, cw)).reshape(reps, w, k)
            best = mean.max(axis=2)
            played = np.take_along_axis(mean, actions[..., None], axis=2)[..., 0]
            np.subtract(best, played, out=deltas)
            np.greater_equal(played, best - OPT_TOL, out=opt)
        else:
            np.take(gaps, np.add(actions, offsets, out=opt), out=deltas)
            np.equal(deltas, 0.0, out=opt)
        if c0:
            # the running totals enter as the chunk's first terms, so the sums
            # round as one cumsum over the whole run would
            deltas[:, 0] += regret
            opt[:, 0] += hits
        regret = np.cumsum(deltas, axis=1, out=deltas)[:, -1].copy()
        hits = np.cumsum(opt, axis=1, out=opt)[:, -1].copy()
        if keep.add(c0, Chunk(actions, rewards, deltas, opt, pulls,
                              chosen if contextual else None)):
            break
    return keep.result()


def _run(policy, env, grid: BatchGrid, seed, visibility: str, keep):
    seeds, single = seed_list(seed)
    run = run_lockstep(policy, env, grid, seeds, visibility, keep=keep)
    return run.record(0) if single and keep is None else run


def run_online(policy, env, n: int, seed, *, keep: Keep | None = None):
    """Run with every step's feedback visible immediately (batch size 1).

    ``seed`` is one integer, for a ``RunRecord``, or a sequence of per-rep
    seeds, run in lockstep into a ``RunSet``; the same holds for
    ``run_batch`` and ``run_short``.  With ``keep``, a run over a sequence
    of seeds returns what ``keep`` reduces it to (``run_lockstep``), as
    ``run_batch`` does.
    """
    return _run(policy, env, make_grid(n, 1), seed, "batch", keep)


def run_batch(policy, env, grid: BatchGrid, seed, *, keep: Keep | None = None):
    """Run with feedback released once per batch boundary."""
    return _run(policy, env, grid, seed, "batch", keep)


def run_short(policy, env, grid: BatchGrid, seed):
    """Run releasing only the first entry of each batch."""
    return _run(policy, env, grid, seed, "short", None)
