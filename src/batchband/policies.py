"""Bandit policies behind one rep-batched protocol.

A policy runs ``R`` reps in lockstep through three operations:

* ``init_reps(R)``: the state of ``R`` reps before any feedback, arrays
  with a leading rep axis.
* ``act_reps(states, b, rngs, rows[, contexts])``: ``(len(rows), b)``
  actions for the reps ``rows``, each rep playing ``b`` steps from its
  frozen state.  The finite-armed policies draw from block streams:
  ``rngs[i]`` is the one generator of block ``i``, the reps ``i * BLOCK_REPS``
  up to ``(i + 1) * BLOCK_REPS`` (the last block may be short), and a
  drawing policy makes one draw for every rep of each block that holds any
  of ``rows``, whatever its other reps are doing.  The linear policies
  read ``contexts``, the ``(len(rows), b, p)`` contexts of the rows' steps,
  and touch no generator: LinTS proposes from ``noise``, the rows'
  ``(len(rows), b, k * p)`` standard normals, which its caller draws, and
  raises ``PolicyError`` without them.  Only the finite-armed policies
  that are not adaptive take a keyword ``batches`` (default 1): one call
  then plays ``batches`` batches and returns ``(len(rows), batches * b)``
  actions, batch-major, the same as that many one-batch calls.
* ``update_reps(states, actions, rewards[, contexts])``: absorb ``(R, m)``
  released actions and rewards, arrays or nested lists, in place and
  return the states; the linear policies also take the released steps'
  contexts, ``(R, m, p)``.

Every rep has seen the same amount of feedback, ``t_seen``.  ``draws``
says whether a play consumes random numbers, from ``rngs`` or, for LinTS,
from its caller; a policy that draws nothing plays a pure function of its
state and contexts.  ``adaptive`` says whether ``act_reps`` reads the state
at all; a policy that is not adaptive (uniform and fixed-arm play) ignores
feedback, so ``b`` steps from any state are ``b`` steps from the initial
one.  State is frozen within a batch, so the played rule is constant inside
it.  A lone run takes the same array paths on a state of one rep.  Replay's
TS loop holds one rep's posterior as Python floats (``ts_posterior``) and picks
the first maximum (``ts_arm``): the same IEEE operations in the same order as
``act_reps``' array path, so the same bits.  UCB's states
also run ahead (``UcbPolicy.run_ahead_reps``): over the batches every rep's
leader keeps, given the leaders' rewards, in one call that returns the leaders
after them.  The engine runs a two-phase run's reps ahead once every rep has
handed over, and replay runs its one rep ahead.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .core import DimensionMismatchError

DEFAULT_UCB_C = 1.0
DEFAULT_RIDGE_LAMBDA = 1.0
DEFAULT_LINUCB_ALPHA = 1.0

# Reps per policy stream block.  One array draw per block and batch costs
# little more than one rep's own draw, while a larger block makes the
# surplus reps of a padded run cost more.
BLOCK_REPS = 16


# UCB replay runs ahead (``UcbPolicy.run_ahead_reps``) over windows of this
# many batches, doubled after each window its leader keeps whole and reset
# when the leader changes.  Starts of 4, 8, 16 and 32 asked 629 to 379 windows
# in the 25k-row ucb replay at b=1, in times alike within the host's noise
# (BENCH_21.json)
RUN_AHEAD_START = 8


class PolicyError(ValueError):
    """Raised for invalid policy configuration or misuse."""


def rep_bincount(actions, k, weights=None):
    """Per-rep ``bincount`` of an ``(R, m)`` action array, shape ``(R, k)``;
    with ``(R, m)`` ``weights``, each rep's per-arm sums of them."""
    reps = actions.shape[0]
    flat = (actions + np.arange(0, reps * k, k)[:, None]).ravel()
    if weights is not None:
        weights = weights.ravel()
    return np.bincount(flat, weights, minlength=reps * k).reshape(reps, k)


@dataclass(eq=False, slots=True)
class RepCounts:
    """Pull counts and reward sums of ``R`` lockstep reps, shape ``(R, k)``.

    Counts are float64, exact below 2**53, so indices divide float by float.
    ``offsets`` ``(R, 1)`` holds ``r * k``, the start of rep ``r``'s row in
    the flattened arrays.
    """

    counts: np.ndarray
    sums: np.ndarray
    offsets: np.ndarray
    t_seen: int


@dataclass(eq=False, slots=True)
class RepRidge:
    """Per-arm ridge statistics of ``R`` lockstep reps: design blocks ``V``
    ``(R, k, p, p)`` and response vectors ``z`` ``(R, k, p)``.

    ``factors`` holds what the policy derives from every rep's ``V`` and
    ``z``, stacked, or None; ``update_reps`` clears it, so a frozen state
    is factored once however often it is asked to act.
    """

    V: np.ndarray
    z: np.ndarray
    t_seen: int
    factors: tuple | None = None


class BasePolicy:
    """The protocol every policy implements; see the module docstring."""

    name = "base"
    draws = True
    adaptive = True

    def init_reps(self, reps: int):
        raise NotImplementedError

    def act_reps(self, states, b, rngs, rows, contexts=None) -> np.ndarray:
        raise NotImplementedError

    def update_reps(self, states, actions, rewards):
        raise NotImplementedError


class _CountPolicy(BasePolicy):
    """Finite-armed policy whose state is pull counts and reward sums.

    Every update absorbs the released pulls.  Every finite-armed policy reads
    its rule from this one state.
    """

    def __post_init__(self):
        if self.k < 2:
            raise PolicyError("need at least 2 arms")

    def init_reps(self, reps: int) -> RepCounts:
        k = self.k
        offsets = np.arange(0, reps * k, k)[:, None]
        return RepCounts(np.zeros((reps, k)), np.zeros((reps, k)), offsets, 0)

    def update_reps(self, states, actions, rewards):
        # one unbuffered scatter per array adds each release to its cell in
        # step order, as a per-step loop would
        cells = actions + states.offsets
        flat = cells.ravel()
        np.add.at(states.counts.ravel(), flat, 1.0)
        np.add.at(states.sums.ravel(), flat, np.asarray(rewards).ravel())
        states.t_seen += cells.shape[1]
        return states


@dataclass(frozen=True)
class UcbPolicy(_CountPolicy):
    """Index policy: empirical mean plus ``c * sqrt(2 ln t / pulls)``.

    The exploration time is the visible-history length plus one, so the
    index (and hence the rule) never moves inside a batch.  Unpulled arms
    are forced first, lowest index first; ties break to the lowest index.
    """

    k: int
    c: float = DEFAULT_UCB_C
    name = "ucb"
    draws = False

    def __post_init__(self):
        super().__post_init__()
        if not (math.isfinite(self.c) and self.c >= 0):
            raise PolicyError(f"exploration constant must be finite and >= 0, got {self.c}")

    def act_reps(self, states, b, rngs, rows) -> np.ndarray:
        # the log is taken once with math.log because every rep shares
        # t_seen; numpy's SIMD log need not match libm to the last bit
        arms = self._leaders(states.sums, states.counts, 2.0 * math.log(states.t_seen + 1))
        if rows.size < arms.size:
            arms = arms[rows]
        return arms[:, None].repeat(b, axis=1)

    def _leaders(self, sums, counts, bonus) -> np.ndarray:
        """The arm of first maximum index in each row of ``sums`` and
        ``counts``, ``bonus`` being ``2 ln t``; an arm of no pulls has index inf."""
        with np.errstate(divide="ignore", invalid="ignore"):
            idx = sums / counts + self.c * np.sqrt(bonus / counts)
        idx[counts == 0] = math.inf
        return idx.argmax(axis=-1)

    def run_ahead_reps(self, states, lead, rewards) -> tuple[int, np.ndarray]:
        """Advance ``R`` lockstep reps over the batches every rep's leader keeps.

        ``lead`` ``(R,)`` holds each rep's leader, the arm ``act_reps``
        plays, and ``rewards`` ``(R, w, m)`` the ``m`` rewards each of the
        next ``w`` batches would release to rep ``r`` if ``lead[r]`` played
        it.  The leaders play the first batch, and batch ``j + 1`` while
        every rep's leader is still its first maximum after ``j`` batches.
        Absorbs the batches the leaders play, up to ``w``, and returns how
        many, with the leaders after them.  The bits are ``act_reps``' and
        ``update_reps``': each leader's sums are one sequential cumsum from
        its running sum, each bonus comes from ``math.log``, and numpy's
        ``/`` and ``sqrt`` are correctly rounded.
        """
        reps, w, m = rewards.shape
        # the leaders' cells in the flattened counts and sums, which
        # update_reps writes through too
        cells = lead + states.offsets[:, 0]
        counts, sums = states.counts.ravel(), states.sums.ravel()
        path = np.empty((reps, w * m + 1))
        path[:, 0] = sums[cells]
        path[:, 1:] = rewards.reshape(reps, w * m)
        path.cumsum(axis=1, out=path)
        pulls = counts[cells]
        # the states after 1..w batches, one per row: only the leaders'
        # counts and sums and the bonus move
        t = states.t_seen + 1
        bonus = np.array([2.0 * math.log(x) for x in range(t + m, t + (w + 1) * m, m)])
        n, s = np.empty((w, reps * self.k)), np.empty((w, reps * self.k))
        n[:], s[:] = counts, sums
        n[:, cells] = pulls + np.arange(m, (w + 1) * m, m)[:, None]
        s[:, cells] = path[:, m::m].T
        leaders = self._leaders(s.reshape(w, reps, self.k), n.reshape(w, reps, self.k),
                                bonus[:, None, None])
        moved = (leaders != lead).ravel()
        i = int(moved.argmax())
        keep = i // reps + 1 if moved[i] else w
        counts[cells] += keep * m
        sums[cells] = path[:, keep * m]
        states.t_seen += keep * m
        return keep, leaders[keep - 1]


def _blocks(rows, reps):
    """Index ``(i, lo, hi)`` of each block of ``reps`` reps holding any of ``rows``."""
    if len(rows) == reps:
        blocks = range(-(-reps // BLOCK_REPS))
    else:
        blocks = np.unique(rows // BLOCK_REPS).tolist()
    return [(i, i * BLOCK_REPS, min((i + 1) * BLOCK_REPS, reps)) for i in blocks]


def ts_posterior(counts, sums) -> tuple[list, list]:
    """One rep's Beta posterior ``(alphas, betas)``, ``1 + s`` and
    ``1 + n - s`` per arm, from its counts and sums as Python floats: the
    IEEE operations of the many-rep path, so the same bits."""
    return [1.0 + s for s in sums], [1.0 + n - s for n, s in zip(counts, sums)]


def ts_arm(draw, posterior) -> int:
    """One TS step from a one-rep posterior: ``draw(alpha, beta)`` per arm,
    in arm order, and the first arm of greatest draw, as ``argmax`` picks."""
    draws = list(map(draw, *posterior))
    return draws.index(max(draws))


@dataclass(frozen=True)
class ThompsonBetaPolicy(_CountPolicy):
    """Beta-Bernoulli Thompson sampling from a flat Beta(1, 1) prior.

    Each arm's posterior is ``Beta(1 + sums, 1 + counts - sums)``, the
    successes and failures read from the shared counts and sums.  Each step
    samples one mean per arm from the posterior and plays the argmax; under
    batch feedback the posterior is frozen, but every step in the batch
    still gets a fresh draw.  A block draws its reps' ``(reps, b, k)``
    posterior samples in one call, rep by rep, step by step, arm by arm, so
    a rep's draws depend on its block's other posteriors too: the Beta
    sampler rejects a varying number of candidates.
    """

    k: int
    name = "ts"

    def act_reps(self, states, b, rngs, rows) -> np.ndarray:
        reps = len(states.counts)
        alpha = (1.0 + states.sums)[:, None]
        beta = (1.0 + states.counts - states.sums)[:, None]
        acts = np.empty((reps, b), dtype=np.int64)
        for i, lo, hi in _blocks(rows, reps):
            draws = rngs[i].beta(alpha[lo:hi], beta[lo:hi], size=(hi - lo, b, self.k))
            acts[lo:hi] = draws.argmax(axis=2)
        return acts if len(rows) == reps else acts[rows]


@dataclass(frozen=True)
class UniformPolicy(_CountPolicy):
    """Plays every arm with equal probability, ignoring feedback.

    A block draws its reps' actions for ``batches`` batches as one
    ``integers(0, k, size=(batches, reps, b))`` call, batch-major: the same
    stream as one ``size=(reps, b)`` call per batch, since the generator
    keeps a spare 32-bit half between calls.
    """

    k: int
    name = "uniform"
    adaptive = False

    def act_reps(self, states, b, rngs, rows, *, batches=1) -> np.ndarray:
        reps = len(states.counts)
        acts = np.empty((reps, batches, b), dtype=np.int64)
        for i, lo, hi in _blocks(rows, reps):
            draws = rngs[i].integers(0, self.k, size=(batches, hi - lo, b))
            acts[lo:hi] = draws.transpose(1, 0, 2)
        acts = acts.reshape(reps, batches * b)
        return acts if len(rows) == reps else acts[rows]


@dataclass(frozen=True)
class FixedArmPolicy(_CountPolicy):
    """Always plays one arm; a degenerate probe for boundary cases."""

    k: int
    arm: int
    name = "fixed"
    draws = False
    adaptive = False

    def __post_init__(self):
        super().__post_init__()
        if not 0 <= self.arm < self.k:
            raise PolicyError(f"arm {self.arm} outside 0..{self.k - 1}")

    def act_reps(self, states, b, rngs, rows, *, batches=1) -> np.ndarray:
        return np.full((len(rows), batches * b), self.arm, dtype=np.int64)


@dataclass(frozen=True)
class TwoPhaseSwitchPolicy(_CountPolicy):
    """Plays ``good_arm`` until ``switch_t`` visible steps, then ``bad_arm``.

    A strictly worsening probe used to break sublinearity on purpose.  The
    switch is keyed on visible-history length, so under batch feedback it
    lands on the first batch boundary at or past ``switch_t`` and the rule
    stays constant within each batch.
    """

    k: int
    good_arm: int
    bad_arm: int
    switch_t: int
    name = "two_phase"
    draws = False

    def __post_init__(self):
        super().__post_init__()
        if not (0 <= self.good_arm < self.k and 0 <= self.bad_arm < self.k):
            raise PolicyError("arms outside range")
        if self.switch_t < 0:
            raise PolicyError("switch_t must be non-negative")

    def act_reps(self, states, b, rngs, rows) -> np.ndarray:
        arm = self.good_arm if states.t_seen + 1 <= self.switch_t else self.bad_arm
        return np.full((len(rows), b), arm, dtype=np.int64)


class _LinearBase(BasePolicy):
    """Shared ridge bookkeeping for the linear policies.

    On the disjoint model (Li et al. 2010) each arm keeps its own ``p x p``
    design block, fed by the contexts of its own pulls.  Every rep's blocks
    are updated and inverted at once, as stacked arrays, ``theta = V^-1 z``,
    and ``_factor`` derives the policy's spread from ``V^-1``; each stacked
    ``matmul``, ``inv`` and ``cholesky`` computes a rep's slice as a lone
    run would, bit for bit.
    """

    def __post_init__(self):
        if self.k < 2 or self.context_dim < 1:
            raise PolicyError("need k >= 2 and context_dim >= 1")
        if not (math.isfinite(self.ridge_lambda) and self.ridge_lambda > 0):
            raise PolicyError(f"ridge penalty must be finite and > 0, got {self.ridge_lambda}")

    @property
    def dim(self) -> int:
        return self.k * self.context_dim

    def init_reps(self, reps: int) -> RepRidge:
        p = self.context_dim
        V = np.tile(self.ridge_lambda * np.eye(p), (reps, self.k, 1, 1))
        return RepRidge(V, np.zeros((reps, self.k, p)), 0)

    def _contexts(self, contexts, rows, b):
        if contexts is None:
            raise PolicyError(f"{self.name} requires a context per step")
        xs = np.asarray(contexts, dtype=float)
        if xs.shape != (len(rows), b, self.context_dim):
            raise DimensionMismatchError(f"contexts must have shape ({len(rows)}, {b}, "
                                         f"{self.context_dim})")
        return xs

    def update_reps(self, states, actions, rewards, contexts):
        acts, xs = np.asarray(actions), np.asarray(contexts, dtype=float)
        if acts.ndim != 2 or xs.shape != (*acts.shape, self.context_dim):
            raise DimensionMismatchError(f"{self.name} updates from (R, m) arms and "
                                         f"(R, m, {self.context_dim}) contexts")
        # step i's context in its arm's block, zeros elsewhere, as (R, k, p, m)
        reps, m = acts.shape
        owned = np.zeros((reps, m, self.k, self.context_dim))
        owned[np.arange(reps)[:, None], np.arange(m), acts] = xs
        owned = owned.transpose(0, 2, 3, 1)
        states.V += owned @ xs[:, None]
        states.z += (owned @ np.asarray(rewards, dtype=float)[:, None, :, None])[..., 0]
        states.t_seen += m
        states.factors = None
        return states

    def _factors(self, states, rows):
        if states.factors is None:
            Vinv = np.linalg.inv(states.V)
            states.factors = (Vinv @ states.z[..., None])[..., 0], self._factor(Vinv)
        return [f.take(rows, axis=0) for f in states.factors]


@dataclass(frozen=True)
class LinUcbPolicy(_LinearBase):
    """Disjoint-model linear UCB with a ridge estimate.

    Scores arm ``a`` on context ``x`` by ``<theta_a, x> + alpha *
    sqrt(x' V_a^-1 x)``, where ``V_a = lambda I + sum x x'`` and ``z_a =
    sum x X`` run over arm ``a``'s pulls.
    """

    k: int
    context_dim: int
    alpha: float = DEFAULT_LINUCB_ALPHA
    ridge_lambda: float = DEFAULT_RIDGE_LAMBDA
    name = "linucb"
    draws = False

    def __post_init__(self):
        super().__post_init__()
        if not (math.isfinite(self.alpha) and self.alpha >= 0):
            raise PolicyError(f"width multiplier must be finite and >= 0, got {self.alpha}")

    @staticmethod
    def _factor(Vinv):
        return Vinv

    def act_reps(self, states, b, rngs, rows, contexts=None) -> np.ndarray:
        xs = self._contexts(contexts, rows, b)
        theta, Vinv = self._factors(states, rows)
        widths = np.sqrt(np.einsum("rbd,rkde,rbe->rbk", xs, Vinv, xs))
        scores = xs @ theta.transpose(0, 2, 1)
        return np.argmax(scores + self.alpha * widths, axis=2)


@dataclass(frozen=True)
class LinTsPolicy(_LinearBase):
    """Linear Thompson sampling from each arm's ridge posterior N(V_a^-1 z_a,
    V_a^-1): arm ``a`` draws through the Cholesky factor of ``V_a^-1`` from
    block ``a`` of a step's ``k * p`` standard normals, which the caller
    draws and passes as ``noise``; it touches no generator."""

    k: int
    context_dim: int
    ridge_lambda: float = DEFAULT_RIDGE_LAMBDA
    name = "lints"

    _factor = staticmethod(np.linalg.cholesky)

    def act_reps(self, states, b, rngs, rows, contexts=None, noise=None) -> np.ndarray:
        xs = self._contexts(contexts, rows, b)
        if noise is None:
            raise PolicyError("lints proposes from (len(rows), b, k * p) normals its caller draws")
        theta, chol = self._factors(states, rows)
        blocks = noise.reshape(len(rows), b, self.k, self.context_dim)
        draws = theta[:, None] + np.einsum("rkde,rbke->rbkd", chol, blocks)
        return np.argmax(np.einsum("rbkd,rbd->rbk", draws, xs), axis=2)


def _pop_number(params: dict, key: str, default=None, integral: bool = False):
    """Pop ``key`` as a float, or as an int when ``integral``, or raise ``PolicyError``."""
    value = params.pop(key, default)
    if not isinstance(value, numbers.Real):
        raise PolicyError(f"{key} must be a number, got {value!r}")
    try:
        x = float(value)
    except OverflowError:
        raise PolicyError(f"{key} is too large for a float") from None
    if integral and not x.is_integer():
        raise PolicyError(f"{key} must be an integer, got {value!r}")
    return int(value if isinstance(value, numbers.Integral) else x) if integral else x


POLICY_NAMES = ("ucb", "ts", "linucb", "lints", "uniform", "two_phase", "fixed")


def make_policy(
    name: str,
    k: int,
    context_dim: int | None = None,
    params: dict | None = None,
    env_means: np.ndarray | None = None,
):
    """Build a policy from its registry name and hyperparameter dict.

    Recognised keys: ``ucb_c``, ``ridge_lambda``, ``linucb_alpha``,
    ``switch_t``, ``fixed_arm``.  A key the policy does not take, a value
    that is not a number and a non-integral ``switch_t`` or ``fixed_arm``
    raise ``PolicyError``.  The two-phase probe needs ``env_means``.
    """
    p = dict(params or {})
    if name == "ucb":
        policy = UcbPolicy(k, c=_pop_number(p, "ucb_c", DEFAULT_UCB_C))
    elif name == "ts":
        policy = ThompsonBetaPolicy(k)
    elif name == "uniform":
        policy = UniformPolicy(k)
    elif name == "linucb":
        if context_dim is None:
            raise PolicyError("linucb needs a context dimension")
        policy = LinUcbPolicy(
            k,
            context_dim,
            alpha=_pop_number(p, "linucb_alpha", DEFAULT_LINUCB_ALPHA),
            ridge_lambda=_pop_number(p, "ridge_lambda", DEFAULT_RIDGE_LAMBDA),
        )
    elif name == "lints":
        if context_dim is None:
            raise PolicyError("lints needs a context dimension")
        policy = LinTsPolicy(
            k,
            context_dim,
            ridge_lambda=_pop_number(p, "ridge_lambda", DEFAULT_RIDGE_LAMBDA),
        )
    elif name == "two_phase":
        if env_means is None:
            raise PolicyError("two_phase needs environment means")
        if "switch_t" not in p:
            raise PolicyError("two_phase needs switch_t")
        means = np.asarray(env_means, dtype=float)
        policy = TwoPhaseSwitchPolicy(
            k,
            good_arm=int(np.argmax(means)),
            bad_arm=int(np.argmin(means)),
            switch_t=_pop_number(p, "switch_t", integral=True),
        )
    elif name == "fixed":
        if "fixed_arm" not in p:
            raise PolicyError("fixed needs fixed_arm")
        policy = FixedArmPolicy(k, arm=_pop_number(p, "fixed_arm", integral=True))
    else:
        raise PolicyError(f"unknown policy {name!r}; choose from {POLICY_NAMES}")
    if p:
        raise PolicyError(f"{name} takes no parameter {', '.join(map(repr, sorted(p)))}")
    return policy
