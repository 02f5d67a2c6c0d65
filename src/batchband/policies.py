"""Bandit policies behind one rep-batched protocol.

A policy runs ``R`` reps in lockstep through three operations:

* ``init_reps(R)``: the state of ``R`` reps before any feedback, arrays
  with a leading rep axis.
* ``act_reps(states, b, rngs, rows[, features])``: ``(len(rows), b)``
  actions for the reps ``rows``, each rep playing ``b`` steps from its
  frozen state and drawing from its own generator ``rngs[r]``.  The linear
  policies read ``features``, one ``(b, k, dim)`` feature tensor per row.
* ``update_reps(states, actions, rewards)``: absorb ``(R, m)`` released
  actions and rewards in place and return the states; the linear policies
  take the chosen feature vectors, ``(R, m, dim)``, as actions.

Every rep has seen the same amount of feedback, ``t_seen``.  ``draws``
says whether ``act_reps`` consumes the generators; a policy that draws
nothing plays a pure function of its state and features.  ``adaptive``
says whether ``act_reps`` reads the state at all; a policy that is not
adaptive (uniform and fixed-arm play) ignores feedback, so ``b`` steps from
any state are ``b`` steps from the initial one.  State is frozen within a
batch, so the played rule is constant inside it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import DimensionMismatchError

DEFAULT_UCB_C = 1.0
DEFAULT_RIDGE_LAMBDA = 1.0
DEFAULT_LINUCB_ALPHA = 1.0


class PolicyError(ValueError):
    """Raised for invalid policy configuration or misuse."""


def rep_bincount(actions, k):
    """Per-rep ``bincount`` of an ``(R, m)`` action array, shape ``(R, k)``."""
    reps = actions.shape[0]
    flat = (actions + np.arange(0, reps * k, k)[:, None]).ravel()
    return np.bincount(flat, minlength=reps * k).reshape(reps, k)


@dataclass(eq=False, slots=True)
class RepCounts:
    """Pull counts and reward sums of ``R`` lockstep reps, shape ``(R, k)``.

    Counts are float64, exact below 2**53, so indices divide float by float.
    ``offsets`` ``(R, 1)`` holds ``r * k``, the start of rep ``r``'s row in
    the flattened arrays.  ``unpulled`` stays true until no count is zero
    any more.
    """

    counts: np.ndarray
    sums: np.ndarray
    offsets: np.ndarray
    t_seen: int
    unpulled: bool = True


@dataclass(eq=False, slots=True)
class RepRidge:
    """Ridge statistics of ``R`` lockstep reps: design matrices ``V``
    ``(R, d, d)`` and response vectors ``z`` ``(R, d)``.

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

    def act_reps(self, states, b, rngs, rows, features=None) -> np.ndarray:
        raise NotImplementedError

    def update_reps(self, states, actions, rewards):
        raise NotImplementedError


class _CountPolicy(BasePolicy):
    """Finite-armed policy whose state is pull counts and reward sums.

    Every update absorbs the released pulls.  Every finite-armed policy reads
    its rule from this one state, and the delayed-start gate reads its uniform
    phase's counts and sums.
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
        flat = (actions + states.offsets).ravel()
        np.add.at(states.counts.ravel(), flat, 1.0)
        np.add.at(states.sums.ravel(), flat, rewards.ravel())
        states.t_seen += actions.shape[1]
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
        counts = states.counts
        bonus = 2.0 * math.log(states.t_seen + 1)
        if states.unpulled:
            states.unpulled = bool((counts == 0).any())
        if not states.unpulled:
            idx = states.sums / counts + self.c * np.sqrt(bonus / counts)
        else:
            # entering errstate costs about as much as the index itself,
            # so only while some count is still zero
            with np.errstate(divide="ignore", invalid="ignore"):
                idx = states.sums / counts + self.c * np.sqrt(bonus / counts)
            idx[counts == 0] = math.inf
        arms = idx.argmax(axis=1)
        if rows.size < arms.size:
            arms = arms[rows]
        return arms[:, None].repeat(b, axis=1)


# Up to this many draws per rep and batch, scalar generator calls beat one
# array call, which consumes the generator identically, in C order: k*b
# scalar ``Generator.beta`` calls cost about 1.3 us each against about 16 us
# for the array call, and b scalar ``integers(k)`` calls about 2.2 us each
# against about 7.5 us for ``integers(0, k, size=b)``.
_SCALAR_BETA_MAX = 12
_SCALAR_INTEGERS_MAX = 3


@dataclass(frozen=True)
class ThompsonBetaPolicy(_CountPolicy):
    """Beta-Bernoulli Thompson sampling from a flat Beta(1, 1) prior.

    Each arm's posterior is ``Beta(1 + sums, 1 + counts - sums)``, the
    successes and failures read from the shared counts and sums.  Each step
    samples one mean per arm from the posterior and plays the argmax; under
    batch feedback the posterior is frozen, but every step in the batch
    still gets a fresh draw.
    """

    k: int
    name = "ts"

    def act_reps(self, states, b, rngs, rows) -> np.ndarray:
        k = self.k
        rows = rows.tolist()
        if b * k <= _SCALAR_BETA_MAX:
            counts, sums = states.counts.tolist(), states.sums.tolist()
            flat = []
            for r in rows:
                draw, n, s = rngs[r].beta, counts[r], sums[r]
                for _ in range(b):
                    for a in range(k):
                        flat.append(draw(1.0 + s[a], 1.0 + n[a] - s[a]))
            draws = np.array(flat).reshape(len(rows), b, k)
        else:
            alpha = 1.0 + states.sums
            beta = 1.0 + states.counts - states.sums
            draws = np.stack([rngs[r].beta(alpha[r], beta[r], size=(b, k)) for r in rows])
        return draws.argmax(axis=2)


@dataclass(frozen=True)
class UniformPolicy(_CountPolicy):
    """Plays every arm with equal probability, ignoring feedback."""

    k: int
    name = "uniform"
    adaptive = False

    def act_reps(self, states, b, rngs, rows) -> np.ndarray:
        k = self.k
        if b <= _SCALAR_INTEGERS_MAX:
            ints = [rngs[r].integers for r in rows.tolist()]
            flat = [draw(k) for draw in ints for _ in range(b)]
            return np.array(flat, dtype=np.int64).reshape(len(ints), b)
        return np.array([rngs[r].integers(0, k, size=b) for r in rows])


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

    def act_reps(self, states, b, rngs, rows) -> np.ndarray:
        return np.full((len(rows), b), self.arm, dtype=np.int64)


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

    Every rep's statistics are updated and factored at once, as stacked
    arrays; each stacked ``matmul``, ``solve``, ``inv`` and ``cholesky``
    computes a rep's slice as a lone run would, bit for bit.
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
        d = self.dim
        V = np.tile(self.ridge_lambda * np.eye(d), (reps, 1, 1))
        return RepRidge(V, np.zeros((reps, d)), 0)

    def _features(self, features, rows, b):
        if features is None:
            raise PolicyError(f"{self.name} requires a feature set per step")
        fs = np.asarray(features, dtype=float)
        if fs.shape != (len(rows), b, self.k, self.dim):
            raise DimensionMismatchError(
                f"features must have shape ({len(rows)}, {b}, {self.k}, {self.dim})"
            )
        return fs

    def update_reps(self, states, actions, rewards):
        feats = np.asarray(actions, dtype=float)
        if feats.ndim != 3 or feats.shape[2] != self.dim:
            raise DimensionMismatchError(
                "linear policies update from chosen feature vectors"
            )
        feats_t = feats.transpose(0, 2, 1)
        states.V += feats_t @ feats
        states.z += (feats_t @ rewards[..., None])[..., 0]
        states.t_seen += feats.shape[1]
        states.factors = None
        return states

    def _factors(self, states, rows):
        if states.factors is None:
            states.factors = self._factor(states.V, states.z[..., None])
        return [f.take(rows, axis=0) for f in states.factors]


@dataclass(frozen=True)
class LinUcbPolicy(_LinearBase):
    """Disjoint-model linear UCB with a ridge estimate.

    Scores each arm by ``<theta_hat, psi> + alpha * sqrt(psi' V^-1 psi)``
    where ``V = lambda I + sum psi psi'`` and ``z = sum psi X``.
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
    def _factor(V, z):
        return np.linalg.solve(V, z)[..., 0], np.linalg.inv(V)

    def act_reps(self, states, b, rngs, rows, features=None) -> np.ndarray:
        fs = self._features(features, rows, b)
        theta_hat, Vinv = self._factors(states, rows)
        widths = np.sqrt(np.einsum("rbkd,rde,rbke->rbk", fs, Vinv, fs))
        scores = (fs @ theta_hat[:, None, :, None])[..., 0]
        return np.argmax(scores + self.alpha * widths, axis=2)


@dataclass(frozen=True)
class LinTsPolicy(_LinearBase):
    """Linear Thompson sampling from the ridge posterior N(V^-1 z, V^-1)."""

    k: int
    context_dim: int
    ridge_lambda: float = DEFAULT_RIDGE_LAMBDA
    name = "lints"

    @staticmethod
    def _factor(V, z):
        Vinv = np.linalg.inv(V)
        return (Vinv @ z)[..., 0], np.linalg.cholesky(Vinv)

    def act_reps(self, states, b, rngs, rows, features=None) -> np.ndarray:
        fs = self._features(features, rows, b)
        mean, chol = self._factors(states, rows)
        noise = np.empty((len(rows), b, self.dim))
        for i, r in enumerate(rows.tolist()):
            rngs[r].standard_normal(out=noise[i])
        draws = mean[:, None] + noise @ chol.transpose(0, 2, 1)
        return np.argmax(np.einsum("rbkd,rbd->rbk", fs, draws), axis=2)


def _pop_number(params: dict, key: str, default=None, integral: bool = False):
    """Pop ``key`` as a float, or as an int when ``integral``, or raise ``PolicyError``."""
    value = params.pop(key, default)
    try:
        x = float(value)
    except (TypeError, ValueError):
        raise PolicyError(f"{key} must be a number, got {value!r}") from None
    if integral and not x.is_integer():
        raise PolicyError(f"{key} must be an integer, got {value!r}")
    return int(x) if integral else x


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
