"""Bandit policies with a functional state API.

Every policy exposes the same four operations:

* ``init_state()``: fresh state before any feedback.
* ``decide(state, t, rng, feature_set=None)``: the realised decision rule
  for one step, as a probability vector.  Deterministic policies and
  posterior-sampling draws yield point masses; the uniform policy yields the
  flat vector.  Rules are pure functions of the *state*, so a policy whose
  state is frozen for a whole batch plays a constant rule inside it.
* ``act_batch(state, b, rng, feature_sets=None)``: ``b`` realised actions
  from the frozen state, consuming the generator in one vectorised call.
* ``update(state, entries)``: a new state absorbing released feedback.

States are immutable; ``update`` returns a fresh value, and ``update``
adapts history entries onto the array-based ``update_arrays``.

The run engine drives ``R`` reps in lockstep through a second, rep-batched
protocol: ``init_reps(R)``, ``act_reps(states, b, rngs, rows)`` returning
``(len(rows), b)`` actions for the reps ``rows``, and ``update_reps``, which
absorbs ``(R, m)`` actions and rewards in place.  ``draws`` says whether
``act_reps`` consumes the reps' generators.  The default keeps one
functional state per rep and defers to ``act_batch``/``update_arrays``;
the finite-armed policies override it with ``(R, k)`` arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import DecisionRule, DimensionMismatchError

DEFAULT_UCB_C = 1.0
DEFAULT_RIDGE_LAMBDA = 1.0
DEFAULT_LINUCB_ALPHA = 1.0


class PolicyError(ValueError):
    """Raised for invalid policy configuration or misuse."""


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


def rep_bincount(actions, k, weights=None):
    """Per-rep ``bincount`` of an ``(R, m)`` action array, shape ``(R, k)``.

    Each cell sums its rep's entries in step order, like ``np.bincount`` on
    that rep alone.
    """
    reps = actions.shape[0]
    flat = (actions + np.arange(0, reps * k, k)[:, None]).ravel()
    w = None if weights is None else weights.ravel()
    return np.bincount(flat, weights=w, minlength=reps * k).reshape(reps, k)


def _entries_to_arrays(entries):
    actions = [e.action for e in entries]
    rewards = np.array([e.reward for e in entries], dtype=float)
    if actions and isinstance(actions[0], (int, np.integer)):
        return np.array(actions, dtype=np.int64), rewards
    return np.stack([np.asarray(a, dtype=float) for a in actions]), rewards


@dataclass(frozen=True, slots=True)
class CountState:
    """Per-arm pull counts and reward sums, plus total feedback seen."""

    counts: tuple
    sums: tuple
    t_seen: int


@dataclass(frozen=True, slots=True, eq=False)
class BetaState:
    """Beta posterior parameters per arm, plus total feedback seen."""

    alpha: np.ndarray
    beta: np.ndarray
    t_seen: int

    def __eq__(self, other):
        return (
            isinstance(other, BetaState)
            and self.t_seen == other.t_seen
            and np.array_equal(self.alpha, other.alpha)
            and np.array_equal(self.beta, other.beta)
        )


@dataclass(eq=False, slots=True)
class RepCounts:
    """Pull counts and reward sums of ``R`` lockstep reps, shape ``(R, k)``.

    Every rep has seen the same amount of feedback, ``t_seen``.  Updated in
    place by ``update_reps``.  ``unpulled`` stays true until no count is
    zero any more.
    """

    counts: np.ndarray
    sums: np.ndarray
    t_seen: int
    unpulled: bool = True

    @staticmethod
    def zeros(reps: int, k: int) -> "RepCounts":
        return RepCounts(np.zeros((reps, k), dtype=np.int64), np.zeros((reps, k)), 0)


@dataclass(eq=False, slots=True)
class RepBeta:
    """Beta posterior parameters of ``R`` lockstep reps, shape ``(R, k)``."""

    alpha: np.ndarray
    beta: np.ndarray
    t_seen: int


class BasePolicy:
    name = "base"
    draws = True

    def init_state(self):
        raise NotImplementedError

    def decide(self, state, t, rng, feature_set=None) -> DecisionRule:
        raise NotImplementedError

    def act_batch(self, state, b, rng, feature_sets=None) -> np.ndarray:
        raise NotImplementedError

    def act(self, state, rng, feature_set=None) -> int:
        sets = None if feature_set is None else np.asarray(feature_set)[None, :, :]
        return int(self.act_batch(state, 1, rng, feature_sets=sets)[0])

    def update_arrays(self, state, actions, rewards):
        raise NotImplementedError

    def update(self, state, entries):
        """Absorb a list of history entries into the state."""
        entries = list(entries)
        if not entries:
            return state
        actions, rewards = _entries_to_arrays(entries)
        return self.update_arrays(state, actions, rewards)

    def init_reps(self, reps: int):
        return [self.init_state() for _ in range(reps)]

    def act_reps(self, states, b, rngs, rows) -> np.ndarray:
        return np.array(
            [self.act_batch(states[r], b, rngs[r]) for r in rows], dtype=np.int64
        )

    def update_reps(self, states, actions, rewards):
        for r, state in enumerate(states):
            states[r] = self.update_arrays(state, actions[r], rewards[r])
        return states


class _CountPolicy(BasePolicy):
    """Finite-armed policy whose state is pull counts and reward sums.

    These updates only advance ``t_seen``, all that uniform, fixed-arm and
    two-phase play read; the index policy overrides them.
    """

    def __post_init__(self):
        if self.k < 2:
            raise PolicyError("need at least 2 arms")

    def init_state(self) -> CountState:
        return CountState(counts=(0,) * self.k, sums=(0.0,) * self.k, t_seen=0)

    def update_arrays(self, state, actions, rewards):
        return CountState(state.counts, state.sums, state.t_seen + int(actions.size))

    def init_reps(self, reps: int) -> RepCounts:
        return RepCounts.zeros(reps, self.k)

    def update_reps(self, states, actions, rewards):
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
        if self.c < 0:
            raise PolicyError("exploration constant must be non-negative")

    def _best_arm(self, state: CountState) -> int:
        counts = state.counts
        for a in range(self.k):
            if counts[a] == 0:
                return a
        t_eff = state.t_seen + 1
        bonus = 2.0 * math.log(t_eff)
        best, best_v = 0, -math.inf
        for a in range(self.k):
            v = state.sums[a] / counts[a] + self.c * math.sqrt(bonus / counts[a])
            if v > best_v:
                best, best_v = a, v
        return best

    def indices(self, state: CountState) -> np.ndarray:
        """Current index vector (inf for unpulled arms)."""
        t_eff = state.t_seen + 1
        out = np.empty(self.k)
        for a in range(self.k):
            if state.counts[a] == 0:
                out[a] = math.inf
            else:
                out[a] = state.sums[a] / state.counts[a] + self.c * math.sqrt(
                    2.0 * math.log(t_eff) / state.counts[a]
                )
        return out

    def decide(self, state, t, rng, feature_set=None) -> DecisionRule:
        return DecisionRule.point_mass(self._best_arm(state), self.k)

    def act_batch(self, state, b, rng, feature_sets=None) -> np.ndarray:
        return np.full(b, self._best_arm(state), dtype=np.int64)

    def update_arrays(self, state, actions, rewards):
        counts = list(state.counts)
        sums = list(state.sums)
        if actions.size == 1:
            a = int(actions[0])
            counts[a] += 1
            sums[a] += float(rewards[0])
        else:
            counts_add = np.bincount(actions, minlength=self.k)
            sums_add = np.bincount(actions, weights=rewards, minlength=self.k)
            for a in range(self.k):
                counts[a] += int(counts_add[a])
                sums[a] += float(sums_add[a])
        return CountState(tuple(counts), tuple(sums), state.t_seen + int(actions.size))

    def act_reps(self, states, b, rngs, rows) -> np.ndarray:
        # the same IEEE operations as _best_arm, elementwise; the log is
        # taken once with math.log because every rep shares t_seen
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
        return idx.argmax(axis=1)[rows, None].repeat(b, axis=1)

    def update_reps(self, states, actions, rewards):
        states.counts += rep_bincount(actions, self.k)
        states.sums += rep_bincount(actions, self.k, rewards)
        states.t_seen += actions.shape[1]
        return states


# Below this many draws per rep and batch, k*b scalar ``Generator.beta``
# calls (about 1.3 us each) beat one array call (about 16 us); both consume
# the generator identically, in C order.
_SCALAR_BETA_MAX = 12


@dataclass(frozen=True)
class ThompsonBetaPolicy(BasePolicy):
    """Beta-Bernoulli Thompson sampling from a flat Beta(1, 1) prior.

    Each step samples one mean per arm from the posterior and plays the
    argmax; under batch feedback the posterior is frozen, but every step in
    the batch still gets a fresh draw.
    """

    k: int
    name = "ts"

    def __post_init__(self):
        if self.k < 2:
            raise PolicyError("need at least 2 arms")

    def init_state(self) -> BetaState:
        return BetaState(
            alpha=_frozen(np.ones(self.k)), beta=_frozen(np.ones(self.k)), t_seen=0
        )

    def _sample_best(self, state, rng) -> int:
        # scalar beta draws skip numpy's array-parameter validation
        alpha, beta = state.alpha, state.beta
        best, best_v = 0, -1.0
        for a in range(self.k):
            d = rng.beta(alpha[a], beta[a])
            if d > best_v:
                best, best_v = a, d
        return best

    def decide(self, state, t, rng, feature_set=None) -> DecisionRule:
        return DecisionRule.point_mass(self._sample_best(state, rng), self.k)

    def act_batch(self, state, b, rng, feature_sets=None) -> np.ndarray:
        if b == 1:
            return np.array([self._sample_best(state, rng)])
        draws = rng.beta(state.alpha, state.beta, size=(b, self.k))
        return np.argmax(draws, axis=1)

    def update_arrays(self, state, actions, rewards):
        alpha = state.alpha.copy()
        beta = state.beta.copy()
        if actions.size == 1:
            a = int(actions[0])
            r = float(rewards[0])
            alpha[a] += r
            beta[a] += 1.0 - r
        else:
            succ = np.bincount(actions, weights=rewards, minlength=self.k)
            tot = np.bincount(actions, minlength=self.k)
            alpha += succ
            beta += tot - succ
        return BetaState(_frozen(alpha), _frozen(beta), state.t_seen + int(actions.size))

    def init_reps(self, reps: int) -> RepBeta:
        return RepBeta(np.ones((reps, self.k)), np.ones((reps, self.k)), 0)

    def act_reps(self, states, b, rngs, rows) -> np.ndarray:
        k = self.k
        rows = rows.tolist()
        if b * k <= _SCALAR_BETA_MAX:
            alpha, beta = states.alpha.tolist(), states.beta.tolist()
            flat = []
            for r in rows:
                draw, al, be = rngs[r].beta, alpha[r], beta[r]
                for _ in range(b):
                    for a in range(k):
                        flat.append(draw(al[a], be[a]))
            draws = np.array(flat).reshape(len(rows), b, k)
        else:
            draws = np.stack(
                [rngs[r].beta(states.alpha[r], states.beta[r], size=(b, k)) for r in rows]
            )
        return np.argmax(draws, axis=2)

    def update_reps(self, states, actions, rewards):
        succ = rep_bincount(actions, self.k, rewards)
        states.alpha += succ
        states.beta += rep_bincount(actions, self.k) - succ
        states.t_seen += actions.shape[1]
        return states


@dataclass(frozen=True)
class UniformPolicy(_CountPolicy):
    """Plays every arm with equal probability, ignoring feedback."""

    k: int
    name = "uniform"

    def decide(self, state, t, rng, feature_set=None) -> DecisionRule:
        return DecisionRule.uniform(self.k)

    def act_batch(self, state, b, rng, feature_sets=None) -> np.ndarray:
        return rng.integers(0, self.k, size=b)

    def act_reps(self, states, b, rngs, rows) -> np.ndarray:
        return np.array([rngs[r].integers(0, self.k, size=b) for r in rows])


@dataclass(frozen=True)
class FixedArmPolicy(_CountPolicy):
    """Always plays one arm; a degenerate probe for boundary cases."""

    k: int
    arm: int
    name = "fixed"
    draws = False

    def __post_init__(self):
        if not 0 <= self.arm < self.k:
            raise PolicyError(f"arm {self.arm} outside 0..{self.k - 1}")

    def decide(self, state, t, rng, feature_set=None) -> DecisionRule:
        return DecisionRule.point_mass(self.arm, self.k)

    def act_batch(self, state, b, rng, feature_sets=None) -> np.ndarray:
        return np.full(b, self.arm, dtype=np.int64)

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
        if not (0 <= self.good_arm < self.k and 0 <= self.bad_arm < self.k):
            raise PolicyError("arms outside range")
        if self.switch_t < 0:
            raise PolicyError("switch_t must be non-negative")

    def _arm(self, state) -> int:
        return self.good_arm if state.t_seen + 1 <= self.switch_t else self.bad_arm

    def decide(self, state, t, rng, feature_set=None) -> DecisionRule:
        return DecisionRule.point_mass(self._arm(state), self.k)

    def act_batch(self, state, b, rng, feature_sets=None) -> np.ndarray:
        return np.full(b, self._arm(state), dtype=np.int64)

    def act_reps(self, states, b, rngs, rows) -> np.ndarray:
        return np.full((len(rows), b), self._arm(states), dtype=np.int64)


@dataclass(frozen=True, slots=True)
class LinState:
    """Ridge statistics: design matrix V, response vector z, feedback count."""

    V: np.ndarray
    z: np.ndarray
    t_seen: int


class _LinearBase(BasePolicy):
    """Shared ridge bookkeeping for the linear policies."""

    def init_state(self) -> LinState:
        d = self.dim
        return LinState(
            V=_frozen(self.ridge_lambda * np.eye(d)),
            z=_frozen(np.zeros(d)),
            t_seen=0,
        )

    def _check_features(self, feature_set):
        if feature_set is None:
            raise PolicyError(f"{self.name} requires a feature set per step")
        fs = np.asarray(feature_set, dtype=float)
        if fs.shape != (self.k, self.dim):
            raise DimensionMismatchError(
                f"feature set must have shape ({self.k}, {self.dim})"
            )
        return fs

    def update_arrays(self, state, actions, rewards):
        feats = np.asarray(actions, dtype=float)
        if feats.ndim != 2 or feats.shape[1] != self.dim:
            raise DimensionMismatchError(
                "linear policies update from chosen feature vectors"
            )
        V = state.V + feats.T @ feats
        z = state.z + feats.T @ rewards
        return LinState(_frozen(V), _frozen(z), state.t_seen + feats.shape[0])


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

    def __post_init__(self):
        if self.k < 2 or self.context_dim < 1:
            raise PolicyError("need k >= 2 and context_dim >= 1")
        if self.ridge_lambda <= 0:
            raise PolicyError("ridge penalty must be positive")

    @property
    def dim(self) -> int:
        return self.k * self.context_dim

    def decide(self, state, t, rng, feature_set=None) -> DecisionRule:
        fs = self._check_features(feature_set)
        theta_hat = np.linalg.solve(state.V, state.z)
        Vinv = np.linalg.inv(state.V)
        widths = np.sqrt(np.einsum("kd,de,ke->k", fs, Vinv, fs))
        scores = fs @ theta_hat + self.alpha * widths
        return DecisionRule.point_mass(int(np.argmax(scores)), self.k)

    def act_batch(self, state, b, rng, feature_sets=None) -> np.ndarray:
        if feature_sets is None:
            raise PolicyError("linucb requires feature sets")
        fs = np.asarray(feature_sets, dtype=float)
        theta_hat = np.linalg.solve(state.V, state.z)
        Vinv = np.linalg.inv(state.V)
        widths = np.sqrt(np.einsum("bkd,de,bke->bk", fs, Vinv, fs))
        scores = fs @ theta_hat + self.alpha * widths
        return np.argmax(scores, axis=1)


@dataclass(frozen=True)
class LinTsPolicy(_LinearBase):
    """Linear Thompson sampling from the ridge posterior N(V^-1 z, V^-1)."""

    k: int
    context_dim: int
    ridge_lambda: float = DEFAULT_RIDGE_LAMBDA
    name = "lints"

    def __post_init__(self):
        if self.k < 2 or self.context_dim < 1:
            raise PolicyError("need k >= 2 and context_dim >= 1")
        if self.ridge_lambda <= 0:
            raise PolicyError("ridge penalty must be positive")

    @property
    def dim(self) -> int:
        return self.k * self.context_dim

    def _posterior(self, state):
        Vinv = np.linalg.inv(state.V)
        mean = Vinv @ state.z
        chol = np.linalg.cholesky(Vinv)
        return mean, chol

    def decide(self, state, t, rng, feature_set=None) -> DecisionRule:
        fs = self._check_features(feature_set)
        mean, chol = self._posterior(state)
        draw = mean + chol @ rng.standard_normal(self.dim)
        return DecisionRule.point_mass(int(np.argmax(fs @ draw)), self.k)

    def act_batch(self, state, b, rng, feature_sets=None) -> np.ndarray:
        if feature_sets is None:
            raise PolicyError("lints requires feature sets")
        fs = np.asarray(feature_sets, dtype=float)
        mean, chol = self._posterior(state)
        draws = mean + rng.standard_normal((b, self.dim)) @ chol.T
        scores = np.einsum("bkd,bd->bk", fs, draws)
        return np.argmax(scores, axis=1)


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
    ``switch_t``, ``fixed_arm``.  The two-phase probe needs ``env_means``
    to locate its good and bad arms.
    """
    p = dict(params or {})
    if name == "ucb":
        return UcbPolicy(k, c=float(p.pop("ucb_c", DEFAULT_UCB_C)))
    if name == "ts":
        return ThompsonBetaPolicy(k)
    if name == "uniform":
        return UniformPolicy(k)
    if name == "linucb":
        if context_dim is None:
            raise PolicyError("linucb needs a context dimension")
        return LinUcbPolicy(
            k,
            context_dim,
            alpha=float(p.pop("linucb_alpha", DEFAULT_LINUCB_ALPHA)),
            ridge_lambda=float(p.pop("ridge_lambda", DEFAULT_RIDGE_LAMBDA)),
        )
    if name == "lints":
        if context_dim is None:
            raise PolicyError("lints needs a context dimension")
        return LinTsPolicy(
            k,
            context_dim,
            ridge_lambda=float(p.pop("ridge_lambda", DEFAULT_RIDGE_LAMBDA)),
        )
    if name == "two_phase":
        if env_means is None:
            raise PolicyError("two_phase needs environment means")
        if "switch_t" not in p:
            raise PolicyError("two_phase needs switch_t")
        means = np.asarray(env_means, dtype=float)
        return TwoPhaseSwitchPolicy(
            k,
            good_arm=int(np.argmax(means)),
            bad_arm=int(np.argmin(means)),
            switch_t=int(p.pop("switch_t")),
        )
    if name == "fixed":
        if "fixed_arm" not in p:
            raise PolicyError("fixed needs fixed_arm")
        return FixedArmPolicy(k, arm=int(p.pop("fixed_arm")))
    raise PolicyError(f"unknown policy {name!r}; choose from {POLICY_NAMES}")
