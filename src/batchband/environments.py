"""Reward environments and logged-data handling.

Two environment families are supported:

* ``BernoulliEnv``: K independent Bernoulli arms with fixed means.  Ships
  with six named presets covering two-armed gaps from 0.2 to 0.6 and two
  four-armed configurations.
* ``LinearContextualEnv``: disjoint-arm linear model.  A context vector on
  the unit sphere is embedded one-hot per arm, the mean reward is the inner
  product with a global weight vector, and the noise is standard Gaussian,
  all made from standard normals that its caller draws.

Logged datasets for offline replay are plain CSV files with one row per
round: context coordinates (if any), the logged action, the observed reward,
and the logging policy's probability for that action.
"""

from __future__ import annotations

import csv
from dataclasses import InitVar, dataclass
from itertools import count, islice

import numpy as np

from .core import DimensionMismatchError, Instance, check_seed, write_csv

NORM_TOL = 1e-9

# Rows of a logged-data CSV parsed, or formatted, per chunk, so that a log is
# never held whole as text.  On 100k-row logs (BENCH_23.json, medians of 10
# pairs) 256 to 1,024 rows peaked lowest; 2,048, 4,096 and 16,384 peaked 1.2,
# 3.4 and 6.9 MiB higher on a contextual read, and 256 and 512 wrote an env1
# log in 69 and 62 ms against 38-47 ms for larger chunks
_LOG_CHUNK = 1024


class DataError(ValueError):
    """Raised for malformed logged-data records or files."""


@dataclass(frozen=True, eq=False)
class BernoulliEnv:
    """K-armed Bernoulli bandit with means in [0, 1]."""

    means: np.ndarray

    def __post_init__(self) -> None:
        arr = np.array(self.means, dtype=float)  # a copy: the caller's array stays writeable
        if arr.ndim != 1 or arr.size < 2:
            raise DimensionMismatchError("need a 1-D vector of at least 2 means")
        if not np.all((arr >= 0.0) & (arr <= 1.0)):
            raise ValueError("Bernoulli means must lie in [0, 1]")
        arr.flags.writeable = False
        object.__setattr__(self, "means", arr)

    @property
    def k(self) -> int:
        return int(self.means.size)

    @property
    def optimal_arm(self) -> int:
        return int(np.argmax(self.means))

    def instance(self) -> Instance:
        return Instance(self.means)

    def gap_vector(self) -> np.ndarray:
        """Per-arm suboptimality gaps Delta_a = max(means) - means[a]."""
        return float(self.means.max()) - self.means

    def sample_rewards(self, actions: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """Draw one Bernoulli reward per chosen action."""
        actions = np.asarray(actions)
        return (rng.random(actions.size) < self.means[actions]).astype(float)


PRESETS: dict[str, tuple[float, ...]] = {
    "env1": (0.7, 0.5),
    "env2": (0.7, 0.4),
    "env3": (0.7, 0.1),
    "env4": (0.35, 0.18, 0.47, 0.61),
    "env5": (0.40, 0.75, 0.57, 0.49),
    "env6": (0.70, 0.50, 0.30, 0.10),
}


def preset(name: str) -> BernoulliEnv:
    """Look up a named Bernoulli preset (``env1`` .. ``env6``)."""
    try:
        means = PRESETS[name]
    except KeyError:
        raise KeyError(f"unknown preset {name!r}; choose from {sorted(PRESETS)}")
    return BernoulliEnv(np.array(means))


def parse_env(spec: str) -> BernoulliEnv:
    """Resolve a preset name or an inline comma-separated mean list."""
    if spec in PRESETS:
        return preset(spec)
    try:
        means = np.array([float(x) for x in spec.split(",")])
    except ValueError:
        raise ValueError(f"env {spec!r} is neither a preset nor a mean list")
    return BernoulliEnv(means)


def block_features(contexts: np.ndarray, k: int) -> np.ndarray:
    """Disjoint-arm features of ``m`` contexts, shape ``(m, k, k * p)``.

    ``contexts`` is ``(m, p)``.  Arm ``a``'s feature vector for context
    ``i`` is zero except for that context in columns ``[a*p, (a+1)*p)``.
    """
    contexts = np.asarray(contexts, dtype=float)
    if contexts.ndim != 2 or contexts.shape[1] == 0:
        raise DimensionMismatchError("contexts must be a 2-D (m, p) array with p >= 1")
    m, p = contexts.shape
    out = np.zeros((m, k, k * p))
    for a in range(k):
        out[:, a, a * p : (a + 1) * p] = contexts
    return out


@dataclass(frozen=True, eq=False)
class LinearContextualEnv:
    """Disjoint-arm linear environment.

    Contexts are uniform on the unit sphere in ``context_dim`` dimensions
    (``contexts``).  Arm ``a``'s feature vector places the context in block
    ``a`` of a ``k * context_dim`` one-hot layout, so the weight vector has
    dimension ``k * context_dim`` and each arm effectively owns its own
    weight block.  Rewards are the linear mean plus N(0, 1) noise
    (``rewards``).
    """

    theta: np.ndarray
    k: int
    context_dim: int

    def __post_init__(self) -> None:
        arr = np.array(self.theta, dtype=float)  # a copy: the caller's array stays writeable
        if self.k < 2 or self.context_dim < 1:
            raise DimensionMismatchError("need k >= 2 arms and context_dim >= 1")
        if arr.ndim != 1 or arr.size != self.k * self.context_dim:
            raise DimensionMismatchError(
                f"weight vector must have length {self.k * self.context_dim}"
            )
        norm = float(np.linalg.norm(arr))
        if norm > 1.0 + NORM_TOL:
            raise ValueError(f"weight vector norm {norm:.6f} exceeds 1")
        arr.flags.writeable = False
        object.__setattr__(self, "theta", arr)

    @property
    def dim(self) -> int:
        return int(self.theta.size)

    def contexts(self, normals: np.ndarray) -> np.ndarray:
        """Unit contexts from standard normals ``(..., p)``; a zero row stays zero."""
        norms = np.linalg.norm(normals, axis=-1, keepdims=True)
        norms[norms == 0.0] = 1.0
        return normals / norms

    def mean_matrix(self, contexts: np.ndarray) -> np.ndarray:
        """Mean reward of every arm for contexts (..., m, p), shape (..., m, k)."""
        blocks = self.theta.reshape(self.k, self.context_dim)
        return np.asarray(contexts, dtype=float) @ blocks.T

    def rewards(self, chosen_features: np.ndarray, noise: np.ndarray) -> np.ndarray:
        """Rewards of chosen feature vectors ``(..., k * p)``: mean plus ``noise``."""
        return np.asarray(chosen_features, dtype=float) @ self.theta + noise


def make_linear_env(k: int, context_dim: int, seed: int = 0) -> LinearContextualEnv:
    """Convenience constructor: a random unit-norm weight vector."""
    rng = np.random.default_rng(check_seed(seed, DataError))
    raw = rng.standard_normal(k * context_dim)
    return LinearContextualEnv(raw / np.linalg.norm(raw), k=k, context_dim=context_dim)


def _reject_rows(bad: np.ndarray, values: np.ndarray, what: str) -> None:
    """Reject the first row flagged in ``bad``; row ``i`` is CSV line ``i + 2``."""
    rows = np.flatnonzero(bad)
    if rows.size:
        i = int(rows[0])
        raise DataError(f"line {i + 2}: {what}: {values[i].tolist()}")


@dataclass(frozen=True, eq=False)
class LoggedData:
    """A logged dataset: one read-only column per field, one row per round.

    ``contexts`` is ``(n, p)`` float (``p = 0`` without contexts),
    ``actions`` ``(n,)`` int64, ``rewards`` ``(n,)`` float and ``probs``
    ``(n,)`` float, the logging policy's probability of each logged action.
    Construction is the one validation of a log: n >= 1, every value
    finite, every action non-negative and every prob in (0, 1].  It copies
    the caller's columns, unless ``copy`` is false (``read_logged_csv``).
    """

    contexts: np.ndarray
    actions: np.ndarray
    rewards: np.ndarray
    probs: np.ndarray
    copy: InitVar[bool] = True

    def __post_init__(self, copy: bool) -> None:
        contexts = np.array(self.contexts, dtype=float, order="C", copy=copy or None)
        actions = np.asarray(self.actions).astype(np.int64, casting="same_kind", copy=copy)
        rewards = np.array(self.rewards, dtype=float, copy=copy or None)
        probs = np.array(self.probs, dtype=float, copy=copy or None)
        n = contexts.shape[0] if contexts.ndim == 2 else -1
        if any(c.shape != (n,) for c in (actions, rewards, probs)):
            raise DataError("columns must be contexts (n, p) and actions, rewards, probs (n,)")
        if n == 0:
            raise DataError("empty logged dataset")
        _reject_rows(~np.isfinite(contexts).all(axis=1), contexts, "context is not finite")
        _reject_rows(~np.isfinite(rewards), rewards, "reward is not finite")
        _reject_rows(~((probs > 0.0) & (probs <= 1.0)), probs, "logging_prob outside (0, 1]")
        _reject_rows(actions < 0, actions, "action is negative")
        for name, col in zip(("contexts", "actions", "rewards", "probs"),
                             (contexts, actions, rewards, probs)):
            col.flags.writeable = False
            object.__setattr__(self, name, col)


def synth_logged_dataset(
    env: BernoulliEnv | LinearContextualEnv,
    n_records: int,
    seed: int,
) -> LoggedData:
    """Generate a dataset logged by uniform play over the arms.

    Contextual environments draw a fresh context per record: every record's
    context normals after the actions, then every record's reward noise.
    """
    rng = np.random.default_rng(check_seed(seed, DataError))
    k = env.k
    probs = np.full(k, 1.0 / k)
    actions = rng.choice(k, size=n_records, p=probs)
    if isinstance(env, LinearContextualEnv):
        contexts = env.contexts(rng.standard_normal((n_records, env.context_dim)))
        # each context in its arm's columns: block_features' row of that arm
        chosen = np.zeros((n_records, k, env.context_dim))
        chosen[np.arange(n_records), actions] = contexts
        rewards = env.rewards(chosen.reshape(n_records, env.dim), rng.standard_normal(n_records))
    else:
        contexts = np.zeros((n_records, 0))
        rewards = env.sample_rewards(actions, rng)
    return LoggedData(contexts, actions, rewards, probs[actions])


def _csv_header(context_dim: int) -> list[str]:
    return [f"context_{i}" for i in range(context_dim)] + ["action", "reward", "logging_prob"]


def write_logged_csv(data: LoggedData, path) -> None:
    """Write a logged dataset to CSV with the standard header, one block of
    ``_LOG_CHUNK`` rows at a time."""
    cols = (*data.contexts.T, data.actions, data.rewards, data.probs)
    write_csv(path, _csv_header(data.contexts.shape[1]),
              ([c[i : i + _LOG_CHUNK] for c in cols]
               for i in range(0, data.actions.size, _LOG_CHUNK)))


def read_logged_csv(path) -> LoggedData:
    """Read a logged-data CSV, validating the header and every row.

    Rows are parsed ``_LOG_CHUNK`` at a time into columns that grow in place.

    Raises
    ------
    DataError
        With the 1-based line number of the first malformed row; data row
        ``i`` is line ``i + 2``, blank lines included.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise DataError("empty logged-data file")
        p = len(header) - 3
        if p < 0 or header != _csv_header(p):
            raise DataError(f"unexpected header {header!r}")
        cols = [np.empty((0, p)), *(np.empty(0, dtype=t) for t in (np.int64, float, float))]
        for part in _parse_chunks(reader, p):
            n = len(cols[1])
            for col, new in zip(cols, (part[0].T, *part[1:])):
                col.resize((n + len(new), *col.shape[1:]), refcheck=False)
                col[n:] = new
    return LoggedData(*cols, copy=False)


def _parse_chunks(reader, p: int):
    """Each chunk of ``reader``'s rows as ``[contexts (p, m), actions,
    rewards, probs]``; the last chunk is short, and empty if the rows fill
    whole chunks."""

    def parse(rows):
        ragged = [len(row) for row in rows if len(row) != p + 3]
        if ragged:
            raise ValueError(f"expected {p + 3} fields, got {ragged[0]}")
        cols = list(zip(*rows)) or [()] * (p + 3)
        return [np.fromiter(map(t, c), np.int64 if t is int else float)
                for t, c in zip([float] * p + [int, float, float], cols)]

    for start in count(0, _LOG_CHUNK):
        rows = list(islice(reader, _LOG_CHUNK))
        try:
            cols = parse(rows)
        except (ValueError, OverflowError):
            for i, row in enumerate(rows, start):  # name the line at fault
                try:
                    parse([row])
                except (ValueError, OverflowError) as exc:
                    raise DataError(f"line {i + 2}: {exc}") from exc
            raise
        yield [np.array(cols[:p]).reshape(p, len(rows)), *cols[p:]]
        if len(rows) < _LOG_CHUNK:
            return
