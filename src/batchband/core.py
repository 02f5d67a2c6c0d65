"""Shared primitives: seed derivation, batch grids, decision rules, CSV.

Everything downstream (policies, runners, verifiers) speaks in terms of the
types defined here.  A run over horizon ``n`` is partitioned into ``M``
batches of equal size ``b``; decisions inside batch ``j`` see only the
feedback released at earlier batch boundaries.
"""

from __future__ import annotations

import hashlib
import operator
import re
from dataclasses import dataclass
from itertools import chain

import numpy as np

PROB_TOL = 1e-12


def derive_seed(master_seed: int, *parts) -> int:
    """Stable 64-bit seed from a master seed and arbitrary key parts.

    Hash-based (sha256), so it is platform-independent, insensitive to
    Python's hash randomisation, and extending a sweep with more reps or
    cells never perturbs the seeds of existing ones.
    """
    key = "|".join([str(master_seed), *(str(p) for p in parts)])
    digest = hashlib.sha256(key.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


def check_seed(seed, error=ValueError) -> int:
    """``seed`` as an ``int``, or ``error`` unless ``operator.index`` takes it
    and it is >= 0: None would seed from OS entropy, and a float would be
    truncated or refused inside numpy."""
    try:
        seed = operator.index(seed)
    except TypeError:
        raise error(f"seed must be a non-negative integer, got {seed!r}") from None
    if seed < 0:
        raise error(f"seed must be a non-negative integer, got {seed}")
    return seed


def write_csv(path, header, blocks) -> None:
    """Write ``header``, then each block of ``blocks``, to ``path``.

    Every CSV here is written so.  A block is a tuple of equal-length
    columns, each a numpy array, a ``range`` or a sequence of cells, and
    one block is formatted and written before the next is built, so only
    one block is held in memory at a time.  The bytes are what
    ``csv.writer`` writes for the same rows: a float as ``repr``, which
    reads back exactly; an int or a string as ``str``; None as an empty
    cell; and a cell holding ``,``, ``"``, CR or LF quoted.  A float64
    array is ``repr``'d once per run of bit-identical values, so the bytes
    are as before and repeated values cost no formatting.
    """
    with open(path, "w", newline="") as fh:
        for block in chain([[[h] for h in header]], blocks):
            cols = [_cells(col) for col in block]
            if len({len(c) for c in cols}) > 1:
                raise ValueError("the columns of a CSV block differ in length")
            if len(cols) == 1:  # the csv module quotes a row's only cell when empty
                cols[0] = [c or '""' for c in cols[0]]
            fh.write("\r\n".join(chain(map(",".join, zip(*cols)), [""])))


_NEEDS_QUOTES = re.compile('[,"\r\n]')


def _cells(col) -> list:
    """The text of each cell of one column, as the csv module writes it."""
    if isinstance(col, np.ndarray):
        if col.dtype == np.float64:
            # runs of equal bits, not of equal values: -0.0 and 0.0 differ
            bits = col.view(np.int64)
            new = np.ones(col.size, dtype=bool)
            np.not_equal(bits[1:], bits[:-1], out=new[1:])
            starts = np.flatnonzero(new)
            reprs = np.array(list(map(repr, col[starts].tolist())), dtype=object)
            return reprs.repeat(np.diff(starts, append=col.size)).tolist()
        if col.dtype.kind in "iu":
            return list(map(str, col.tolist()))
        col = col.tolist()
    if isinstance(col, range):
        return list(map(str, col))
    cells = ["" if x is None else str(x) for x in col]
    quoted = {s: '"' + s.replace('"', '""') + '"' for s in set(cells) if _NEEDS_QUOTES.search(s)}
    return [quoted.get(s, s) for s in cells] if quoted else cells


class GridError(ValueError):
    """Raised for invalid batch-grid parameters or out-of-range timesteps."""


class DimensionMismatchError(ValueError):
    """Raised when a rule, instance, or feature dimension disagrees."""


@dataclass(frozen=True, slots=True)
class BatchGrid:
    """Equal-size batch grid over a truncated horizon.

    Attributes
    ----------
    n : int
        Truncated horizon, always a multiple of ``b``.
    b : int
        Batch size.
    M : int
        Number of batches, ``n // b``.
    """

    n: int
    b: int
    M: int


def make_grid(n_raw: int, b: int) -> BatchGrid:
    """Build a batch grid, truncating the horizon to a multiple of ``b``.

    Parameters
    ----------
    n_raw : int
        Requested horizon; truncated to ``(n_raw // b) * b``.
    b : int
        Batch size, at least 1.

    Returns
    -------
    BatchGrid

    Raises
    ------
    GridError
        If ``n_raw`` or ``b`` is not an integer (``operator.index`` refuses
        it), ``b < 1`` or the truncated horizon is empty (``n_raw < b``).
    """
    try:
        n_raw, b = operator.index(n_raw), operator.index(b)
    except TypeError:
        raise GridError(f"horizon and batch size must be integers, got {n_raw!r} and {b!r}") from None
    if b < 1:
        raise GridError(f"batch size must be >= 1, got {b}")
    if n_raw < b:
        raise GridError(f"horizon {n_raw} shorter than one batch of {b}")
    m = n_raw // b
    return BatchGrid(n=m * b, b=b, M=m)


@dataclass(frozen=True, eq=False)
class Instance:
    """Mean-parameter vector of an environment (arm means or a weight vector)."""

    theta: np.ndarray

    def __post_init__(self) -> None:
        arr = np.array(self.theta, dtype=float)  # a copy: the caller's array stays writeable
        if arr.ndim != 1 or arr.size == 0:
            raise DimensionMismatchError("instance vector must be 1-D and non-empty")
        if not np.all(np.isfinite(arr)):
            raise ValueError("instance vector must be finite")
        arr.flags.writeable = False
        object.__setattr__(self, "theta", arr)

    @property
    def dim(self) -> int:
        return int(self.theta.size)


@dataclass(frozen=True, eq=False)
class DecisionRule:
    """A probability vector over arms; the per-step output of a policy.

    Point masses model deterministic choices and realised posterior draws.
    Validation enforces non-negativity and unit sum within ``PROB_TOL``.
    """

    probs: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.probs, dtype=float)
        if arr.ndim != 1 or arr.size == 0:
            raise DimensionMismatchError("rule must be a non-empty 1-D vector")
        if not np.all(np.isfinite(arr)):
            raise ValueError("rule probabilities must be finite")
        if np.any(arr < -PROB_TOL):
            raise ValueError("rule probabilities must be non-negative")
        total = float(arr.sum())
        if abs(total - 1.0) > max(PROB_TOL, PROB_TOL * arr.size):
            raise ValueError(f"rule probabilities sum to {total!r}, not 1")
        arr = np.clip(arr, 0.0, None)
        arr.flags.writeable = False
        object.__setattr__(self, "probs", arr)

    @property
    def k(self) -> int:
        return int(self.probs.size)


def rule_value(rule: DecisionRule, instance: Instance) -> float:
    """Expected one-step mean reward of ``rule`` under ``instance``.

    Examples
    --------
    A 50/50 rule on means (0.7, 0.5) is worth 0.6.
    """
    if rule.k != instance.dim:
        raise DimensionMismatchError(
            f"rule has {rule.k} arms, instance has {instance.dim}"
        )
    return float(rule.probs @ instance.theta)
