"""Offline replay evaluation of policies on logged bandit data.

The evaluator streams logged records in order.  At each record the policy
proposes an action from its currently visible history; when the proposal
equals the logged action the record is matched and its reward is scored
against the success threshold.  Matched records accumulate into a pending
batch, and the policy's history advances only once every ``b`` matched
records, so the effective horizon is the matched count, not the raw
record count.  Unmatched records are skipped without touching history,
which keeps the estimate unbiased under uniform logging.

The policy runs as one rep of the rep-batched protocol, and its generator
is consumed as by one proposal per record, in record order.  Between two
history updates its state is frozen, so each frozen state is asked only as
often as the stream requires:

* a policy that is not ``adaptive`` proposes for the whole log in one call
  and is never updated;
* UCB runs ahead while its leader holds: its leader matches exactly the
  records that log it, so one ``run_ahead_reps`` call on its one rep takes
  the leader's next records, found from per-arm record positions, as whole
  batches, stops at the batch after which another arm leads, and names the
  leader after them;
* two-phase play, LinUCB and LinTS propose for a look-ahead window of
  ``2 * k * need`` records, where ``need`` is what the pending batch still
  lacks, keep the first ``need`` matches and drop the rest.  The linear
  policies read the window's slice of the logged contexts.  LinTS draws
  ``k * p`` standard normals per proposal whatever its state, so the
  evaluator draws them ahead, ``_NOISE_CHUNK`` records at a time in record
  order, and a record proposed again from a later state gets the same
  normals: the stream of one draw per record;
* TS runs in one loop on its posterior as Python floats (``_replay_ts``):
  numpy's Beta sampler uses a number of variates that depends on its
  parameters, so its draws cannot be taken ahead, but no record needs a
  proposal call of its own.  While the pending batch lacks at most
  ``_SCALAR_BETA_MAX // k`` matches each record draws its proposal with
  ``ts_arm``; else one array call proposes for the ``need`` records that
  can never take the history past its next update.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .core import PROB_TOL, check_seed, write_csv
from .environments import DataError, LoggedData, _reject_rows
from .environments import block_features  # noqa: F401  bench-pinned: bench/spans.py times it
from .policies import RUN_AHEAD_START, LinTsPolicy, ThompsonBetaPolicy, ts_arm, ts_posterior

SUCCESS_THRESHOLD = 0.5

# Up to this many draws, k*b scalar ``Generator.beta`` calls beat one array
# call, which consumes the generator identically, in C order.  Swept over ts
# replay, 8 to 16 timed alike (BENCH_22.json); with the array call always, the
# benchmark's replay calls took 1.71 times as long (30/30 rounds, BENCH_35.json;
# tools/time_fast_paths.py re-measures it)
_SCALAR_BETA_MAX = 12

# LinTS replay draws its standard normals this many records at a time.  On
# the benchmark's 5k-row log (k=4, p=5) at b=1, chunks of 128 to 1,024
# records replayed in alike times (medians of 5: 59-65 ms) and 64 in 70 ms,
# while the peak allocation grew from 0.27 MB at 128 records to 0.70 MB at
# 1,024 (tracemalloc)
_NOISE_CHUNK = 128


@dataclass(frozen=True)
class ReplayResult:
    """Replay outcome for one (policy, batch size) configuration.

    ``cr`` is ``None`` when no record matched; ``defined`` flags that
    degenerate case explicitly.
    """

    policy: str
    b: int
    matched: int
    successes: int
    cr: float | None
    relative_cr: float | None = None

    @property
    def defined(self) -> bool:
        return self.matched > 0


def check_uniform_log(data: LoggedData, policy) -> None:
    """Raise ``DataError`` naming the first line of ``data`` that ``policy``
    cannot replay.  Replay is unbiased only on a uniform log (Li et al.
    2011): every action in ``[0, k)``, every logging_prob ``1/k``.
    Beta-Bernoulli Thompson sampling also needs rewards in [0, 1], and a
    linear policy contexts of its ``context_dim``."""
    k, width = policy.k, data.contexts.shape[1]
    if getattr(policy, "context_dim", width) != width:
        raise DataError(f"{policy.name} reads contexts of width {policy.context_dim} "
                        f"but the log's contexts have width {width}")
    _reject_rows(data.actions >= k, data.actions, f"action out of range for k={k}")
    _reject_rows(np.abs(data.probs - 1.0 / k) > PROB_TOL, data.probs,
                 f"logging_prob is not 1/k for a uniform log over k={k} arms")
    if isinstance(policy, ThompsonBetaPolicy):
        _reject_rows((data.rewards < 0.0) | (data.rewards > 1.0), data.rewards,
                     "ts needs rewards in [0, 1]")


def replay_evaluate(
    policy,
    dataset: LoggedData,
    b: int,
    seed: int,
) -> ReplayResult:
    """Score ``policy`` on a logged dataset under a batch-``b`` constraint.

    Parameters
    ----------
    policy
        Policy object; linear policies read each record's context, finite
        armed policies ignore it.
    dataset
        A uniform log, as ``check_uniform_log`` requires; line numbers in
        errors count the CSV header as line 1, so record ``i`` is line
        ``i + 2``.
    b
        Matched records per history update; the final partial batch is
        scored but never fed back (the stream ends first).
    seed
        Seeds the proposal stream, so results are reproducible given
        (dataset, policy configuration, seed); a non-negative integer.
    """
    try:
        b = operator.index(b)
    except TypeError:
        raise DataError(f"batch size must be an integer, got {b!r}") from None
    if b < 1:
        raise DataError(f"batch size {b} must be >= 1")
    check_uniform_log(dataset, policy)
    k = policy.k
    logged, contexts = dataset.actions, dataset.contexts
    rng = np.random.default_rng(check_seed(seed, DataError))
    rngs, rows = [(rng, 0, 1)], np.zeros(1, dtype=np.int64)
    state = policy.init_reps(1)
    n = logged.size

    if not policy.adaptive:
        # the state is never read, so the whole log is one proposal call
        hits = policy.act_reps(state, n, rngs, rows)[0] == logged
        successes = int(np.count_nonzero(dataset.rewards[hits] >= SUCCESS_THRESHOLD))
        return _result(policy, b, int(np.count_nonzero(hits)), successes)

    if hasattr(policy, "run_ahead_reps"):
        return _result(policy, b, *_replay_ahead(policy, state, dataset, b, rows))
    if isinstance(policy, ThompsonBetaPolicy):
        return _result(policy, b, *_replay_ts(k, dataset, b, rng))

    contextual = hasattr(policy, "context_dim")
    ahead = isinstance(policy, LinTsPolicy)
    if ahead:
        # records base..end-1 have LinTS's normals in normals[j - base],
        # drawn _NOISE_CHUNK records at a time in record order
        base = end = 0
        normals = np.empty((0, policy.dim))
    columns = (logged, dataset.rewards, contexts) if contextual else (logged, dataset.rewards)
    rewards = dataset.rewards.tolist()
    matched = successes = 0
    pending = []
    i = 0
    while i < n:
        need = b - len(pending)
        lo, hi = i, min(i + need * 2 * k, n)
        args = (contexts[None, lo:hi],) if contextual else ()
        if ahead:
            if hi > end:
                stop = min(end + -(-(hi - end) // _NOISE_CHUNK) * _NOISE_CHUNK, n)
                fresh = rng.standard_normal((stop - end, policy.dim))
                normals = np.concatenate([normals[lo - base :], fresh])
                base, end = lo, stop
            args += (normals[None, lo - base : hi - base],)
        proposals = policy.act_reps(state, hi - lo, rngs, rows, *args)[0]
        hits = ((proposals == logged[lo:hi]).nonzero()[0][:need] + lo).tolist()
        i = hits[-1] + 1 if len(hits) == need else hi
        pending += hits
        successes += sum(rewards[j] >= SUCCESS_THRESHOLD for j in hits)
        matched += len(hits)
        if len(pending) == b:
            state = policy.update_reps(state, *(col[None, pending] for col in columns))
            pending = []
    return _result(policy, b, matched, successes)


def _replay_ahead(policy, state, dataset: LoggedData, b: int, rows) -> tuple[int, int]:
    """(matched, successes) of a policy that runs ahead while its leader
    holds: the leader matches exactly the records that log it, so each
    window takes the leader's next ``window * b`` records as its batches,
    and a final partial batch is matched but never fed back."""
    positions = [np.flatnonzero(dataset.actions == a) for a in range(policy.k)]
    wins = dataset.rewards >= SUCCESS_THRESHOLD
    matched = successes = i = 0
    window = RUN_AHEAD_START
    lead = policy.act_reps(state, 1, None, rows)[:, 0]
    while True:
        pos = positions[lead[0]]
        lo = int(pos.searchsorted(i))
        take = pos[lo : lo + window * b]
        w = len(take) // b
        if not w:
            # the leader never changes again: the rest of its records
            return matched + len(take), successes + int(np.count_nonzero(wins[take]))
        got = dataset.rewards[take[: w * b]].reshape(1, w, b)
        keep, lead = policy.run_ahead_reps(state, lead, got)
        played = take[: keep * b]
        matched += played.size
        successes += int(np.count_nonzero(wins[played]))
        i = int(played[-1]) + 1
        window = 2 * window if keep == window else RUN_AHEAD_START


def _replay_ts(k: int, dataset: LoggedData, b: int, rng) -> tuple[int, int]:
    """(matched, successes) of Thompson sampling in one loop over the
    records, its posterior held as Python floats (``ts_posterior``).  While
    the pending batch lacks at most ``_SCALAR_BETA_MAX // k`` matches, each
    record draws its own proposal (``ts_arm``); else one array ``beta`` call
    proposes for as many records as the batch lacks, which cannot take the
    history past its next update.  A full batch adds its releases in step
    order, as ``update_reps`` does."""
    actions, rewards = dataset.actions.tolist(), dataset.rewards.tolist()
    n, scalar, draw = len(actions), _SCALAR_BETA_MAX // k, rng.beta
    counts, sums = [0.0] * k, [0.0] * k
    posterior = ts_posterior(counts, sums)
    pending = []
    matched = successes = i = 0
    while i < n:
        need = b - len(pending)
        if need > scalar:
            hi = min(i + need, n)
            proposals = rng.beta(*posterior, size=(hi - i, k)).argmax(axis=1).tolist()
            pending += [j for j, a in enumerate(proposals, i) if a == actions[j]]
            i = hi
        else:
            for j in range(i, n):
                if ts_arm(draw, posterior) == actions[j]:
                    pending.append(j)
                    if len(pending) == b:
                        break
            i = j + 1
        if len(pending) == b:
            for j in pending:
                a, r = actions[j], rewards[j]
                counts[a] += 1.0
                sums[a] += r
                successes += r >= SUCCESS_THRESHOLD
            posterior = ts_posterior(counts, sums)
            matched += b
            pending = []
    successes += sum(rewards[j] >= SUCCESS_THRESHOLD for j in pending)
    return matched + len(pending), successes


def _result(policy, b, matched, successes) -> ReplayResult:
    cr = successes / matched if matched else None
    label = getattr(policy, "name", type(policy).__name__)
    return ReplayResult(
        policy=label, b=b, matched=matched, successes=successes, cr=cr
    )


def relative_cr(result: ReplayResult, baseline: ReplayResult) -> float:
    """Conversion rate of ``result`` normalized by a positive baseline."""
    if result.cr is None:
        raise DataError("result has no matched records; CR is undefined")
    if baseline.cr is None or baseline.cr <= 0.0:
        raise DataError("baseline CR must be positive")
    return result.cr / baseline.cr


REPLAY_CSV_HEADER = ["policy", "b", "matched", "successes", "cr", "relative_cr"]


def write_replay_csv(results, path) -> None:
    """Write replay results, one row per (policy, b) configuration."""
    write_csv(path, REPLAY_CSV_HEADER, [zip(*(
        [r.policy, r.b, r.matched, r.successes, r.cr, r.relative_cr] for r in results
    ))])
