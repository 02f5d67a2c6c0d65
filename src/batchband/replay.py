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
* a policy that ``draws`` nothing proposes for a look-ahead window of
  ``2 * k * need`` records, where ``need`` is what the pending batch still
  lacks, keeps its first ``need`` matches and drops the rest, with nothing
  drawn to rewind;
* a drawing policy proposes for up to ``need`` records, which can never
  take the history past its next update.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import PROB_TOL, write_csv
from .environments import DataError, LoggedData, _reject_rows, block_features
from .policies import ThompsonBetaPolicy

SUCCESS_THRESHOLD = 0.5

# Up to this many records, comparing proposals with the log as Python lists
# beats one numpy comparison (about 1 against 3 us for a single record; they
# break even near 30)
_LIST_WINDOW_MAX = 24


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
    Beta-Bernoulli Thompson sampling also needs rewards in [0, 1]."""
    k = policy.k
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
        (dataset, policy configuration, seed).
    """
    check_uniform_log(dataset, policy)
    if b < 1:
        raise DataError(f"batch size {b} must be >= 1")
    k = policy.k
    logged, contexts = dataset.actions, dataset.contexts
    contextual = hasattr(policy, "dim")
    rngs = [np.random.default_rng(seed)]
    rows = np.zeros(1, dtype=np.int64)
    state = policy.init_reps(1)
    n = logged.size

    def propose(i, m):
        """Proposals for records ``[i, i + m)`` from the frozen state, and
        their features when the policy reads them."""
        if not contextual:
            return policy.act_reps(state, m, rngs, rows)[0], None
        feats = block_features(contexts[i : i + m], k)
        return policy.act_reps(state, m, rngs, rows, feats[None])[0], feats

    if not policy.adaptive:
        # the state is never read, so the whole log is one proposal call
        hits = propose(0, n)[0] == logged
        successes = int(np.count_nonzero(dataset.rewards[hits] >= SUCCESS_THRESHOLD))
        return _result(policy, b, int(np.count_nonzero(hits)), successes)

    actions, rewards = logged.tolist(), dataset.rewards.tolist()
    matched = successes = 0
    pending, pending_keys = [], []
    i = 0
    while i < n:
        need = b - len(pending)
        m = min(need if policy.draws else 2 * k * need, n - i)
        lo = i
        proposals, feats = propose(lo, m)
        if m <= _LIST_WINDOW_MAX:
            hits = [j for j, a in enumerate(proposals.tolist(), lo) if a == actions[j]][:need]
        else:
            hits = ((proposals == logged[lo : lo + m]).nonzero()[0][:need] + lo).tolist()
        i = hits[-1] + 1 if len(hits) == need else lo + m
        if not hits:
            continue
        if contextual:
            pending_keys.extend(feats[j - lo, actions[j]] for j in hits)
        matched += len(hits)
        successes += sum(rewards[j] >= SUCCESS_THRESHOLD for j in hits)
        pending.extend(hits)
        if len(pending) == b:
            keys = pending_keys if contextual else [actions[j] for j in pending]
            state = policy.update_reps(
                state, np.array([keys]), np.array([[rewards[j] for j in pending]])
            )
            pending.clear()
            pending_keys.clear()
    return _result(policy, b, matched, successes)


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
    write_csv(path, REPLAY_CSV_HEADER, (
        [r.policy, r.b, r.matched, r.successes, r.cr, r.relative_cr] for r in results
    ))
