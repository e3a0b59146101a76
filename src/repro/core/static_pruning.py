"""One-shot static pruning applied at the end of the prefill stage.

Paper Sec. III-A.1: after the prefill attention has been computed, the
accumulated attention score of every prompt token (summed over all queries
that attended to it) measures its importance for the rest of the
generation.  The ``H`` tokens with the highest accumulated scores are kept
("heavy" tokens, following H2O / SnapKV terminology) and everything else is
permanently dropped, which shrinks the KV cache footprint for the whole
decoding phase.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .attention import head_mean_scores, softmax


@dataclass(frozen=True)
class StaticPruningResult:
    """Outcome of the one-shot prefill pruning.

    Attributes
    ----------
    kept_positions:
        Token positions retained in the cache, in ascending position order.
    dropped_positions:
        Token positions permanently evicted.
    accumulated_scores:
        The accumulated attention score of every prompt token (full length,
        before pruning), used to seed the decoding-stage score table.
    """

    kept_positions: np.ndarray
    dropped_positions: np.ndarray
    accumulated_scores: np.ndarray

    @property
    def num_kept(self) -> int:
        return int(self.kept_positions.size)

    @property
    def num_dropped(self) -> int:
        return int(self.dropped_positions.size)

    @property
    def compression_ratio(self) -> float:
        total = self.num_kept + self.num_dropped
        if total == 0:
            return 1.0
        return self.num_kept / total


@dataclass(frozen=True)
class PrefillNeed:
    """What a policy's prefill-time pruning reads from the prompt's attention.

    Every static stage in the library reduces the causal prefill attention
    to one number per key: a column sum over query rows.  ``softmax``
    selects what is summed — each row's softmax probability (H2O-style
    mass) or the raw scaled score with masked entries counting zero (what
    the charge-domain hardware accumulates).  ``window`` keeps only the
    last ``window`` query rows (SnapKV's observation window); ``None``
    sums every row.  Policies whose retention ignores scores declare no
    need at all (``prefill_need is None``).
    """

    softmax: bool = True
    window: Optional[int] = None

    def __post_init__(self) -> None:
        if self.window is not None and self.window < 1:
            raise ValueError("observation_window must be >= 1")


class ColumnSums:
    """Running per-head column sums of one prompt's causal prefill attention.

    ``sums[h, j]`` is, for head ``h``, the sum over the query rows ``i``
    the :class:`PrefillNeed` selects of row ``i``'s contribution to key
    ``j`` (zero for ``j > i``).  Rows arrive in blocks, in position order,
    straight from the attention that computed them, and are dropped after
    :meth:`fold` — the static stage needs O(heads x N) memory, as the
    array's per-row charge does, never the ``[h, N, N]`` score matrix.

    The running sum is folded into each block's reduction as its first
    row, so every column is the strictly sequential sum ``((0 + r_0) +
    r_1) + ...`` whatever the block or chunk boundaries were.
    """

    def __init__(self, need: PrefillNeed, num_heads: int, total_tokens: int) -> None:
        if total_tokens < 1:
            raise ValueError("total_tokens must be >= 1")
        self.need = need
        self.total_tokens = int(total_tokens)
        self.sums = np.zeros((int(num_heads), self.total_tokens), dtype=np.float64)
        # Query rows folded so far (rows must arrive in position order).
        self.rows = 0
        # First query row the need sums (the observation window's start).
        self.first_row = (
            0 if need.window is None else self.total_tokens - need.window
        )

    def fold(self, block: np.ndarray, start: int) -> None:
        """Add one block of query rows and forget it.

        ``block`` is ``[h, 1 + m, n]``: index 0 is a spare row, and index
        ``r + 1`` holds the contribution of the query at position
        ``start + r`` to keys ``0 .. n-1`` (probabilities or raw scores as
        :attr:`need` says, masked entries already zero).  The running sum
        is written over the index just before the first row summed — the
        spare, unless an observation window starts inside the block — so
        the block's contents are spent afterwards.
        """
        m = block.shape[1] - 1
        if start != self.rows:
            raise ValueError(
                f"query rows must be folded in position order (expected "
                f"row {self.rows}, got {start})"
            )
        if start + m > self.total_tokens or block.shape[2] > self.total_tokens:
            raise ValueError("block extends past the prompt")
        self.rows = start + m
        first = max(0, self.first_row - start)
        if first >= m:
            return
        n = block.shape[2]
        block[:, first, :] = self.sums[:, :n]
        np.add.reduce(block[:, first:, :], axis=1, out=self.sums[:, :n])

    def token_scores(self) -> np.ndarray:
        """Head-mean accumulated score per prompt token, shape ``[N]``."""
        return head_mean_scores(self.sums)


def accumulated_scores_from_attention(
    attention_matrix: np.ndarray,
    use_softmax: bool = True,
    causal: bool = True,
    observation_window: Optional[int] = None,
) -> np.ndarray:
    """Accumulated importance of each key token from a prefill attention map.

    The standalone form of the static stage: the matrix's rows go through
    the same :class:`ColumnSums` reduction the serving prefill streams
    into, in one block.

    Parameters
    ----------
    attention_matrix:
        Raw attention scores of shape ``[q, n]`` (queries x keys) or
        ``[h, q, n]`` for multi-head.  Scores are the pre-softmax dot
        products (Eq. 1).
    use_softmax:
        If true, each query row is softmax-normalised before accumulation
        (H2O-style probability mass).  If false the raw scores are summed —
        this is what the charge-domain hardware accumulates.
    causal:
        Apply a causal mask (query ``i`` only sees keys ``<= i``).  Assumes
        queries and keys cover the same token range when the matrix is
        square; for a rectangular matrix the last ``q`` positions are taken
        as the query positions.
    observation_window:
        If given, only the last ``observation_window`` query rows contribute
        (SnapKV-style observation window).  ``None`` uses every query.

    Returns
    -------
    np.ndarray
        Accumulated score per key token, shape ``[n]``.
    """
    attn = np.asarray(attention_matrix, dtype=np.float64)
    if attn.ndim == 2:
        attn = attn[None, :, :]
    if attn.ndim != 3:
        raise ValueError("attention_matrix must be [q, n] or [h, q, n]")
    need = PrefillNeed(softmax=use_softmax, window=observation_window)
    num_heads, num_queries, num_keys = attn.shape

    if causal:
        query_positions = np.arange(num_keys - num_queries, num_keys)
        key_positions = np.arange(num_keys)
        visible = key_positions[None, :] <= query_positions[:, None]
        attn = np.where(visible[None, :, :], attn, -np.inf)

    block = np.empty((num_heads, num_queries + 1, num_keys), dtype=np.float64)
    if use_softmax:
        block[:, 1:, :] = softmax(attn, axis=-1)
    else:
        block[:, 1:, :] = np.where(np.isfinite(attn), attn, 0.0)

    sums = ColumnSums(need, num_heads, num_keys)
    # The matrix's rows sit at the last ``q`` positions.
    sums.rows = num_keys - num_queries
    sums.fold(block, num_keys - num_queries)
    return sums.token_scores()


def select_heavy_tokens(
    accumulated_scores: np.ndarray,
    heavy_budget: int,
    sink_tokens: int = 0,
    recent_tokens: int = 0,
) -> StaticPruningResult:
    """Pick the ``heavy_budget`` tokens to retain after prefill.

    Protected tokens (the first ``sink_tokens`` attention sinks and the last
    ``recent_tokens`` positions) are always kept and count against the
    budget; the remaining budget goes to the highest accumulated scores.
    """
    scores = np.asarray(accumulated_scores, dtype=np.float64)
    if scores.ndim != 1:
        raise ValueError("accumulated_scores must be 1-D")
    if heavy_budget < 1:
        raise ValueError("heavy_budget must be >= 1")
    n = scores.shape[0]
    if heavy_budget >= n:
        return StaticPruningResult(
            kept_positions=np.arange(n, dtype=np.int64),
            dropped_positions=np.empty(0, dtype=np.int64),
            accumulated_scores=scores.copy(),
        )

    protected = np.zeros(n, dtype=bool)
    if sink_tokens > 0:
        protected[: min(sink_tokens, n)] = True
    if recent_tokens > 0:
        protected[max(0, n - recent_tokens):] = True
    num_protected = int(protected.sum())

    if num_protected >= heavy_budget:
        # Budget fully consumed by protected tokens; keep the protected set
        # ranked by score until the budget is filled (sinks first).
        protected_idx = np.nonzero(protected)[0]
        order = np.lexsort((protected_idx, -scores[protected_idx]))
        kept = np.sort(protected_idx[order[:heavy_budget]])
    else:
        remaining = heavy_budget - num_protected
        candidate_idx = np.nonzero(~protected)[0]
        cand_scores = scores[candidate_idx]
        order = np.lexsort((candidate_idx, -cand_scores))
        chosen = candidate_idx[order[:remaining]]
        kept = np.sort(np.concatenate([np.nonzero(protected)[0], chosen]))

    dropped = np.setdiff1d(np.arange(n, dtype=np.int64), kept)
    return StaticPruningResult(
        kept_positions=kept.astype(np.int64),
        dropped_positions=dropped.astype(np.int64),
        accumulated_scores=scores.copy(),
    )


def prefill_static_prune(
    attention_matrix: np.ndarray,
    heavy_budget: int,
    use_softmax: bool = True,
    sink_tokens: int = 0,
    recent_tokens: int = 0,
    observation_window: Optional[int] = None,
) -> StaticPruningResult:
    """End-to-end one-shot static pruning from a prefill attention map."""
    scores = accumulated_scores_from_attention(
        attention_matrix,
        use_softmax=use_softmax,
        observation_window=observation_window,
    )
    return select_heavy_tokens(
        scores,
        heavy_budget=heavy_budget,
        sink_tokens=sink_tokens,
        recent_tokens=recent_tokens,
    )


def lowest_score_position(
    accumulated_scores: np.ndarray,
    candidate_positions: Sequence[int],
) -> int:
    """Position with the lowest accumulated score among the candidates.

    This is the step-wise static eviction rule used during decoding.  Ties
    are broken toward the earliest position (deterministic).
    """
    scores = np.asarray(accumulated_scores, dtype=np.float64)
    candidates = np.asarray(list(candidate_positions), dtype=np.int64)
    if candidates.size == 0:
        raise ValueError("candidate_positions must not be empty")
    cand_scores = scores[candidates]
    order = np.lexsort((candidates, cand_scores))
    return int(candidates[order[0]])


__all__ = [
    "ColumnSums",
    "PrefillNeed",
    "StaticPruningResult",
    "accumulated_scores_from_attention",
    "select_heavy_tokens",
    "prefill_static_prune",
    "lowest_score_position",
]
