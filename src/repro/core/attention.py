"""Attention-score and sparse-attention math shared across the library.

The paper uses the raw dot-product similarity (Eq. 1, ``Attn(q, K) = q K^T``)
as the importance score for pruning, and the usual scaled softmax attention
for the exact computation of the dynamically selected top-k tokens.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np


def softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable softmax.

    Rows whose entries are all ``-inf`` (e.g. a fully-masked attention row)
    would produce ``0/0 -> NaN``; such rows return a uniform distribution
    instead, so masking bugs surface as wrong-but-finite probabilities
    rather than silent NaN propagation.
    """
    x = np.asarray(x, dtype=np.float64)
    row_max = np.max(x, axis=axis, keepdims=True)
    if np.isfinite(row_max).all():
        # Fast path (every row has at least one finite entry): identical
        # numerics to the classic shift-exp-normalise implementation.
        exp = np.exp(x - row_max)
        return exp / np.sum(exp, axis=axis, keepdims=True)
    # Guard fully-masked rows (all -inf): (-inf) - (-inf) = NaN otherwise.
    # Only those rows become uniform; NaN inputs still propagate as NaN so
    # genuine numerical bugs stay loud.
    fully_masked = np.isneginf(row_max)
    safe_max = np.where(fully_masked, 0.0, row_max)
    exp = np.exp(x - safe_max)
    total = np.sum(exp, axis=axis, keepdims=True)
    n = x.shape[axis] if x.ndim else 1
    uniform = 1.0 / max(n, 1)
    probs = exp / np.where(fully_masked, 1.0, total)
    return np.where(fully_masked, uniform, probs)


def attention_scores(
    query: np.ndarray,
    keys: np.ndarray,
    scale: Optional[float] = None,
) -> np.ndarray:
    """Dot-product similarity between one query and a stack of keys.

    Parameters
    ----------
    query:
        Shape ``[d]`` or ``[h, d]``.
    keys:
        Shape ``[n, d]`` or ``[n, h, d]`` (matching the query's head axis).
    scale:
        Optional multiplicative scale (``1/sqrt(d)`` for softmax attention).
        The pruning hardware operates on the unscaled product, so the
        default is no scaling.

    Returns
    -------
    np.ndarray
        Shape ``[n]`` (single head) or ``[h, n]`` (multi-head).
    """
    query = np.asarray(query, dtype=np.float64)
    keys = np.asarray(keys, dtype=np.float64)
    if query.ndim == 1:
        if keys.ndim != 2:
            raise ValueError("keys must be [n, d] when query is [d]")
        scores = keys @ query
    elif query.ndim == 2:
        if keys.ndim != 3:
            raise ValueError("keys must be [n, h, d] when query is [h, d]")
        # [n, h, d] x [h, d] -> [h, n]
        scores = np.einsum("nhd,hd->hn", keys, query)
    else:
        raise ValueError("query must be 1-D or 2-D")
    if scale is not None:
        scores = scores * float(scale)
    return scores


def cosine_scores(query: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Cosine similarity between a query and a stack of keys.

    The paper refers to its dot-product score as a cosine similarity; the
    normalised version is provided for completeness and for ablations.
    """
    query = np.asarray(query, dtype=np.float64)
    keys = np.asarray(keys, dtype=np.float64)
    raw = attention_scores(query, keys)
    qnorm = np.linalg.norm(query, axis=-1)
    knorm = np.linalg.norm(keys, axis=-1)
    if query.ndim == 1:
        denom = np.maximum(qnorm * knorm, 1e-12)
        return raw / denom
    denom = np.maximum(qnorm[:, None] * knorm.T, 1e-12)
    return raw / denom


def attention_probabilities(
    query: np.ndarray,
    keys: np.ndarray,
    scale: Optional[float] = None,
    mask: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Softmax attention probabilities for one query over cached keys.

    Raises
    ------
    ValueError
        If ``mask`` excludes every key of a row: there is no token to
        attend to, which is a caller bug that previously surfaced only as
        silent NaN propagation.
    """
    scores = attention_scores(query, keys, scale=scale)
    if mask is not None:
        mask = np.asarray(mask, dtype=bool)
        if not np.all(np.any(np.broadcast_to(mask, scores.shape), axis=-1)):
            raise ValueError(
                "attention mask excludes every key for at least one row; "
                "each query must be able to attend to at least one token"
            )
        scores = np.where(mask, scores, -np.inf)
    return softmax(scores, axis=-1)


def attention_output(
    query: np.ndarray,
    keys: np.ndarray,
    values: np.ndarray,
    scale: Optional[float] = None,
    mask: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Single-query attention output ``softmax(qK^T) V``.

    Shapes follow :func:`attention_scores`; values must match keys.
    """
    probs = attention_probabilities(query, keys, scale=scale, mask=mask)
    values = np.asarray(values, dtype=np.float64)
    if query.ndim == 1:
        return probs @ values
    # probs: [h, n]; values: [n, h, d] -> [h, d]
    return np.einsum("hn,nhd->hd", probs, values)


def causal_prefix_attention(
    queries: np.ndarray,
    keys: np.ndarray,
    values: np.ndarray,
    prefix: int,
    scale: Optional[float] = None,
) -> np.ndarray:
    """Batched causal attention where row ``i`` sees ``keys[: prefix+i+1]``.

    The speculative-verify primitive: ``queries`` is ``[k, h, d]`` (the
    draft chunk), ``keys``/``values`` are the ``prefix`` committed rows
    followed by the ``k`` staged draft rows, and row ``i`` must attend
    exactly the cache a serial decode step at its position would —
    ``prefix + i + 1`` rows.  Returns ``[k, h, d]``.

    Bit-identical to ``k`` independent :func:`attention_output` calls over
    the prefix slices, which is what makes it usable on the exactness-
    certified speculation path: the score and value einsums contract the
    same elements in the same order as their per-row counterparts, masked
    score entries contribute ``exp(-inf) == 0`` exactly, and the softmax
    denominators are reduced per row over the *exact* visible slice (a
    padded reduction would regroup numpy's pairwise summation tree and
    drift in the last ulp).
    """
    queries = np.asarray(queries, dtype=np.float64)
    keys = np.asarray(keys, dtype=np.float64)
    values = np.asarray(values, dtype=np.float64)
    if queries.ndim != 3 or keys.ndim != 3 or values.shape != keys.shape:
        raise ValueError(
            "queries must be [k, h, d] and keys/values matching [n, h, d]"
        )
    k = queries.shape[0]
    n = keys.shape[0]
    if prefix < 0 or prefix + k > n:
        raise ValueError("keys must cover prefix + k rows")
    scores = np.einsum("nhd,khd->khn", keys, queries)
    if scale is not None:
        scores *= float(scale)
    lengths = prefix + 1 + np.arange(k)
    hidden = np.arange(n)[None, :] >= lengths[:, None]  # [k, n]
    np.copyto(scores, -np.inf, where=hidden[:, None, :])
    row_max = np.maximum.reduce(scores, axis=-1, keepdims=True)
    scores -= row_max
    exp = np.exp(scores, out=scores)  # masked entries: exp(-inf) == 0
    denom = np.empty((k, queries.shape[1], 1), dtype=np.float64)
    for i in range(k):
        denom[i, :, 0] = np.add.reduce(exp[i, :, : int(lengths[i])], axis=-1)
    exp /= denom
    return np.einsum("khn,nhd->khd", exp, values)


def sparse_attention_output(
    query: np.ndarray,
    keys: np.ndarray,
    values: np.ndarray,
    selected: Sequence[int],
    scale: Optional[float] = None,
) -> np.ndarray:
    """Attention restricted to an explicit subset of key indices.

    This is the exact sparse attention the current-domain CIM mode performs
    over the top-k dynamically selected tokens.
    """
    selected = (
        selected.astype(np.int64, copy=False)
        if isinstance(selected, np.ndarray)
        else np.asarray(list(selected), dtype=np.int64)
    )
    if selected.size == 0:
        raise ValueError("selected index set must not be empty")
    keys = np.asarray(keys, dtype=np.float64)
    values = np.asarray(values, dtype=np.float64)
    return attention_output(
        query, keys[selected], values[selected], scale=scale
    )


def full_vs_sparse_error(
    query: np.ndarray,
    keys: np.ndarray,
    values: np.ndarray,
    selected: Sequence[int],
    scale: Optional[float] = None,
) -> float:
    """Relative L2 error between full attention and sparse attention output."""
    full = attention_output(query, keys, values, scale=scale)
    sparse = sparse_attention_output(query, keys, values, selected, scale=scale)
    denom = max(float(np.linalg.norm(full)), 1e-12)
    return float(np.linalg.norm(full - sparse) / denom)


def top_k_indices(scores: np.ndarray, k: int) -> np.ndarray:
    """Indices of the ``k`` largest scores, sorted by descending score.

    Ties are broken by the lower index (deterministic), matching the
    behavioural CAM model where an earlier row wins a simultaneous
    comparison.
    """
    scores = np.asarray(scores, dtype=np.float64)
    if scores.ndim != 1:
        raise ValueError("scores must be 1-D")
    n = scores.shape[0]
    if k <= 0:
        raise ValueError("k must be >= 1")
    k = min(k, n)
    # argsort on (-score, index) for deterministic tie-breaks.
    order = np.lexsort((np.arange(n), -scores))
    return order[:k]


def top_k_rows(scores: np.ndarray, valid: np.ndarray, k: int) -> np.ndarray:
    """Row-wise :func:`top_k_indices` of a padded ``[S, T]`` score table.

    Returns ``[S, min(k, T)]`` column indices equal to
    ``np.argsort(np.where(valid, -scores, np.inf), axis=1,
    kind="stable")[:, :k]``: descending score, ties toward the lower index,
    padding (``valid`` False) ranked last.  Row ``s``'s first ``k_s <= k``
    entries are therefore ``top_k_indices(scores[s, :n_s], k_s)`` for any
    ragged per-row ``k_s``.

    An ``argpartition`` finds each row's ``k``-th smallest key; every key
    below it is taken, and the keys equal to it are taken in index order
    until the row holds ``k`` — exactly the tie-break a stable sort makes.
    Only those ``k`` columns are then sorted, instead of the whole row.
    """
    keys = np.where(valid, -np.asarray(scores, dtype=np.float64), np.inf)
    rows, width = keys.shape
    if k >= width:
        return np.argsort(keys, axis=1, kind="stable")
    kth = np.argpartition(keys, k - 1, axis=1)[:, k - 1 : k]
    threshold = np.take_along_axis(keys, kth, axis=1)
    below = keys < threshold
    tied = keys == threshold
    room = k - below.sum(axis=1, keepdims=True)
    chosen = below | (tied & (np.cumsum(tied, axis=1) <= room))
    columns = np.nonzero(chosen)[1].reshape(rows, k)  # ascending index
    order = np.argsort(
        np.take_along_axis(keys, columns, axis=1), axis=1, kind="stable"
    )
    return np.take_along_axis(columns, order, axis=1)


def causal_mask(
    cached_positions: np.ndarray, query_position: int
) -> np.ndarray:
    """Boolean mask selecting cached tokens visible to ``query_position``."""
    cached_positions = np.asarray(cached_positions, dtype=np.int64)
    return cached_positions <= int(query_position)


def accumulate_scores(
    table: np.ndarray,
    scores: np.ndarray,
    decay: float = 1.0,
) -> np.ndarray:
    """Update an accumulated-score table with this step's scores.

    ``table`` and ``scores`` must be the same shape.  ``decay`` < 1 gives a
    recency-weighted accumulation (ablation); ``decay == 1`` is the paper's
    plain running sum.
    """
    table = np.asarray(table, dtype=np.float64)
    scores = np.asarray(scores, dtype=np.float64)
    if table.shape != scores.shape:
        raise ValueError("table and scores must have identical shapes")
    if not 0.0 < decay <= 1.0:
        raise ValueError("decay must be in (0, 1]")
    return table * decay + scores


def attention_flops(seq_len: int, head_dim: int, num_heads: int = 1) -> int:
    """Floating point operations for one decoding step of dense attention.

    Two GEMVs per head: ``q K^T`` and ``p V`` (2 * n * d multiply-adds each).
    """
    if seq_len < 0 or head_dim < 1 or num_heads < 1:
        raise ValueError("invalid attention dimensions")
    return 2 * 2 * seq_len * head_dim * num_heads


def selection_overlap(selected_a: Sequence[int], selected_b: Sequence[int]) -> float:
    """Jaccard overlap between two selected-index sets (selector fidelity)."""
    a = set(int(i) for i in selected_a)
    b = set(int(i) for i in selected_b)
    if not a and not b:
        return 1.0
    return len(a & b) / len(a | b)


def recall_at_k(approx_selected: Sequence[int], exact_selected: Sequence[int]) -> float:
    """Fraction of the exact top-k recovered by an approximate selector."""
    exact = set(int(i) for i in exact_selected)
    if not exact:
        return 1.0
    approx = set(int(i) for i in approx_selected)
    return len(approx & exact) / len(exact)


def split_heads(x: np.ndarray, num_heads: int) -> np.ndarray:
    """Reshape ``[..., h*d]`` into ``[..., h, d]``."""
    x = np.asarray(x)
    if x.shape[-1] % num_heads != 0:
        raise ValueError("last dimension must be divisible by num_heads")
    head_dim = x.shape[-1] // num_heads
    return x.reshape(*x.shape[:-1], num_heads, head_dim)


def merge_heads(x: np.ndarray) -> np.ndarray:
    """Inverse of :func:`split_heads`: ``[..., h, d]`` -> ``[..., h*d]``."""
    x = np.asarray(x)
    if x.ndim < 2:
        raise ValueError("input must have at least 2 dimensions")
    return x.reshape(*x.shape[:-2], x.shape[-2] * x.shape[-1])


def head_mean_scores(scores: np.ndarray) -> np.ndarray:
    """Reduce per-head scores ``[h, n]`` to a single per-token score ``[n]``.

    The hardware stores one key row per token per head-group; the pruning
    decision in the paper is made on the head-aggregated score.
    """
    scores = np.asarray(scores, dtype=np.float64)
    if scores.ndim == 1:
        return scores
    if scores.ndim != 2:
        raise ValueError("scores must be [n] or [h, n]")
    return scores.mean(axis=0)


Scores = np.ndarray
Selection = Tuple[np.ndarray, np.ndarray]

__all__ = [
    "softmax",
    "attention_scores",
    "cosine_scores",
    "attention_probabilities",
    "attention_output",
    "causal_prefix_attention",
    "sparse_attention_output",
    "full_vs_sparse_error",
    "top_k_indices",
    "top_k_rows",
    "causal_mask",
    "accumulate_scores",
    "attention_flops",
    "selection_overlap",
    "recall_at_k",
    "split_heads",
    "merge_heads",
    "head_mean_scores",
]
