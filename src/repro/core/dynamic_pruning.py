"""Per-step dynamic top-k selection of the most relevant cached tokens.

Paper Sec. III-A.2: at every decoding step only the ``k`` keys with the
highest similarity to the current query participate in the exact attention
computation.  Two selectors are provided:

* :class:`ExactTopKSelector` computes the full dot-product scores and sorts
  them — the reference implementation (what a GPU / conventional digital
  top-k circuit would do).
* :class:`CAMApproximateSelector` mimics the UniCAIM CAM mode: keys and the
  query are quantised to the signed levels the FeFET cell can store, and the
  selection is made on the quantised scores, optionally perturbed by a
  sense-margin noise term that models device variation and the discharge
  race.  The selection order it produces is what the hardware would return,
  so selector fidelity (recall vs. the exact top-k) can be measured.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Protocol, Sequence

import numpy as np

from .attention import attention_scores, head_mean_scores, top_k_indices


@dataclass(frozen=True)
class SelectionResult:
    """Outcome of a dynamic top-k selection.

    Attributes
    ----------
    selected_indices:
        Indices (into the presented key stack) of the selected tokens,
        ordered by descending (approximate) score.
    scores:
        The scores the selector used for ranking, aligned with the key stack
        (not only the selected subset).
    exact_scores:
        The exact dot-product scores, for fidelity analysis.  For the exact
        selector this equals ``scores``.
    """

    selected_indices: np.ndarray
    scores: np.ndarray
    exact_scores: np.ndarray

    @property
    def k(self) -> int:
        return int(self.selected_indices.size)


class TopKSelector(Protocol):
    """Interface shared by the exact and CAM-approximate selectors."""

    def select(self, query: np.ndarray, keys: np.ndarray, k: int) -> SelectionResult:
        """Select the top-``k`` keys for the given query."""
        ...


class ExactTopKSelector:
    """Reference top-k selection on exact dot-product scores."""

    def __init__(self, scale: Optional[float] = None) -> None:
        self.scale = scale

    def select(self, query: np.ndarray, keys: np.ndarray, k: int) -> SelectionResult:
        return self.select_raw(attention_scores(query, keys), k)

    def select_raw(self, raw_scores: np.ndarray, k: int) -> SelectionResult:
        """:meth:`select` from precomputed unscaled dot products ``[h, n]``."""
        if self.scale is not None:
            raw_scores = raw_scores * float(self.scale)
        scores = head_mean_scores(raw_scores)
        selected = top_k_indices(scores, k)
        return SelectionResult(
            selected_indices=selected,
            scores=scores,
            exact_scores=scores.copy(),
        )


def quantize_signed(
    x: np.ndarray,
    bits: int,
    clip_sigma: float = 2.0,
) -> np.ndarray:
    """Quantise values to the signed levels a ``bits``-bit UniCAIM cell stores.

    A ``bits``-bit signed cell provides ``2**bits - 1`` symmetric levels in
    ``[-1, +1]``: ``2**(bits-1) - 1`` negative levels, zero, and
    ``2**(bits-1) - 1`` positive levels (e.g. 2 bits -> {-1, 0, +1},
    3 bits -> 7 levels at multiples of 1/3).  The 1-bit cell is the
    zero-free sign encoding {-1, +1}.  The input is normalised per call by
    ``clip_sigma`` standard deviations so that typical activations span the
    full level range.

    Returns values on the normalised level grid in ``[-1, 1]``.
    """
    if bits < 1:
        raise ValueError("bits must be >= 1")
    x = np.asarray(x, dtype=np.float64)
    std = float(np.std(x))
    scale = clip_sigma * std if std > 0 else 1.0
    normalised = np.clip(x / scale, -1.0, 1.0)
    if bits == 1:
        return np.where(normalised >= 0, 1.0, -1.0)
    levels_per_side = 2 ** (bits - 1) - 1
    step = 1.0 / levels_per_side
    return np.clip(np.round(normalised / step) * step, -1.0, 1.0)


@dataclass
class CAMSelectorConfig:
    """Knobs of the CAM-mode approximate selector."""

    key_bits: int = 3
    query_bits: int = 2
    sense_noise_sigma: float = 0.0
    clip_sigma: float = 2.0
    seed: Optional[int] = None


class CAMApproximateSelector:
    """Behavioural model of the CAM-mode approximate top-k selection.

    The CAM mode never computes the numeric attention score: rows discharge
    their sense lines at a rate set by the (quantised) similarity, and the
    ``k`` slowest-discharging rows are latched.  The ranking the hardware
    produces is therefore the ranking of the *quantised* scores plus a small
    sense-margin noise; this class reproduces that ranking.
    """

    def __init__(self, config: Optional[CAMSelectorConfig] = None) -> None:
        self.config = config or CAMSelectorConfig()
        self._rng = np.random.default_rng(self.config.seed)

    def quantize_query(self, query: np.ndarray) -> np.ndarray:
        return quantize_signed(
            query, self.config.query_bits, clip_sigma=self.config.clip_sigma
        )

    def quantize_keys(self, keys: np.ndarray) -> np.ndarray:
        return quantize_signed(
            keys, self.config.key_bits, clip_sigma=self.config.clip_sigma
        )

    def approximate_scores(
        self, query: np.ndarray, keys: np.ndarray
    ) -> np.ndarray:
        """Quantised similarity scores, optionally with sense noise."""
        q = self.quantize_query(query)
        k = self.quantize_keys(keys)
        scores = head_mean_scores(attention_scores(q, k))
        if self.config.sense_noise_sigma > 0.0:
            scores = scores + self._rng.normal(
                0.0, self.config.sense_noise_sigma, size=scores.shape
            )
        return scores

    def select(self, query: np.ndarray, keys: np.ndarray, k: int) -> SelectionResult:
        approx = self.approximate_scores(query, keys)
        exact = head_mean_scores(attention_scores(query, keys))
        selected = top_k_indices(approx, k)
        return SelectionResult(
            selected_indices=selected,
            scores=approx,
            exact_scores=exact,
        )


def selection_recall(
    result: SelectionResult, k: Optional[int] = None
) -> float:
    """Recall of a selector's choice against the exact top-k of the same step."""
    if k is None:
        k = result.k
    exact_top = set(int(i) for i in top_k_indices(result.exact_scores, k))
    approx_top = set(int(i) for i in result.selected_indices[:k])
    if not exact_top:
        return 1.0
    return len(exact_top & approx_top) / len(exact_top)


def attention_mass_coverage(
    result: SelectionResult,
    softmax_scale: Optional[float] = None,
) -> float:
    """Fraction of softmax attention mass captured by the selected tokens.

    A selector can miss exact top-k members yet still capture nearly all of
    the attention probability mass; this is the metric that actually
    predicts accuracy impact.
    """
    scores = np.asarray(result.exact_scores, dtype=np.float64)
    if softmax_scale is not None:
        scores = scores * float(softmax_scale)
    shifted = scores - scores.max()
    weights = np.exp(shifted)
    total = float(weights.sum())
    if total <= 0:
        return 0.0
    selected = np.asarray(result.selected_indices, dtype=np.int64)
    return float(weights[selected].sum() / total)


def sweep_selector_fidelity(
    selector: TopKSelector,
    queries: Sequence[np.ndarray],
    keys: np.ndarray,
    k: int,
) -> np.ndarray:
    """Per-query recall of ``selector`` over a batch of queries."""
    recalls = []
    for query in queries:
        result = selector.select(np.asarray(query), keys, k)
        recalls.append(selection_recall(result))
    return np.asarray(recalls, dtype=np.float64)


__all__ = [
    "SelectionResult",
    "TopKSelector",
    "ExactTopKSelector",
    "CAMSelectorConfig",
    "CAMApproximateSelector",
    "quantize_signed",
    "selection_recall",
    "attention_mass_coverage",
    "sweep_selector_fidelity",
]
