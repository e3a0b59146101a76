"""Small tensor operations used by the numpy transformer substrate."""

from __future__ import annotations

from typing import Optional

import numpy as np


def layer_norm(
    x: np.ndarray,
    gamma: Optional[np.ndarray] = None,
    beta: Optional[np.ndarray] = None,
    eps: float = 1e-5,
) -> np.ndarray:
    """Layer normalisation over the last axis."""
    x = np.asarray(x, dtype=np.float64)
    mean = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    normed = (x - mean) / np.sqrt(var + eps)
    if gamma is not None:
        normed = normed * np.asarray(gamma, dtype=np.float64)
    if beta is not None:
        normed = normed + np.asarray(beta, dtype=np.float64)
    return normed


def gelu(x: np.ndarray) -> np.ndarray:
    """Gaussian error linear unit (tanh approximation)."""
    x = np.asarray(x, dtype=np.float64)
    # ``x * x * x``, not ``x**3``: the float power calls ``pow`` per element.
    cube = x * x * x
    return 0.5 * x * (1.0 + np.tanh(np.sqrt(2.0 / np.pi) * (x + 0.044715 * cube)))


def linear(x: np.ndarray, weight: np.ndarray, bias: Optional[np.ndarray] = None) -> np.ndarray:
    """Affine map ``x @ weight + bias`` with weight of shape ``[in, out]``."""
    x = np.asarray(x, dtype=np.float64)
    weight = np.asarray(weight, dtype=np.float64)
    out = x @ weight
    if bias is not None:
        out = out + np.asarray(bias, dtype=np.float64)
    return out


def log_softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable log-softmax."""
    x = np.asarray(x, dtype=np.float64)
    shifted = x - np.max(x, axis=axis, keepdims=True)
    return shifted - np.log(np.sum(np.exp(shifted), axis=axis, keepdims=True))


def cross_entropy(logits: np.ndarray, targets: np.ndarray) -> float:
    """Mean cross-entropy of integer targets under ``logits`` rows."""
    logits = np.asarray(logits, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.int64)
    if logits.ndim != 2 or targets.ndim != 1 or logits.shape[0] != targets.shape[0]:
        raise ValueError("logits must be [n, vocab] and targets [n]")
    logp = log_softmax(logits, axis=-1)
    picked = logp[np.arange(targets.shape[0]), targets]
    return float(-picked.mean())


def near_orthogonal_vectors(count: int, dim: int, seed: int = 0) -> np.ndarray:
    """Unit-norm random vectors that are approximately mutually orthogonal.

    For ``count <= dim`` the rows are exactly orthonormal (QR); beyond that
    they are normalised Gaussian vectors whose pairwise dot products
    concentrate around ``1/sqrt(dim)``.
    """
    if count < 1 or dim < 1:
        raise ValueError("count and dim must be >= 1")
    rng = np.random.default_rng(seed)
    if count <= dim:
        raw = rng.normal(size=(dim, count))
        q, _ = np.linalg.qr(raw)
        return q[:, :count].T.copy()
    raw = rng.normal(size=(count, dim))
    return raw / np.linalg.norm(raw, axis=1, keepdims=True)


__all__ = [
    "layer_norm",
    "gelu",
    "linear",
    "log_softmax",
    "cross_entropy",
    "near_orthogonal_vectors",
]
