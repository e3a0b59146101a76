"""Sinusoidal positional encodings with an exact shift-by-one rotation.

The hand-constructed "previous token" attention head relies on a property
of sinusoidal encodings: a block-diagonal rotation matrix ``R`` satisfies
``R @ p(j) == p(j + 1)`` exactly, so a key projection that applies ``R`` to
the positional subspace makes the dot product ``q(i) . k(j)`` peak at
``j == i - 1``.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np


@lru_cache(maxsize=32)
def frequency_bands(dim: int, base: float = 10000.0) -> np.ndarray:
    """Geometric frequency ladder used by sinusoidal encodings.

    ``dim`` must be even; ``dim // 2`` frequencies are returned.  The
    ladder is computed once per ``(dim, base)`` — a model encodes every
    step at one width — and the cached array is read-only.
    """
    if dim < 2 or dim % 2 != 0:
        raise ValueError("dim must be an even integer >= 2")
    half = dim // 2
    exponents = np.arange(half, dtype=np.float64) / half
    freqs = base ** (-exponents)
    freqs.setflags(write=False)
    return freqs


def sinusoidal_encoding(positions: np.ndarray, dim: int, base: float = 10000.0) -> np.ndarray:
    """Sinusoidal positional encodings of shape ``[len(positions), dim]``.

    The layout interleaves (sin, cos) pairs per frequency:
    ``[sin(w0 p), cos(w0 p), sin(w1 p), cos(w1 p), ...]``.
    """
    positions = np.asarray(positions, dtype=np.float64)
    freqs = frequency_bands(dim, base)
    angles = positions[..., None] * freqs[None, :]
    encoding = np.empty(positions.shape + (dim,), dtype=np.float64)
    encoding[..., 0::2] = np.sin(angles)
    encoding[..., 1::2] = np.cos(angles)
    return encoding


def shift_rotation_matrix(dim: int, shift: float = 1.0, base: float = 10000.0) -> np.ndarray:
    """Block-diagonal rotation ``R`` with ``R @ p(j) == p(j + shift)``.

    Each (sin, cos) pair of frequency ``w`` is rotated by the angle
    ``w * shift``.
    """
    freqs = frequency_bands(dim, base)
    matrix = np.zeros((dim, dim), dtype=np.float64)
    for idx, freq in enumerate(freqs):
        angle = freq * shift
        c, s = np.cos(angle), np.sin(angle)
        i = 2 * idx
        # [sin(wp+a), cos(wp+a)] = [sin*cos a + cos*sin a, cos*cos a - sin*sin a]
        matrix[i, i] = c
        matrix[i, i + 1] = s
        matrix[i + 1, i] = -s
        matrix[i + 1, i + 1] = c
    return matrix


def previous_position_score(dim: int, offset: int, base: float = 10000.0) -> float:
    """Dot product ``p(i) . p(i - offset)`` (independent of ``i``).

    Used to check how sharply the previous-token head separates ``offset=0``
    from larger offsets: the score is ``sum_m cos(w_m * offset)`` which is
    maximal (``dim/2``) at ``offset == 0``.
    """
    freqs = frequency_bands(dim, base)
    return float(np.sum(np.cos(freqs * offset)))


__all__ = [
    "frequency_bands",
    "sinusoidal_encoding",
    "shift_rotation_matrix",
    "previous_position_score",
]
