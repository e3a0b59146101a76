"""Tests for repro.llm.ops and repro.llm.positional."""

import numpy as np
import pytest

from repro.llm.ops import (
    cross_entropy,
    gelu,
    layer_norm,
    linear,
    log_softmax,
    near_orthogonal_vectors,
)
from repro.llm.positional import (
    frequency_bands,
    previous_position_score,
    shift_rotation_matrix,
    sinusoidal_encoding,
)


class TestOps:
    def test_layer_norm_zero_mean_unit_variance(self, rng):
        x = rng.normal(loc=5.0, scale=3.0, size=(4, 16))
        normed = layer_norm(x)
        np.testing.assert_allclose(normed.mean(axis=-1), 0.0, atol=1e-10)
        np.testing.assert_allclose(normed.std(axis=-1), 1.0, atol=1e-3)

    def test_layer_norm_gamma_beta(self):
        x = np.array([[1.0, 2.0, 3.0, 4.0]])
        out = layer_norm(x, gamma=np.full(4, 2.0), beta=np.full(4, 1.0))
        np.testing.assert_allclose(out.mean(axis=-1), 1.0, atol=1e-10)

    def test_gelu_fixed_points(self):
        assert gelu(np.array([0.0]))[0] == pytest.approx(0.0)
        assert gelu(np.array([10.0]))[0] == pytest.approx(10.0, rel=1e-3)
        assert gelu(np.array([-10.0]))[0] == pytest.approx(0.0, abs=1e-3)

    def test_gelu_monotone_on_positive_axis(self):
        x = np.linspace(0, 5, 50)
        assert np.all(np.diff(gelu(x)) > 0)

    def test_linear_matches_matmul(self, rng):
        x = rng.normal(size=(3, 4))
        w = rng.normal(size=(4, 5))
        b = rng.normal(size=5)
        np.testing.assert_allclose(linear(x, w, b), x @ w + b)

    def test_log_softmax_normalises(self, rng):
        x = rng.normal(size=(3, 7))
        logp = log_softmax(x)
        np.testing.assert_allclose(np.exp(logp).sum(axis=-1), 1.0)

    def test_cross_entropy_perfect_prediction_near_zero(self):
        logits = np.array([[100.0, 0.0], [0.0, 100.0]])
        targets = np.array([0, 1])
        assert cross_entropy(logits, targets) < 1e-6

    def test_cross_entropy_shape_validation(self):
        with pytest.raises(ValueError):
            cross_entropy(np.zeros((2, 3)), np.zeros(3, dtype=int))

    def test_near_orthogonal_exact_when_count_le_dim(self):
        vectors = near_orthogonal_vectors(8, 16, seed=0)
        gram = vectors @ vectors.T
        np.testing.assert_allclose(gram, np.eye(8), atol=1e-10)

    def test_near_orthogonal_unit_norm_when_count_gt_dim(self):
        vectors = near_orthogonal_vectors(100, 16, seed=0)
        np.testing.assert_allclose(np.linalg.norm(vectors, axis=1), 1.0)

    def test_near_orthogonal_low_crosstalk(self):
        vectors = near_orthogonal_vectors(200, 64, seed=0)
        gram = vectors @ vectors.T
        np.fill_diagonal(gram, 0.0)
        assert np.abs(gram).max() < 0.6


class TestPositional:
    def test_frequency_bands_geometric(self):
        freqs = frequency_bands(8)
        assert freqs[0] == pytest.approx(1.0)
        ratios = freqs[1:] / freqs[:-1]
        np.testing.assert_allclose(ratios, ratios[0])

    def test_frequency_bands_requires_even_dim(self):
        with pytest.raises(ValueError):
            frequency_bands(7)

    def test_frequency_bands_cached_read_only_and_exact(self):
        freqs = frequency_bands(32, 500.0)
        assert frequency_bands(32, 500.0) is freqs
        assert not freqs.flags.writeable
        with pytest.raises(ValueError):
            freqs[0] = 2.0
        # Bitwise the uncached ladder, and so are the encodings built on it.
        exponents = np.arange(16, dtype=np.float64) / 16
        assert freqs.tobytes() == (500.0 ** (-exponents)).tobytes()
        positions = np.arange(40, dtype=np.float64)
        angles = positions[:, None] * (10000.0 ** (-exponents))[None, :]
        expected = np.empty((40, 32))
        expected[:, 0::2] = np.sin(angles)
        expected[:, 1::2] = np.cos(angles)
        assert sinusoidal_encoding(positions, 32).tobytes() == expected.tobytes()

    def test_encoding_shape(self):
        enc = sinusoidal_encoding(np.arange(5), 16)
        assert enc.shape == (5, 16)

    def test_encoding_norm_constant(self):
        enc = sinusoidal_encoding(np.arange(100), 32)
        norms = np.linalg.norm(enc, axis=1)
        np.testing.assert_allclose(norms, norms[0])

    def test_shift_rotation_is_exact(self):
        dim = 32
        rotation = shift_rotation_matrix(dim, shift=1.0)
        positions = np.arange(50)
        enc = sinusoidal_encoding(positions, dim)
        shifted = enc @ rotation.T
        np.testing.assert_allclose(shifted[:-1], enc[1:], atol=1e-9)

    def test_shift_rotation_is_orthogonal(self):
        rotation = shift_rotation_matrix(16)
        np.testing.assert_allclose(rotation @ rotation.T, np.eye(16), atol=1e-12)

    def test_previous_position_score_peaks_at_zero_offset(self):
        scores = [previous_position_score(64, offset) for offset in range(0, 50)]
        assert scores[0] == pytest.approx(32.0)
        assert max(scores[1:]) < scores[0]

    def test_previous_token_margin_over_long_range(self):
        """The previous-token head must separate offset 0 from every other
        offset up to a long context length (no aliasing)."""
        best = previous_position_score(64, 0)
        others = [previous_position_score(64, offset) for offset in range(1, 4096)]
        assert best - max(others) > 0.3
