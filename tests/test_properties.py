"""Property-based tests (hypothesis) on core data structures and invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.circuits.encoding import (
    decode_query_expansion,
    encode_key_pair,
    encode_query_expansion,
    quantize_to_levels,
    signed_levels,
)
from repro.core.attention import (
    attention_output,
    softmax,
    top_k_indices,
    top_k_rows,
)
from repro.core.dynamic_pruning import quantize_signed
from repro.core.kv_cache import SlotKVCache
from repro.core.static_pruning import select_heavy_tokens
from repro.devices.rc import Capacitor
from repro.eval.metrics import token_f1
from repro.llm.positional import shift_rotation_matrix, sinusoidal_encoding

finite_floats = st.floats(min_value=-50, max_value=50, allow_nan=False, allow_infinity=False)


class TestAttentionProperties:
    @given(arrays(np.float64, st.integers(1, 30), elements=finite_floats))
    @settings(max_examples=50, deadline=None)
    def test_softmax_is_distribution(self, scores):
        probs = softmax(scores)
        assert np.all(probs >= 0)
        assert probs.sum() == pytest.approx(1.0)

    @given(
        arrays(np.float64, st.integers(1, 40), elements=finite_floats),
        st.integers(1, 10),
    )
    @settings(max_examples=50, deadline=None)
    def test_top_k_returns_maximal_scores(self, scores, k):
        idx = top_k_indices(scores, k)
        k_eff = min(k, scores.size)
        assert len(idx) == k_eff
        kth = np.sort(scores)[::-1][k_eff - 1]
        assert np.all(scores[idx] >= kth - 1e-12)

    @given(st.integers(2, 12), st.integers(1, 8), st.data())
    @settings(max_examples=30, deadline=None)
    def test_attention_output_within_value_hull(self, n, d, data):
        """Softmax attention output is a convex combination of the values,
        so every coordinate lies within the per-coordinate value range."""
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        query = rng.normal(size=d)
        keys = rng.normal(size=(n, d))
        values = rng.normal(size=(n, d))
        out = attention_output(query, keys, values)
        assert np.all(out <= values.max(axis=0) + 1e-9)
        assert np.all(out >= values.min(axis=0) - 1e-9)


@st.composite
def padded_score_tables(draw):
    """A ragged ``[S, T]`` table: few distinct integer scores (many ties),
    a per-row valid length (NaN beyond it — a padding tail the helper must
    rank as ``+inf`` without reading) and a per-row ``k`` from 1 to past
    the row length."""
    rows = draw(st.integers(1, 6))
    width = draw(st.integers(1, 40))
    scores = draw(
        arrays(np.float64, (rows, width), elements=st.integers(-3, 3).map(float))
    )
    lengths = np.asarray(
        draw(st.lists(st.integers(0, width), min_size=rows, max_size=rows))
    )
    ks = draw(st.lists(st.integers(1, width + 2), min_size=rows, max_size=rows))
    valid = np.arange(width)[None, :] < lengths[:, None]
    return np.where(valid, scores, np.nan), valid, lengths, ks


class TestTopKRowsProperties:
    @given(padded_score_tables())
    @settings(max_examples=150, deadline=None)
    def test_equals_stable_argsort_and_per_row_top_k(self, table):
        scores, valid, lengths, ks = table
        k_max = max(ks)
        got = top_k_rows(scores, valid, k_max)
        want = np.argsort(
            np.where(valid, -scores, np.inf), axis=1, kind="stable"
        )[:, :k_max]
        np.testing.assert_array_equal(got, want)
        for row, (n, k) in enumerate(zip(lengths, ks)):
            if n:
                np.testing.assert_array_equal(
                    got[row, : min(k, n)], top_k_indices(scores[row, :n], k)
                )


class TestHeavySelectionProperties:
    @given(
        arrays(np.float64, st.integers(1, 60), elements=finite_floats),
        st.integers(1, 60),
        st.integers(0, 4),
        st.integers(0, 4),
    )
    @settings(max_examples=60, deadline=None)
    def test_selection_partitions_positions(self, scores, budget, sinks, recent):
        result = select_heavy_tokens(scores, budget, sink_tokens=sinks, recent_tokens=recent)
        n = scores.size
        kept = set(result.kept_positions.tolist())
        dropped = set(result.dropped_positions.tolist())
        assert kept | dropped == set(range(n))
        assert not (kept & dropped)
        assert len(kept) == min(budget, n)


class TestKVCacheProperties:
    @given(st.integers(1, 8), st.lists(st.integers(0, 1000), min_size=1, max_size=40, unique=True))
    @settings(max_examples=40, deadline=None)
    def test_capacity_invariant_under_random_workload(self, capacity, positions):
        """However many tokens are streamed through, occupancy never exceeds
        capacity and every occupied slot maps to a distinct token position."""
        cache = SlotKVCache(capacity, num_heads=1, head_dim=2)
        key = np.zeros((1, 2))
        for position in positions:
            if cache.is_full:
                victim = int(cache.occupied_slots()[0])
                cache.replace(victim, key, key, position)
            else:
                cache.append(key, key, position)
            assert len(cache) <= capacity
            stored = cache.token_positions()
            assert len(set(stored.tolist())) == len(stored)


class TestEncodingProperties:
    @given(st.floats(-1, 1, allow_nan=False), st.integers(1, 4))
    @settings(max_examples=80, deadline=None)
    def test_quantize_to_levels_is_idempotent_and_bounded(self, value, bits):
        level = quantize_to_levels(value, bits)
        assert -1.0 <= level <= 1.0
        assert quantize_to_levels(level, bits) == pytest.approx(level)
        # distance to the nearest representable level is at most half a step
        step = np.min(np.diff(signed_levels(bits))) if bits > 1 else 2.0
        assert abs(level - np.clip(value, -1, 1)) <= step / 2 + 1e-12

    @given(st.floats(-1, 1, allow_nan=False), st.integers(1, 3))
    @settings(max_examples=80, deadline=None)
    def test_query_expansion_average_recovers_level(self, value, bits):
        drives = encode_query_expansion(value, bits)
        assert decode_query_expansion(drives) == pytest.approx(
            quantize_to_levels(value, bits)
        )

    @given(st.floats(-1, 1, allow_nan=False), st.integers(1, 4))
    @settings(max_examples=80, deadline=None)
    def test_key_pair_is_complementary(self, value, bits):
        p1, p1b = encode_key_pair(value, bits)
        assert p1 + p1b == pytest.approx(1.0)
        assert 0.0 <= p1 <= 1.0

    @given(arrays(np.float64, st.integers(1, 64), elements=finite_floats), st.integers(1, 4))
    @settings(max_examples=40, deadline=None)
    def test_quantize_signed_outputs_on_grid(self, values, bits):
        # A bits-bit signed storage cell has 2**bits - 1 symmetric levels
        # (the circuit-side signed_levels() models query *expansion* over
        # several cells, which legitimately realises more levels).
        out = quantize_signed(values, bits)
        if bits == 1:
            levels = np.array([-1.0, 1.0])
        else:
            levels = np.linspace(-1.0, 1.0, 2**bits - 1)
        assert levels.size == (2 if bits == 1 else 2**bits - 1)
        for entry in np.unique(np.round(out, 9)):
            assert np.min(np.abs(levels - entry)) < 1e-9


class TestDeviceProperties:
    @given(
        st.floats(1e-16, 1e-13, allow_nan=False),
        st.floats(1e-16, 1e-13, allow_nan=False),
        st.floats(0, 1.2, allow_nan=False),
        st.floats(0, 1.2, allow_nan=False),
    )
    @settings(max_examples=60, deadline=None)
    def test_charge_sharing_conserves_charge_and_bounds_voltage(self, c1, c2, v1, v2):
        a, b = Capacitor(c1, v1), Capacitor(c2, v2)
        total = a.charge + b.charge
        common = a.share_with(b)
        assert a.charge + b.charge == pytest.approx(total, rel=1e-9)
        assert min(v1, v2) - 1e-12 <= common <= max(v1, v2) + 1e-12


class TestPositionalProperties:
    @given(st.integers(0, 5000), st.sampled_from([16, 32, 64]))
    @settings(max_examples=60, deadline=None)
    def test_shift_rotation_exactness(self, position, dim):
        rotation = shift_rotation_matrix(dim)
        enc = sinusoidal_encoding(np.array([position, position + 1]), dim)
        np.testing.assert_allclose(rotation @ enc[0], enc[1], atol=1e-9)


class TestMetricProperties:
    words = st.lists(st.sampled_from(["a", "b", "c", "d", "e"]), min_size=0, max_size=8)

    @given(words, words)
    @settings(max_examples=80, deadline=None)
    def test_f1_symmetric_and_bounded(self, left, right):
        prediction, reference = " ".join(left), " ".join(right)
        score = token_f1(prediction, reference)
        assert 0.0 <= score <= 1.0
        assert score == pytest.approx(token_f1(reference, prediction))

    @given(words)
    @settings(max_examples=40, deadline=None)
    def test_f1_identity(self, tokens):
        text = " ".join(tokens)
        assert token_f1(text, text) == 1.0
