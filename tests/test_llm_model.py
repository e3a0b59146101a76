"""Tests for the transformer substrate: attention layer, blocks, model, generation."""

import numpy as np
import pytest

from repro.core.baselines import H2OPolicy
from repro.core.attention import softmax
from repro.core.policy import FullCachePolicy
from repro.core.static_pruning import (
    ColumnSums,
    PrefillNeed,
    accumulated_scores_from_attention,
)
from repro.llm.attention_layer import MultiHeadSelfAttention, causal_prefill
from repro.llm.block import TransformerBlock
from repro.llm.config import ModelConfig
from repro.llm.generation import greedy_generate
from repro.llm.mlp import MLP
from repro.llm.model import TransformerLM


class TestMultiHeadSelfAttention:
    def test_projection_shapes(self, rng):
        attn = MultiHeadSelfAttention(model_dim=16, num_heads=2, head_dim=4, seed=0)
        q, k, v = attn.project_qkv(rng.normal(size=(5, 16)))
        assert q.shape == (5, 2, 4)

    def test_single_token_projection(self, rng):
        attn = MultiHeadSelfAttention(model_dim=16, num_heads=2, head_dim=4, seed=0)
        q, _, _ = attn.project_qkv(rng.normal(size=16))
        assert q.shape == (2, 4)

    def test_prefill_output_shape(self, rng):
        attn = MultiHeadSelfAttention(model_dim=16, num_heads=2, head_dim=4, seed=0)
        x = rng.normal(size=(7, 16))
        out, sums = attn.prefill(x)
        assert out.shape == (7, 16)
        assert sums is None  # no policy, no column sums
        _, sums = attn.prefill(x, H2OPolicy(2, 4))
        assert sums.sums.shape == (2, 7)  # O(n) per head, no [h, n, n]

    def test_prefill_is_causal(self, rng):
        """Changing a future token must not change an earlier position's output."""
        attn = MultiHeadSelfAttention(model_dim=8, num_heads=1, head_dim=8, seed=1)
        x = rng.normal(size=(6, 8))
        out1, _ = attn.prefill(x)
        x2 = x.copy()
        x2[5] += 10.0
        out2, _ = attn.prefill(x2)
        np.testing.assert_allclose(out1[:5], out2[:5])

    def test_decode_matches_prefill_last_position(self, rng):
        """Autoregressive decode through a full-cache policy reproduces the
        dense prefill computation."""
        attn = MultiHeadSelfAttention(model_dim=8, num_heads=2, head_dim=4, seed=2)
        x = rng.normal(size=(6, 8))
        dense_out, _ = attn.prefill(x)

        policy = FullCachePolicy(2, 4)
        prefix_out, _ = attn.prefill(x[:5], policy)
        step_out = attn.decode(x[5], position=5, policy=policy)
        np.testing.assert_allclose(step_out, dense_out[5], atol=1e-9)

    def test_custom_weights_validated(self):
        with pytest.raises(ValueError):
            MultiHeadSelfAttention(8, 1, 4, w_q=np.zeros((1, 8, 5)))

    def test_parameter_count(self):
        attn = MultiHeadSelfAttention(model_dim=8, num_heads=2, head_dim=4)
        assert attn.parameter_count() == 4 * 2 * 8 * 4


class TestCausalPrefillKernel:
    """The row-blocked prefill kernel against the dense computation: its
    attention output, and the column sums it streams for every need, whole
    prompt or split at a prefix whose rows are replayed (no output)."""

    HEADS, DIM, N, SPLIT = 2, 4, 300, 137  # two row blocks; split mid-block

    NEEDS = [
        pytest.param(PrefillNeed(), id="softmax"),
        pytest.param(PrefillNeed(softmax=False), id="raw"),
        pytest.param(PrefillNeed(window=40), id="window"),
    ]

    def rows(self, rng):
        shape = (self.N, self.HEADS, self.DIM)
        return rng.normal(size=shape), rng.normal(size=shape), rng.normal(size=shape)

    @pytest.mark.parametrize("need", NEEDS)
    def test_matches_dense_attention_and_reduction(self, rng, need):
        q, k, v = self.rows(rng)
        scale = 0.5
        scores = np.einsum("qhd,khd->hqk", q, k) * scale
        causal = np.tril(np.ones((self.N, self.N), dtype=bool))
        probs = softmax(np.where(causal, scores, -np.inf), axis=-1)
        dense_out = np.einsum("hqk,khd->qhd", probs, v)
        dense_sums = accumulated_scores_from_attention(
            scores, use_softmax=need.softmax, observation_window=need.window
        )

        out = np.empty_like(q)
        sums = ColumnSums(need, self.HEADS, self.N)
        causal_prefill(q, k, v, 0, scale, out=out, sums=sums)
        np.testing.assert_allclose(out, dense_out, rtol=1e-10, atol=1e-12)
        np.testing.assert_allclose(
            sums.token_scores(), dense_sums, rtol=1e-10, atol=1e-12
        )

        split_out = np.empty_like(q)
        split_sums = ColumnSums(need, self.HEADS, self.N)
        causal_prefill(q[: self.SPLIT], k, v, 0, scale, sums=split_sums)
        causal_prefill(
            q[self.SPLIT:], k, v, self.SPLIT, scale,
            out=split_out[self.SPLIT:], sums=split_sums,
        )
        np.testing.assert_allclose(
            split_out[self.SPLIT:], out[self.SPLIT:], rtol=1e-10, atol=1e-12
        )
        np.testing.assert_allclose(
            split_sums.sums, sums.sums, rtol=1e-10, atol=1e-12
        )

    def test_rows_must_arrive_in_order(self, rng):
        q, k, v = self.rows(rng)
        sums = ColumnSums(PrefillNeed(), self.HEADS, self.N)
        with pytest.raises(ValueError):
            causal_prefill(q[5:9], k, v, 5, 0.5, sums=sums)


class TestMLPAndBlock:
    def test_mlp_identity_when_hidden_zero(self, rng):
        mlp = MLP(8, 0)
        x = rng.normal(size=(3, 8))
        np.testing.assert_allclose(mlp.forward(x), 0.0)
        assert mlp.is_identity

    def test_mlp_output_shape(self, rng):
        mlp = MLP(8, 16, seed=0)
        assert mlp.forward(rng.normal(size=(3, 8))).shape == (3, 8)

    def test_mlp_weight_shape_validation(self):
        with pytest.raises(ValueError):
            MLP(8, 4, w_in=np.zeros((8, 5)))

    def test_block_residual_passthrough_with_zero_attention(self, rng):
        attn = MultiHeadSelfAttention(
            8, 1, 4,
            w_q=np.zeros((1, 8, 4)), w_k=np.zeros((1, 8, 4)),
            w_v=np.zeros((1, 8, 4)), w_o=np.zeros((1, 4, 8)),
        )
        block = TransformerBlock(attn, MLP(8, 0), use_layernorm=False)
        x = rng.normal(size=(4, 8))
        out, _ = block.prefill(x)
        np.testing.assert_allclose(out, x)

    def test_block_dim_mismatch_rejected(self):
        attn = MultiHeadSelfAttention(8, 1, 4)
        with pytest.raises(ValueError):
            TransformerBlock(attn, MLP(16, 0))


class TestTransformerLM:
    def make_model(self):
        return TransformerLM(ModelConfig.tiny_random(vocab_size=32, seed=0))

    def test_forward_full_shape(self):
        model = self.make_model()
        logits = model.forward_full([1, 2, 3, 4])
        assert logits.shape == (4, 32)

    def test_embed_validates_ids(self):
        model = self.make_model()
        with pytest.raises(ValueError):
            model.embed([99], [0])

    def test_prefill_plus_decode_matches_dense_forward(self):
        """The policy-managed autoregressive path must equal the dense pass."""
        model = self.make_model()
        tokens = [1, 5, 9, 2, 7, 3]
        dense_logits = model.forward_full(tokens)

        policies = model.make_policies()
        prefill_logits = model.prefill(tokens[:3], policies)
        np.testing.assert_allclose(prefill_logits, model.forward_full(tokens[:3])[-1], atol=1e-8)

        logits = prefill_logits
        for idx, token in enumerate(tokens[3:]):
            logits = model.decode_step(token, 3 + idx, policies)
        np.testing.assert_allclose(logits, dense_logits[-1], atol=1e-8)

    def test_policy_count_validation(self):
        model = self.make_model()
        with pytest.raises(ValueError):
            model.prefill([1, 2], [FullCachePolicy(4, 16)])

    def test_parameter_count_positive(self):
        assert self.make_model().parameter_count() > 0


class TestGeneration:
    def make_model(self):
        return TransformerLM(ModelConfig.tiny_random(vocab_size=32, seed=1))

    def test_generates_requested_number_of_tokens(self):
        result = greedy_generate(self.make_model(), [1, 2, 3], max_new_tokens=5)
        assert result.num_generated == 5
        assert result.prompt_length == 3

    def test_stop_token_terminates(self):
        model = self.make_model()
        baseline = greedy_generate(model, [1, 2, 3], max_new_tokens=5)
        first = baseline.token_ids[0]
        stopped = greedy_generate(model, [1, 2, 3], max_new_tokens=5, stop_ids=[first])
        assert stopped.num_generated == 0

    def test_deterministic(self):
        model = self.make_model()
        a = greedy_generate(model, [4, 5, 6], max_new_tokens=4)
        b = greedy_generate(model, [4, 5, 6], max_new_tokens=4)
        assert a.token_ids == b.token_ids

    def test_keep_logits(self):
        result = greedy_generate(
            self.make_model(), [1, 2], max_new_tokens=3, keep_logits=True
        )
        assert len(result.logits_history) == result.num_generated

    def test_empty_prompt_rejected(self):
        with pytest.raises(ValueError):
            greedy_generate(self.make_model(), [], max_new_tokens=2)

    def test_policy_stats_returned_per_layer(self):
        result = greedy_generate(self.make_model(), [1, 2, 3], max_new_tokens=2)
        assert len(result.policy_stats) == 2
