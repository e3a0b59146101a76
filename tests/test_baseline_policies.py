"""Tests for the baseline KV cache policies and the shared policy contract."""

import numpy as np
import pytest

from repro.core.baselines import (
    BASELINE_REGISTRY,
    H2OPolicy,
    QuestPolicy,
    SnapKVPolicy,
    StreamingLLMPolicy,
)
from repro.core.baselines.snapkv import pool_scores
from repro.core.policy import FullCachePolicy

HEADS, DIM = 2, 8


def prefill_inputs(rng, n=32):
    keys = rng.normal(size=(n, HEADS, DIM))
    values = rng.normal(size=(n, HEADS, DIM))
    attn = rng.normal(size=(HEADS, n, n))
    return keys, values, attn


def run_steps(policy, rng, start, steps=5):
    outputs = []
    for step in range(steps):
        outputs.append(
            policy.decode_step(
                rng.normal(size=(HEADS, DIM)),
                rng.normal(size=(HEADS, DIM)),
                rng.normal(size=(HEADS, DIM)),
                position=start + step,
            )
        )
    return outputs


ALL_POLICIES = [
    ("full", lambda: FullCachePolicy(HEADS, DIM)),
    ("streaming_llm", lambda: StreamingLLMPolicy(HEADS, DIM, sink_tokens=2, window=12)),
    ("h2o", lambda: H2OPolicy(HEADS, DIM, heavy_budget=10, recent_budget=4)),
    ("snapkv", lambda: SnapKVPolicy(HEADS, DIM, prompt_budget=14, observation_window=4)),
    ("quest", lambda: QuestPolicy(HEADS, DIM, page_size=4, num_pages=3)),
]


class TestPolicyContract:
    """Behaviours every policy must satisfy."""

    @pytest.mark.parametrize("name,factory", ALL_POLICIES)
    def test_decode_output_shape(self, name, factory, rng):
        keys, values, attn = prefill_inputs(rng)
        policy = factory()
        policy.prefill(keys, values, attn)
        out = run_steps(policy, rng, 32, steps=3)[-1]
        assert out.shape == (HEADS, DIM)
        assert np.isfinite(out).all()

    @pytest.mark.parametrize("name,factory", ALL_POLICIES)
    def test_stats_track_steps(self, name, factory, rng):
        keys, values, attn = prefill_inputs(rng)
        policy = factory()
        policy.prefill(keys, values, attn)
        run_steps(policy, rng, 32, steps=4)
        assert policy.stats.decode_steps == 4
        assert policy.stats.prefill_tokens == 32

    @pytest.mark.parametrize("name,factory", ALL_POLICIES)
    def test_reset_empties_cache(self, name, factory, rng):
        keys, values, attn = prefill_inputs(rng)
        policy = factory()
        policy.prefill(keys, values, attn)
        policy.reset()
        assert policy.cache_size() == 0

    @pytest.mark.parametrize("name,factory", ALL_POLICIES)
    def test_generated_token_visible_immediately(self, name, factory, rng):
        keys, values, attn = prefill_inputs(rng)
        policy = factory()
        policy.prefill(keys, values, attn)
        run_steps(policy, rng, 32, steps=1)
        assert 32 in policy.cached_positions()

    def test_registry_contains_all_policies(self):
        assert set(BASELINE_REGISTRY) == {
            "full", "streaming_llm", "h2o", "snapkv", "quest"
        }


class TestStreamingLLM:
    def test_cache_bounded_by_sinks_plus_window(self, rng):
        keys, values, attn = prefill_inputs(rng, n=40)
        policy = StreamingLLMPolicy(HEADS, DIM, sink_tokens=4, window=8)
        policy.prefill(keys, values, attn)
        run_steps(policy, rng, 40, steps=20)
        assert policy.cache_size() <= 12

    def test_sinks_always_retained(self, rng):
        keys, values, attn = prefill_inputs(rng, n=30)
        policy = StreamingLLMPolicy(HEADS, DIM, sink_tokens=3, window=5)
        policy.prefill(keys, values, attn)
        run_steps(policy, rng, 30, steps=15)
        cached = set(policy.cached_positions().tolist())
        assert {0, 1, 2} <= cached

    def test_window_keeps_most_recent(self, rng):
        keys, values, attn = prefill_inputs(rng, n=20)
        policy = StreamingLLMPolicy(HEADS, DIM, sink_tokens=0, window=6)
        policy.prefill(keys, values, attn)
        run_steps(policy, rng, 20, steps=10)
        cached = set(policy.cached_positions().tolist())
        assert {24, 25, 26, 27, 28, 29} == cached

    def test_from_budget_splits_correctly(self):
        policy = StreamingLLMPolicy.from_budget(HEADS, DIM, budget=20, sink_tokens=4)
        assert policy.sink_tokens + policy.window == 20

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            StreamingLLMPolicy(HEADS, DIM, window=0)
        with pytest.raises(ValueError):
            StreamingLLMPolicy.from_budget(HEADS, DIM, budget=1)


class TestH2O:
    def test_cache_bounded_by_budget(self, rng):
        keys, values, attn = prefill_inputs(rng, n=40)
        policy = H2OPolicy(HEADS, DIM, heavy_budget=8, recent_budget=4)
        policy.prefill(keys, values, attn)
        run_steps(policy, rng, 40, steps=15)
        assert policy.cache_size() <= 12

    def test_heavily_attended_token_survives(self, rng):
        n = 30
        keys, values, _ = prefill_inputs(rng, n=n)
        attn = np.zeros((HEADS, n, n))
        attn[:, :, 11] = 10.0
        policy = H2OPolicy(HEADS, DIM, heavy_budget=6, recent_budget=4)
        policy.prefill(keys, values, attn)
        assert 11 in policy.cached_positions()

    def test_recent_tokens_survive(self, rng):
        keys, values, attn = prefill_inputs(rng, n=30)
        policy = H2OPolicy(HEADS, DIM, heavy_budget=6, recent_budget=4)
        policy.prefill(keys, values, attn)
        run_steps(policy, rng, 30, steps=8)
        cached = set(policy.cached_positions().tolist())
        assert 37 in cached and 36 in cached

    @staticmethod
    def _victim_loop_kept(scores, heavy, recent):
        """Prompt positions the one-victim-at-a-time shrink keeps: evict
        the lowest (score, position) non-recent token until the budget
        holds, falling back to recent tokens once none is left."""
        n = len(scores)
        kept = set(range(n))
        while len(kept) > heavy + recent:
            candidates = [p for p in kept if p < n - recent] or list(kept)
            kept.discard(min(candidates, key=lambda p: (scores[p], p)))
        return sorted(kept)

    def test_prefill_shrink_matches_victim_loop_with_ties(self):
        rng = np.random.default_rng(31)
        for _ in range(200):
            n = int(rng.integers(1, 50))
            heavy, recent = (int(x) for x in rng.integers(1, 20, size=2))
            # Few distinct values: most scores tie with another one.
            scores = rng.integers(0, 4, size=n) / 4.0
            policy = H2OPolicy(HEADS, DIM, heavy_budget=heavy, recent_budget=recent)
            keys, values = rng.normal(size=(2, n, HEADS, DIM))
            policy._prefill_from_scores(keys, values, scores)
            want = self._victim_loop_kept(scores.tolist(), heavy, recent)
            assert policy.cached_positions().tolist() == want
            assert policy._accumulated == {p: float(scores[p]) for p in want}

    def test_from_budget(self):
        policy = H2OPolicy.from_budget(HEADS, DIM, budget=20, recent_fraction=0.25)
        assert policy.total_budget == 20

    def test_invalid_budgets(self):
        with pytest.raises(ValueError):
            H2OPolicy(HEADS, DIM, heavy_budget=0)
        with pytest.raises(ValueError):
            H2OPolicy(HEADS, DIM, recent_budget=0)


class TestSnapKV:
    def test_prompt_compressed_to_budget(self, rng):
        keys, values, attn = prefill_inputs(rng, n=40)
        policy = SnapKVPolicy(HEADS, DIM, prompt_budget=10, observation_window=4)
        policy.prefill(keys, values, attn)
        assert policy.cache_size() == 10

    def test_observation_window_always_kept(self, rng):
        keys, values, attn = prefill_inputs(rng, n=40)
        policy = SnapKVPolicy(HEADS, DIM, prompt_budget=10, observation_window=4)
        policy.prefill(keys, values, attn)
        cached = set(policy.cached_positions().tolist())
        assert {36, 37, 38, 39} <= cached

    def test_window_attended_token_kept(self, rng):
        n = 40
        keys, values, _ = prefill_inputs(rng, n=n)
        attn = np.zeros((HEADS, n, n))
        attn[:, -4:, 7] = 10.0  # observation window attends to token 7
        policy = SnapKVPolicy(
            HEADS, DIM, prompt_budget=10, observation_window=4, pool_kernel=1
        )
        policy.prefill(keys, values, attn)
        assert 7 in policy.cached_positions()

    def test_no_decode_time_eviction(self, rng):
        keys, values, attn = prefill_inputs(rng, n=30)
        policy = SnapKVPolicy(HEADS, DIM, prompt_budget=10, observation_window=4)
        policy.prefill(keys, values, attn)
        run_steps(policy, rng, 30, steps=6)
        assert policy.cache_size() == 16  # 10 prompt + 6 generated

    def test_budget_covering_prompt_keeps_all(self, rng):
        keys, values, attn = prefill_inputs(rng, n=8)
        policy = SnapKVPolicy(HEADS, DIM, prompt_budget=20, observation_window=4)
        policy.prefill(keys, values, attn)
        assert policy.cache_size() == 8

    def test_pool_scores_smooths_spike(self):
        scores = np.zeros(11)
        scores[5] = 1.0
        pooled = pool_scores(scores, kernel_size=3)
        assert pooled[4] > 0 and pooled[6] > 0
        assert pooled.shape == scores.shape

    def test_pool_scores_kernel_one_is_identity(self, rng):
        scores = rng.normal(size=9)
        np.testing.assert_allclose(pool_scores(scores, 1), scores)


class TestQuest:
    def test_keeps_entire_cache(self, rng):
        keys, values, attn = prefill_inputs(rng, n=40)
        policy = QuestPolicy(HEADS, DIM, page_size=8, num_pages=2)
        policy.prefill(keys, values, attn)
        run_steps(policy, rng, 40, steps=5)
        assert policy.cache_size() == 45

    def test_attends_only_selected_pages(self, rng):
        keys, values, attn = prefill_inputs(rng, n=64)
        policy = QuestPolicy(HEADS, DIM, page_size=8, num_pages=2)
        policy.prefill(keys, values, attn)
        run_steps(policy, rng, 64, steps=1)
        # at most (num_pages + newest page) * page_size tokens attended
        assert policy.stats.records[-1].num_attended <= 3 * 8

    def test_small_cache_attends_everything(self, rng):
        keys, values, attn = prefill_inputs(rng, n=8)
        policy = QuestPolicy(HEADS, DIM, page_size=8, num_pages=4)
        policy.prefill(keys, values, attn)
        run_steps(policy, rng, 8, steps=1)
        assert policy.stats.records[-1].num_attended == 9

    def test_from_budget(self):
        policy = QuestPolicy.from_budget(HEADS, DIM, budget=64, page_size=16)
        assert policy.num_pages == 4

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            QuestPolicy(HEADS, DIM, page_size=0)
        with pytest.raises(ValueError):
            QuestPolicy(HEADS, DIM, num_pages=0)


class TestFullCache:
    def test_dense_reference_attends_everything(self, rng):
        keys, values, attn = prefill_inputs(rng, n=16)
        policy = FullCachePolicy(HEADS, DIM)
        policy.prefill(keys, values, attn)
        run_steps(policy, rng, 16, steps=3)
        assert policy.stats.records[-1].num_attended == 19

    def test_cache_grows_without_bound(self, rng):
        keys, values, attn = prefill_inputs(rng, n=16)
        policy = FullCachePolicy(HEADS, DIM)
        policy.prefill(keys, values, attn)
        run_steps(policy, rng, 16, steps=10)
        assert policy.cache_size() == 26
