"""Paged serving engine vs the serial reference: identical tokens and stats.

The acceptance property of the paged KV arenas: an engine whose sequences
store K/V in shared per-layer page arenas (``kv_pools``) must produce
byte-identical generated tokens and identical ``PolicyStats`` to
:func:`greedy_generate_serial` over standalone policies, for every policy
flavour and batch size — pages, packed prefill and prefix sharing only
change *where* rows live and *when* work happens, never what any policy
computes.  Pool-pressure behaviour (queueing on page availability,
failing closed on infeasible demand) and the default arena sizing are
exercised here too.
"""

import numpy as np
import pytest

from repro.core.baselines import SnapKVPolicy
from repro.core.config import PruningConfig
from repro.core.hybrid import UniCAIMPolicy
from repro.core.kv_pool import KVPoolGroup
from repro.eval.harness import POLICY_NAMES, build_policy_factory
from repro.llm.config import ModelConfig
from repro.llm.generation import greedy_generate_serial
from repro.llm.model import TransformerLM
from repro.serving import BatchedEngine, PrefixCache, ServingRequest

VOCAB = 89
HEADS, HEAD_DIM, LAYERS = 2, 8, 2


# Beyond the harness's policy set: the two static-stage reductions its
# policies do not reach.  UniCAIM's charge-domain mode sums raw scores
# instead of softmax mass, and a SnapKV observation window of 8 rows
# reaches back into the 14-token shared prefix, so a prefix hit rebuilds
# part of the window from the cached queries.
EXTRA_POLICIES = ("unicaim_raw", "snapkv_window8")


def policy_factory(name, prompt_length):
    if name == "unicaim_raw":
        config = PruningConfig(
            heavy_budget=8, reserved_budget=2, top_k=4, sink_tokens=2,
            recent_protect=4, use_softmax_scores=False,
        )
        return lambda heads, dim: UniCAIMPolicy(heads, dim, config=config)
    if name == "snapkv_window8":
        return lambda heads, dim: SnapKVPolicy(
            heads, dim, prompt_budget=10, observation_window=8
        )
    return build_policy_factory(
        name, prompt_length=prompt_length, cache_ratio=0.6
    )


@pytest.fixture(scope="module")
def model():
    config = ModelConfig(
        vocab_size=VOCAB,
        model_dim=HEADS * HEAD_DIM,
        num_heads=HEADS,
        head_dim=HEAD_DIM,
        num_layers=LAYERS,
        mlp_hidden_dim=24,
        seed=5,
    )
    return TransformerLM(config)


@pytest.fixture(scope="module")
def shared_prefix_prompts():
    """Prompts sharing a 14-token prefix, with varied unique suffixes."""
    rng = np.random.default_rng(23)
    shared = list(map(int, rng.integers(0, VOCAB, size=14)))
    return [
        shared + list(map(int, rng.integers(0, VOCAB, size=n)))
        for n in (3, 6, 2, 8, 5, 3, 7, 4, 6, 2, 5, 3, 4, 8, 2, 6)
    ]


def make_pools(num_pages=600, page_size=8):
    return KVPoolGroup(
        LAYERS, page_size=page_size, num_heads=HEADS, head_dim=HEAD_DIM,
        num_pages=num_pages,
    )


def run_engine(model, prompts, *, kv_pools=None, batch_size=4,
               policy_factory=None, max_new_tokens=7):
    engine = BatchedEngine(
        model,
        policy_factory=policy_factory,
        max_batch_size=batch_size,
        kv_pools=kv_pools,
    )
    for prompt in prompts:
        engine.submit(
            ServingRequest(prompt_ids=prompt, max_new_tokens=max_new_tokens)
        )
    return engine, engine.run()


def serial_reference(model, prompts, policy_factory=None, max_new_tokens=7):
    return [
        greedy_generate_serial(
            model, prompt, max_new_tokens, policy_factory=policy_factory
        )
        for prompt in prompts
    ]


def assert_matches_serial(responses, serial):
    """Tokens and every ``PolicyStats`` field and record match the serial
    reference.  ``prefill_reused_tokens`` is the one field the serial
    loop (which has no prefix cache) cannot reproduce; it is returned
    summed over the responses' first layer for the caller to check."""
    reused = 0
    for response, want in zip(responses, serial, strict=True):
        assert response.finish_reason != "error"
        assert response.token_ids == want.token_ids
        assert len(response.policy_stats) == len(want.policy_stats) == LAYERS
        for got, ref in zip(response.policy_stats, want.policy_stats):
            assert_stats_identical(ref, got)
        reused += response.policy_stats[0].prefill_reused_tokens
    return reused


def assert_stats_identical(serial, paged):
    assert serial.prefill_tokens == paged.prefill_tokens
    assert serial.retained_after_prefill == paged.retained_after_prefill
    assert serial.decode_steps == paged.decode_steps
    assert serial.total_attended == paged.total_attended
    assert serial.total_evictions == paged.total_evictions
    assert serial.peak_cache_size == paged.peak_cache_size
    assert len(serial.records) == len(paged.records)
    for a, b in zip(serial.records, paged.records):
        assert a.position == b.position
        assert a.cache_size == b.cache_size
        assert a.num_attended == b.num_attended
        assert a.evicted_position == b.evicted_position
        if a.selected_positions is None:
            assert b.selected_positions is None
        else:
            np.testing.assert_array_equal(
                a.selected_positions, b.selected_positions
            )


class TestPagedSerialEquivalence:
    @pytest.mark.parametrize("policy_name", POLICY_NAMES + EXTRA_POLICIES)
    @pytest.mark.parametrize("batch_size", [1, 4, 16])
    def test_tokens_and_stats_identical(
        self, model, shared_prefix_prompts, policy_name, batch_size
    ):
        factory = policy_factory(policy_name, len(shared_prefix_prompts[0]))
        serial = serial_reference(model, shared_prefix_prompts, factory)
        engine, paged = run_engine(
            model, shared_prefix_prompts, kv_pools=make_pools(),
            batch_size=batch_size, policy_factory=factory,
        )
        reused = assert_matches_serial(paged, serial)
        # The shared prefix was reused, and every reused token is one the
        # prefix cache counted.
        assert reused > 0
        assert reused == engine.prefix_cache.stats.tokens_reused
        stats = engine.stats()
        # Every page went back to the arena or is held by the prefix cache.
        assert stats["kv_pool"]["reserved_pages"] == 0
        held = stats["prefix_cache"]["pages_held"]
        assert stats["kv_pool"]["pages_in_use"] == held

    def test_prefix_pages_shared_and_cow_split(
        self, model, shared_prefix_prompts
    ):
        """Full-cache sequences adopt the cached prefix pages zero-copy and
        split only on their own writes."""
        engine, responses = run_engine(
            model, shared_prefix_prompts, kv_pools=make_pools(), batch_size=4
        )
        assert all(r.finish_reason != "error" for r in responses)
        pool_stats = engine.stats()["kv_pool"]
        assert pool_stats["prefix_pages_adopted"] > 0
        assert pool_stats["cow_splits"] > 0

    def test_max_batch_size_none_is_page_bounded(
        self, model, shared_prefix_prompts
    ):
        engine, responses = run_engine(
            model, shared_prefix_prompts, kv_pools=make_pools(),
            batch_size=None,
        )
        assert all(r.finish_reason == "length" for r in responses)
        assert engine.stats()["peak_active"] == len(shared_prefix_prompts)

    def test_max_batch_size_none_requires_pools(self, model):
        with pytest.raises(ValueError):
            BatchedEngine(model, max_batch_size=None)

    def test_growable_pools_rejected(self, model):
        growable = KVPoolGroup(LAYERS, 8, HEADS, HEAD_DIM)  # no num_pages
        with pytest.raises(ValueError):
            BatchedEngine(model, kv_pools=growable)

    def test_explicit_prefix_cache_must_share_pools(self, model):
        pools = make_pools()
        with pytest.raises(ValueError):
            BatchedEngine(
                model, kv_pools=pools, prefix_cache=PrefixCache(make_pools())
            )


class TestPagePressure:
    def test_small_pool_queues_and_completes_everything(
        self, model, shared_prefix_prompts
    ):
        """A pool too small for the whole batch serialises admission
        (page-gated) but still completes every request correctly."""
        serial = serial_reference(model, shared_prefix_prompts)
        # ~2 full-cache sequences' worth of pages per layer.
        pools = make_pools(num_pages=10, page_size=8)
        engine, paged = run_engine(
            model, shared_prefix_prompts, kv_pools=pools, batch_size=16
        )
        assert assert_matches_serial(paged, serial) > 0
        assert all(p.finish_reason == "length" for p in paged)
        assert engine.stats()["admission"]["page_deferrals"] > 0
        assert engine.stats()["peak_active"] < len(shared_prefix_prompts)

    def test_infeasible_request_fails_closed(self, model):
        """A request whose worst-case demand exceeds the whole arena must
        become finish_reason="error", not crash the engine."""
        pools = make_pools(num_pages=2, page_size=4)
        engine = BatchedEngine(model, kv_pools=pools, max_batch_size=4)
        rng = np.random.default_rng(1)
        huge = list(map(int, rng.integers(0, VOCAB, size=60)))
        small = list(map(int, rng.integers(0, VOCAB, size=5)))
        huge_id = engine.submit(ServingRequest(prompt_ids=huge, max_new_tokens=4))
        small_id = engine.submit(ServingRequest(prompt_ids=small, max_new_tokens=3))
        responses = {r.request_id: r for r in engine.run()}
        assert responses[huge_id].finish_reason == "error"
        assert "PoolExhaustedError" in responses[huge_id].error
        assert responses[small_id].finish_reason == "length"
        assert engine.stats()["admission"]["infeasible_failures"] == 1

    def test_h2o_long_prompt_stays_within_page_reservation(self):
        """Regression: H2O prefill must not bulk-store the whole prompt
        before shrinking — a 512-token prompt under a 16-token budget
        would otherwise pin ~32 pages forever against a 2-page
        reservation, breaking page-gated admission for everyone else."""
        from repro.core.baselines import H2OPolicy
        from repro.core.kv_pool import PagedKVPool

        rng = np.random.default_rng(3)
        pool = PagedKVPool(16, HEADS, HEAD_DIM, num_pages=64)
        policy = H2OPolicy(HEADS, HEAD_DIM, heavy_budget=8, recent_budget=8)
        policy.attach_pool(pool)
        n = 512
        keys = rng.normal(size=(n, HEADS, HEAD_DIM))
        values = rng.normal(size=(n, HEADS, HEAD_DIM))
        attn = rng.normal(size=(HEADS, n, n))
        policy.prefill(keys, values, attn)
        reserved = policy.max_kv_pages(n, max_new_tokens=4, page_size=16)
        assert pool.pages_in_use <= reserved

        # Same retained set as the reference shrink-after-store semantics.
        dense = H2OPolicy(HEADS, HEAD_DIM, heavy_budget=8, recent_budget=8)
        dense.prefill(keys, values, attn)
        np.testing.assert_array_equal(
            policy.cached_positions(), dense.cached_positions()
        )

    def test_lookup_pins_pages_across_cache_eviction(self, model):
        """Regression: a looked-up prefix must survive its cache entry
        being shed/LRU-evicted before the prefill that adopts it runs."""
        from repro.serving import PrefixCache

        pools = make_pools(num_pages=64, page_size=4)
        cache = PrefixCache(pools, min_prefix_tokens=2)
        rng = np.random.default_rng(9)
        prompt = list(map(int, rng.integers(0, VOCAB, size=12)))
        captured = [
            (
                rng.normal(size=(12, HEADS, HEAD_DIM)),
                rng.normal(size=(12, HEADS, HEAD_DIM)),
                rng.normal(size=(HEADS, 12, 12)),
            )
            for _ in range(LAYERS)
        ]
        assert cache.insert(prompt, captured)
        prefix = cache.lookup(prompt + [1])
        assert prefix is not None
        expected_keys = [layer[0][: prefix.length].copy() for layer in captured]

        assert cache.drop_lru_entry()  # entry gone, pages must survive
        for layer, shared in enumerate(prefix.pages):
            np.testing.assert_allclose(
                shared.materialize()[0], expected_keys[layer]
            )
        prefix.release()
        prefix.release()  # idempotent
        assert all(pool.pages_in_use == 0 for pool in pools.pools)

    def test_pool_drains_fully_after_run(self, model, shared_prefix_prompts):
        pools = make_pools(num_pages=40, page_size=8)
        engine, responses = run_engine(
            model, shared_prefix_prompts, kv_pools=pools, batch_size=4
        )
        assert all(r.finish_reason != "error" for r in responses)
        stats = engine.stats()
        assert stats["kv_pool"]["reserved_pages"] == 0
        # Only prefix-cache entries may still hold pages.
        assert (
            stats["kv_pool"]["pages_in_use"]
            == stats["prefix_cache"]["pages_held"]
        )
        engine.prefix_cache.clear()
        assert sum(p.pages_in_use for p in pools.pools) == 0


class TestDefaultPools:
    def test_default_arena_fits_max_batch_of_full_length_sequences(self):
        """Without ``kv_pools`` the engine sizes its arenas so that
        ``max_batch_size`` full-cache sequences of ``max_position`` tokens
        run concurrently with no page deferral."""
        max_position, batch = 64, 4
        config = ModelConfig(
            vocab_size=VOCAB,
            model_dim=HEADS * HEAD_DIM,
            num_heads=HEADS,
            head_dim=HEAD_DIM,
            num_layers=LAYERS,
            mlp_hidden_dim=24,
            max_position=max_position,
            seed=5,
        )
        small = TransformerLM(config)
        rng = np.random.default_rng(31)
        new_tokens = 16
        prompts = [
            list(map(int, rng.integers(0, VOCAB, size=max_position - new_tokens)))
            for _ in range(batch)
        ]
        engine, responses = run_engine(
            small, prompts, batch_size=batch, max_new_tokens=new_tokens
        )
        stats = engine.stats()
        assert stats["admission"]["page_deferrals"] == 0
        assert stats["peak_active"] == batch
        assert stats["kv_pool"]["pages_total"] == LAYERS * batch * (
            max_position // 16
        )
        assert all(r.finish_reason == "length" for r in responses)
        assert all(r.num_generated == new_tokens for r in responses)
        assert_matches_serial(
            responses, serial_reference(small, prompts, max_new_tokens=new_tokens)
        )
