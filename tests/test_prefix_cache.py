"""Tests for batched padding-free prefill and shared-prefix KV reuse.

The acceptance property of the prefill subsystem: admission through
``prefill_chunk_batched`` — with or without prefix-cache reuse — must produce
byte-identical generated tokens and identical policy statistics
(``retained_after_prefill``, eviction counts, decode steps) to the strictly
serial cold-prefill reference, for every policy flavour and batch size.
"""

import numpy as np
import pytest

from repro.core.baselines import (
    H2OPolicy,
    QuestPolicy,
    SnapKVPolicy,
    StreamingLLMPolicy,
)
from repro.core.config import PruningConfig
from repro.core.dynamic_pruning import CAMApproximateSelector, CAMSelectorConfig
from repro.core.hybrid import UniCAIMPolicy
from repro.core.kv_pool import KVPoolGroup
from repro.llm.config import ModelConfig
from repro.llm.generation import greedy_generate_serial
from repro.llm.model import PrefillState, TransformerLM
from repro.serving import BatchedEngine, PrefixCache, ServingRequest
from repro.serving.prefix_cache import common_prefix_length

VOCAB = 97


@pytest.fixture(scope="module")
def model():
    config = ModelConfig(
        vocab_size=VOCAB,
        model_dim=32,
        num_heads=2,
        head_dim=16,
        num_layers=2,
        mlp_hidden_dim=48,
        seed=3,
    )
    return TransformerLM(config)


def model_pools(model, num_pages=256):
    """Fixed arenas shaped for ``model`` (16-token pages)."""
    config = model.config
    return KVPoolGroup(
        config.num_layers, 16, config.num_heads, config.head_dim,
        num_pages=num_pages,
    )


@pytest.fixture(scope="module")
def shared_prefix_prompts():
    """Prompts sharing a 40-token prefix, with varied unique suffixes."""
    rng = np.random.default_rng(17)
    shared = list(map(int, rng.integers(0, VOCAB, size=40)))
    return [
        shared + list(map(int, rng.integers(0, VOCAB, size=n)))
        for n in (5, 9, 3, 12, 7, 4, 10, 6)
    ]


def unicaim_factory(heads, dim):
    return UniCAIMPolicy(
        heads,
        dim,
        config=PruningConfig(
            heavy_budget=10, reserved_budget=4, top_k=6,
            sink_tokens=1, recent_protect=2,
        ),
    )


def cam_factory(heads, dim):
    return UniCAIMPolicy(
        heads,
        dim,
        config=PruningConfig(
            heavy_budget=10, reserved_budget=4, top_k=6,
            sink_tokens=1, recent_protect=2,
        ),
        selector=CAMApproximateSelector(
            CAMSelectorConfig(key_bits=3, query_bits=2, seed=11)
        ),
    )


def snapkv_factory(heads, dim):
    return SnapKVPolicy.from_budget(heads, dim, budget=16, observation_window=8)


def unicaim_raw_factory(heads, dim):
    """UniCAIM's charge-domain mode: raw column sums, not softmax mass."""
    return UniCAIMPolicy(
        heads,
        dim,
        config=PruningConfig(
            heavy_budget=10, reserved_budget=4, top_k=6,
            sink_tokens=1, recent_protect=2, use_softmax_scores=False,
        ),
    )


def snapkv_deep_window_factory(heads, dim):
    """A 16-row observation window: on a hit over the 40-token shared
    prefix, 4 to 13 of its rows come from the replayed prefix queries."""
    return SnapKVPolicy(heads, dim, prompt_budget=24, observation_window=16)


def streaming_factory(heads, dim):
    return StreamingLLMPolicy.from_budget(heads, dim, budget=16, sink_tokens=2)


def h2o_factory(heads, dim):
    return H2OPolicy.from_budget(heads, dim, budget=16)


def quest_factory(heads, dim):
    return QuestPolicy.from_budget(heads, dim, budget=12, page_size=8)


# One factory per entry of repro.eval.harness.POLICY_NAMES — the acceptance
# criterion requires prefix reuse to be token-identical for every policy the
# harness can serve, since evaluate_policy enables it by default — plus the
# two static-stage reductions those policies do not reach.
POLICY_FACTORIES = [
    pytest.param(None, id="full"),
    pytest.param(unicaim_factory, id="unicaim"),
    pytest.param(cam_factory, id="unicaim_cam"),
    pytest.param(snapkv_factory, id="snapkv"),
    pytest.param(streaming_factory, id="streaming_llm"),
    pytest.param(h2o_factory, id="h2o"),
    pytest.param(quest_factory, id="quest"),
    pytest.param(unicaim_raw_factory, id="unicaim_raw"),
    pytest.param(snapkv_deep_window_factory, id="snapkv_deep_window"),
]


def assert_stats_match(batched_stats, serial_stats):
    assert len(batched_stats) == len(serial_stats)
    for got, want in zip(batched_stats, serial_stats):
        assert got.prefill_tokens == want.prefill_tokens
        assert got.retained_after_prefill == want.retained_after_prefill
        assert got.total_evictions == want.total_evictions
        assert got.decode_steps == want.decode_steps


def prefill_whole(model, prompts, policies, states=None):
    """Every prompt (or its suffix after ``states``) as one final chunk."""
    if states is None:
        states = [None] * len(prompts)
    chunks = [
        prompt[0 if state is None else state.processed:]
        for prompt, state in zip(prompts, states)
    ]
    return model.prefill_chunk_batched(
        chunks, states, policies, [True] * len(prompts)
    )


class TestPrefillChunkBatched:
    def test_matches_serial_prefill_logits(self, model, shared_prefix_prompts):
        prompts = shared_prefix_prompts[:4]
        policies = [model.make_policies(None) for _ in prompts]
        logits, states = prefill_whole(model, prompts, policies)
        for b, prompt in enumerate(prompts):
            assert logits[b].shape == (VOCAB,)
            serial_policies = model.make_policies(None)
            serial_logits = model.prefill(prompt, serial_policies)
            np.testing.assert_allclose(logits[b], serial_logits, rtol=1e-12, atol=1e-12)
            assert int(np.argmax(logits[b])) == int(np.argmax(serial_logits))
            assert states[b].processed == states[b].fed == len(prompt)
            assert len(states[b].layers) == model.config.num_layers
            keys, values, queries = states[b].prompt_rows()[0]
            n = len(prompt)
            assert keys.shape == values.shape == queries.shape == (n, 2, 16)

    def test_reused_prefix_matches_cold_prefill(self, model, shared_prefix_prompts):
        leader, follower = shared_prefix_prompts[0], shared_prefix_prompts[1]
        _, states = prefill_whole(model, [leader], [model.make_policies(None)])
        p = common_prefix_length(leader, follower)
        prefix_layers = [
            (keys[:p], values[:p], queries[:p])
            for keys, values, queries in states[0].prompt_rows()
        ]
        config = model.config
        warm_policies = model.make_policies(None)
        warm_logits, _ = prefill_whole(
            model, [follower], [warm_policies],
            [
                PrefillState.preallocate(
                    config.num_layers, len(follower), config.num_heads,
                    config.head_dim, prefix=prefix_layers,
                )
            ],
        )
        cold_policies = model.make_policies(None)
        cold_logits = model.prefill(follower, cold_policies)
        assert int(np.argmax(warm_logits[0])) == int(np.argmax(cold_logits))
        np.testing.assert_allclose(warm_logits[0], cold_logits, rtol=1e-10, atol=1e-10)
        assert warm_policies[0].stats.prefill_reused_tokens == p
        assert_stats_match(
            [pol.stats for pol in warm_policies],
            [pol.stats for pol in cold_policies],
        )

    def test_prefix_must_be_shorter_than_prompt(self, model, shared_prefix_prompts):
        prompt = shared_prefix_prompts[0]
        _, states = prefill_whole(model, [prompt], [model.make_policies(None)])
        config = model.config
        with pytest.raises(ValueError):
            PrefillState.preallocate(
                config.num_layers, len(prompt), config.num_heads,
                config.head_dim, prefix=states[0].prompt_rows(),
            )

    def test_empty_batch(self, model):
        assert model.prefill_chunk_batched([], [], [], []) == ([], [])


class TestSharedPrefixServingEquivalence:
    @pytest.mark.parametrize("factory", POLICY_FACTORIES)
    @pytest.mark.parametrize("batch_size", [1, 4, 16])
    def test_token_and_stats_identical_to_cold_serial(
        self, model, shared_prefix_prompts, factory, batch_size
    ):
        """Satellite acceptance: shared-prefix admission == cold prefill."""
        serial = [
            greedy_generate_serial(model, p, 10, policy_factory=factory)
            for p in shared_prefix_prompts
        ]
        engine = BatchedEngine(
            model, policy_factory=factory, max_batch_size=batch_size
        )
        for prompt in shared_prefix_prompts:
            engine.submit(ServingRequest(prompt_ids=prompt, max_new_tokens=10))
        responses = engine.run()
        assert engine.prefix_cache.stats.hits > 0  # reuse actually happened
        for response, want in zip(responses, serial):
            assert response.token_ids == want.token_ids
            assert_stats_match(response.policy_stats, want.policy_stats)

    def test_identical_prompt_submitted_twice(self, model, shared_prefix_prompts):
        prompt = shared_prefix_prompts[0]
        want = greedy_generate_serial(
            model, prompt, 8, policy_factory=unicaim_factory
        )
        engine = BatchedEngine(
            model, policy_factory=unicaim_factory, max_batch_size=2
        )
        engine.submit(ServingRequest(prompt_ids=prompt, max_new_tokens=8))
        engine.submit(ServingRequest(prompt_ids=prompt, max_new_tokens=8))
        first, second = engine.run()
        assert first.token_ids == want.token_ids
        assert second.token_ids == want.token_ids
        # The duplicate reuses everything but the final prompt token.
        assert engine.prefix_cache.stats.tokens_reused == len(prompt) - 1

    def test_prefix_caching_can_be_disabled(self, model, shared_prefix_prompts):
        engine = BatchedEngine(model, max_batch_size=4, prefix_caching=False)
        assert engine.prefix_cache is None
        for prompt in shared_prefix_prompts[:4]:
            engine.submit(ServingRequest(prompt_ids=prompt, max_new_tokens=5))
        responses = engine.run()
        for response, prompt in zip(responses, shared_prefix_prompts[:4]):
            want = greedy_generate_serial(model, prompt, 5)
            assert response.token_ids == want.token_ids

    def test_shared_cache_across_engines(self, model, shared_prefix_prompts):
        pools = model_pools(model)
        cache = PrefixCache(pools)
        for prompt in shared_prefix_prompts[:2]:
            engine = BatchedEngine(
                model, max_batch_size=2, kv_pools=pools, prefix_cache=cache
            )
            engine.submit(ServingRequest(prompt_ids=prompt, max_new_tokens=4))
            response = engine.run()[0]
            want = greedy_generate_serial(model, prompt, 4)
            assert response.token_ids == want.token_ids
        assert cache.stats.hits >= 1  # second engine reused the first's prefill


class TestPrefixCacheUnit:
    @staticmethod
    def cache(**kwargs):
        """A one-layer cache over 4-token pages: an entry of 4 or 8 tokens
        then costs exactly its K/V row bytes plus its query rows."""
        return PrefixCache(KVPoolGroup(1, 4, 2, 4, num_pages=64), **kwargs)

    def layer_state(self, n, heads=2, dim=4, seed=0):
        rng = np.random.default_rng(seed)
        return [
            (
                rng.normal(size=(n, heads, dim)),
                rng.normal(size=(n, heads, dim)),
                rng.normal(size=(n, heads, dim)),
            )
        ]

    def test_lookup_returns_longest_match_capped_at_len_minus_one(self):
        cache = self.cache(min_prefix_tokens=2)
        cache.insert(list(range(10)), self.layer_state(10))
        cache.insert(list(range(5)), self.layer_state(5))
        hit = cache.lookup(list(range(8)) + [99, 98])
        assert hit is not None and hit.length == 8
        keys, values, queries = hit.layers[0]
        assert keys.shape[0] == values.shape[0] == queries.shape[0] == 8
        # A fully covered prompt still recomputes its last token.
        full = cache.lookup(list(range(10)))
        assert full is not None and full.length == 9

    def test_min_prefix_tokens_rejects_short_matches(self):
        cache = self.cache(min_prefix_tokens=6)
        cache.insert(list(range(10)), self.layer_state(10))
        assert cache.lookup([0, 1, 2, 77, 78, 79, 80]) is None
        assert cache.lookup(list(range(7))) is not None

    def test_insert_skips_prompts_covered_by_existing_entry(self):
        cache = self.cache(min_prefix_tokens=2)
        assert cache.insert(list(range(10)), self.layer_state(10))
        assert not cache.insert(list(range(6)), self.layer_state(6))
        assert len(cache) == 1
        assert cache.stats.skipped_inserts == 1

    def test_lru_eviction(self):
        cache = self.cache(max_entries=2, min_prefix_tokens=2)
        cache.insert([1, 2, 3, 4], self.layer_state(4, seed=1))
        cache.insert([5, 6, 7, 8], self.layer_state(4, seed=2))
        assert cache.lookup([1, 2, 3, 9]) is not None  # touch the first entry
        cache.insert([9, 10, 11, 12], self.layer_state(4, seed=3))
        assert len(cache) == 2
        assert cache.stats.evictions == 1
        assert cache.lookup([5, 6, 7, 99]) is None  # LRU entry was dropped
        assert cache.lookup([1, 2, 3, 9]) is not None

    def test_stats_and_memory_accounting(self):
        cache = self.cache(min_prefix_tokens=2)
        cache.insert(list(range(6)), self.layer_state(6))
        assert cache.memory_bytes() > 0
        hit = cache.lookup(list(range(4)))
        assert hit is not None
        assert cache.lookup([50, 51, 52]) is None
        assert cache.stats.lookups == 2
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1
        assert cache.stats.hit_rate == 0.5
        # Reuse is counted only once the consuming prefill succeeds.
        assert cache.stats.tokens_reused == 0
        cache.commit_reuse(hit)
        assert cache.stats.tokens_reused == 3
        cache.clear()
        assert len(cache) == 0 and cache.memory_bytes() == 0

    def test_oversized_insert_does_not_purge_superseded_entries(self):
        state = self.layer_state(4)
        entry_bytes = sum(k.nbytes + v.nbytes + q.nbytes for k, v, q in state)
        cache = self.cache(min_prefix_tokens=2, max_bytes=entry_bytes)
        assert cache.insert([1, 2, 3, 4], state)
        # Extending the cached prefix with an entry too big to store must
        # leave the existing (storable) entry untouched.
        assert not cache.insert([1, 2, 3, 4, 5, 6, 7, 8], self.layer_state(8))
        assert len(cache) == 1
        assert cache.stats.superseded_entries == 0
        assert cache.lookup([1, 2, 3, 99]) is not None

    def test_common_prefix_length(self):
        assert common_prefix_length([1, 2, 3], [1, 2, 4]) == 2
        assert common_prefix_length([1, 2], [1, 2, 3]) == 2
        assert common_prefix_length([], [1]) == 0

    def test_entries_own_their_memory(self, model):
        """Inserted query rows must be copies, not views pinning the
        prefill's buffers; K/V rows live in pool pages."""
        cache = PrefixCache(model_pools(model), min_prefix_tokens=2)
        prompts = [[1, 2, 3, 4, 5], [6, 7, 8, 9]]
        _, states = prefill_whole(
            model, prompts, [model.make_policies(None) for _ in prompts]
        )
        cache.insert(prompts[0], states[0].prompt_rows())
        entry = cache._entries[tuple(prompts[0])]
        for cached, (keys, values, queries) in zip(
            entry, states[0].prompt_rows()
        ):
            assert cached.queries.base is None
            np.testing.assert_array_equal(cached.queries, queries)
            paged_keys, paged_values = cached.pages.materialize()
            np.testing.assert_array_equal(paged_keys, keys)
            np.testing.assert_array_equal(paged_values, values)

    def test_requires_pools(self):
        with pytest.raises(TypeError):
            PrefixCache(None)

    def test_peek_length_has_no_side_effects(self):
        cache = self.cache(min_prefix_tokens=2)
        cache.insert(list(range(10)), self.layer_state(10))
        assert cache.peek_length(list(range(6))) == 5
        assert cache.peek_length([55, 56, 57]) == 0
        assert cache.stats.lookups == 0
        assert cache.stats.hits == 0
        assert cache.stats.tokens_reused == 0

    def test_max_bytes_budget_evicts_lru(self):
        state = self.layer_state(8)
        entry_bytes = sum(k.nbytes + v.nbytes + q.nbytes for k, v, q in state)
        cache = self.cache(min_prefix_tokens=2, max_bytes=2 * entry_bytes)
        cache.insert([1, 2, 3, 4, 5, 6, 7, 8], self.layer_state(8, seed=1))
        cache.insert([11, 12, 13, 14, 15, 16, 17, 18], self.layer_state(8, seed=2))
        assert len(cache) == 2
        cache.insert([21, 22, 23, 24, 25, 26, 27, 28], self.layer_state(8, seed=3))
        assert len(cache) == 2  # LRU entry dropped to hold the byte budget
        assert cache.memory_bytes() <= cache.max_bytes
        assert cache.stats.evictions == 1
        assert cache.lookup([1, 2, 3, 99]) is None

    def test_oversized_entry_is_not_stored(self):
        state = self.layer_state(8)
        entry_bytes = sum(k.nbytes + v.nbytes + q.nbytes for k, v, q in state)
        cache = self.cache(min_prefix_tokens=2, max_bytes=entry_bytes - 1)
        assert not cache.insert([1, 2, 3, 4, 5, 6, 7, 8], state)
        assert len(cache) == 0
        assert cache.memory_bytes() == 0
        assert cache.stats.skipped_inserts == 1

    def test_explicit_cache_conflicts_raise(self, model):
        pools = model_pools(model)
        with pytest.raises(ValueError):
            BatchedEngine(
                model, kv_pools=pools, prefix_cache=PrefixCache(pools),
                prefix_caching=False,
            )
        with pytest.raises(ValueError):  # built over other arenas
            BatchedEngine(model, prefix_cache=PrefixCache(pools))

    def test_covering_insert_supersedes_prefix_entries(self):
        cache = self.cache(min_prefix_tokens=2)
        cache.insert([1, 2, 3, 4], self.layer_state(4))
        cache.insert([1, 2, 3, 4, 5, 6], self.layer_state(6))
        assert len(cache) == 1
        assert cache.stats.superseded_entries == 1
        hit = cache.lookup([1, 2, 3, 99])
        assert hit is not None and hit.length == 3


class TestFailedAdmissionAccounting:
    def test_failed_prefill_does_not_count_reuse(self, model, shared_prefix_prompts):
        """A request that hits the cache but fails admission skipped no
        work; tokens_reused must reflect successful prefills only."""

        def boom(heads, dim):
            raise RuntimeError("broken factory")

        leader, follower = shared_prefix_prompts[0], shared_prefix_prompts[1]
        engine = BatchedEngine(model, max_batch_size=2)
        engine.submit(ServingRequest(prompt_ids=leader, max_new_tokens=2))
        engine.run()
        engine.submit(
            ServingRequest(
                prompt_ids=follower, max_new_tokens=2, policy_factory=boom
            )
        )
        responses = engine.run()
        assert responses[-1].finish_reason == "error"
        stats = engine.prefix_cache.stats
        assert stats.tokens_reused == 0


class TestHarnessErrorSurfacing:
    def test_evaluate_policy_raises_on_admission_failure(self, monkeypatch):
        """Admission failures must not be silently scored as F1=0."""
        from repro.eval import evaluate_policy, generate_dataset
        from repro.eval.datasets import DatasetSpec
        from repro.eval import harness as harness_module
        from repro.eval.harness import build_task_model

        dataset = generate_dataset(
            DatasetSpec(
                name="err", num_examples=2, prompt_length=120,
                num_facts=3, answer_tokens=2, hops=1, seed=23,
            )
        )
        task_model = build_task_model(dataset.tokenizer)

        def broken_factory(*args, **kwargs):
            def factory(heads, dim):
                raise RuntimeError("policy exploded")
            return factory

        monkeypatch.setattr(harness_module, "build_policy_factory", broken_factory)
        with pytest.raises(RuntimeError, match="failed during admission"):
            evaluate_policy(task_model, dataset, "unicaim", cache_ratio=0.5)


class TestDeferralAccounting:
    def test_stats_count_only_realized_reuse(self, model):
        """A deferred request's scheduling probe must not count as cache
        traffic: tokens_reused has to equal the prompt tokens that were
        actually skipped."""
        rng = np.random.default_rng(3)
        shared = list(map(int, rng.integers(0, VOCAB, size=24)))
        prompts = [shared + [int(t)] * 4 for t in (1, 2, 3)]
        engine = BatchedEngine(model, max_batch_size=4)
        for prompt in prompts:
            engine.submit(ServingRequest(prompt_ids=prompt, max_new_tokens=2))
        engine.run()
        stats = engine.prefix_cache.stats
        assert stats.hits == 2
        assert stats.lookups == 3
        assert stats.tokens_reused == 2 * len(shared)
