"""Quantised KV pages: storage-codec behaviour through the full stack.

Two equivalence disciplines, mirroring the paged-vs-dense suite:

* the **float codec is bit-identical** to the pre-codec arena — an engine
  on explicitly-fp64 pools produces byte-identical tokens and identical
  ``PolicyStats`` to the default pools;
* an **int8 run is deterministic in itself** — quantisation is a pure
  per-row function, so the same workload yields identical tokens and
  stats at batch 1/4/16, under prefix sharing + copy-on-write, and across
  preemption/resume.  Only fp64-vs-int8 comparisons are tolerance-based
  (the Fig-13 accuracy benches).
"""

import numpy as np
import pytest

from repro.core.config import PruningConfig
from repro.core.hybrid import UniCAIMPolicy
from repro.core.kv_codec import Int8Codec, MixedPrecisionConfig
from repro.core.kv_pool import KVPoolGroup, PagedKVPool, PagedKVStore
from repro.eval.harness import POLICY_NAMES, build_policy_factory
from repro.llm.config import ModelConfig
from repro.llm.model import TransformerLM
from repro.serving import BatchedEngine, ServingRequest

VOCAB = 89
HEADS, HEAD_DIM, LAYERS = 2, 8, 2


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
    rng = np.random.default_rng(23)
    shared = list(map(int, rng.integers(0, VOCAB, size=14)))
    return [
        shared + list(map(int, rng.integers(0, VOCAB, size=n)))
        for n in (3, 6, 2, 8, 5, 3, 7, 4, 6, 2, 5, 3, 4, 8, 2, 6)
    ]


def make_pools(num_pages=600, page_size=8, codec=None, mixed_precision=None):
    return KVPoolGroup(
        LAYERS, page_size=page_size, num_heads=HEADS, head_dim=HEAD_DIM,
        num_pages=num_pages, codec=codec, mixed_precision=mixed_precision,
    )


def run_engine(model, prompts, *, kv_pools, batch_size=4,
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
    responses = engine.run()
    assert all(r.finish_reason != "error" for r in responses), [
        (r.request_id, r.error) for r in responses if r.finish_reason == "error"
    ]
    return engine, responses


def assert_responses_identical(expected, actual):
    for e, a in zip(expected, actual):
        assert e.token_ids == a.token_ids
        assert e.finish_reason == a.finish_reason
        for es, as_ in zip(e.policy_stats, a.policy_stats):
            assert es.decode_steps == as_.decode_steps
            assert es.total_attended == as_.total_attended
            assert es.total_evictions == as_.total_evictions
            assert es.peak_cache_size == as_.peak_cache_size


class TestFloatCodecBitIdentical:
    @pytest.mark.parametrize("policy_name", POLICY_NAMES)
    def test_explicit_fp64_matches_default_pools(
        self, model, shared_prefix_prompts, policy_name
    ):
        factory = build_policy_factory(
            policy_name, prompt_length=len(shared_prefix_prompts[0]),
            cache_ratio=0.6,
        )
        _, default = run_engine(
            model, shared_prefix_prompts, kv_pools=make_pools(),
            policy_factory=factory,
        )
        _, explicit = run_engine(
            model, shared_prefix_prompts, kv_pools=make_pools(codec="fp64"),
            policy_factory=factory,
        )
        assert_responses_identical(default, explicit)


class TestInt8Determinism:
    @pytest.mark.parametrize("policy_name", POLICY_NAMES)
    def test_tokens_and_stats_identical_across_batch_sizes(
        self, model, shared_prefix_prompts, policy_name
    ):
        """Quantisation is a pure per-row function, so batch composition
        (and the prefix-sharing / CoW traffic it changes) must not move a
        single token at int8."""
        factory = build_policy_factory(
            policy_name, prompt_length=len(shared_prefix_prompts[0]),
            cache_ratio=0.6,
        )
        runs = {}
        for batch_size in (1, 4, 16):
            engine, responses = run_engine(
                model, shared_prefix_prompts,
                kv_pools=make_pools(codec="int8"),
                batch_size=batch_size, policy_factory=factory,
            )
            runs[batch_size] = (engine, responses)
        for batch_size in (4, 16):
            assert_responses_identical(runs[1][1], runs[batch_size][1])
        assert runs[16][0].stats()["kv_pool"]["codec"] == "int8"

    def test_prefix_sharing_and_cow_exercised_at_int8(
        self, model, shared_prefix_prompts
    ):
        """The batched default policy routes the shared 14-token prefix
        through page adoption and CoW splits; at int8 the split copies
        quantised bytes + scales without a round-trip, so the run must
        match batch-1 token for token."""
        engine, batched = run_engine(
            model, shared_prefix_prompts, kv_pools=make_pools(codec="int8"),
            batch_size=16,
        )
        _, solo = run_engine(
            model, shared_prefix_prompts, kv_pools=make_pools(codec="int8"),
            batch_size=1,
        )
        assert_responses_identical(solo, batched)
        pool_stats = engine.stats()["kv_pool"]
        assert pool_stats["prefix_pages_adopted"] > 0
        assert pool_stats["cow_splits"] > 0

    def test_tokens_identical_across_preemption_resume(
        self, model, shared_prefix_prompts
    ):
        """A preempted-and-resumed int8 sequence re-quantises the same rows
        to the same bytes, so page pressure must not change its tokens."""
        roomy_engine, roomy = run_engine(
            model, shared_prefix_prompts, kv_pools=make_pools(codec="int8"),
            batch_size=16,
        )
        tight_engine, tight = run_engine(
            model, shared_prefix_prompts,
            kv_pools=make_pools(num_pages=12, page_size=8, codec="int8"),
            batch_size=16,
        )
        assert_responses_identical(roomy, tight)
        tight_stats = tight_engine.stats()
        pressure = (
            tight_stats["preemption"]["preemptions"]
            + tight_stats["admission"]["page_deferrals"]
        )
        assert pressure > 0  # the tight arena really was under pressure

    def test_int4_full_stack_smoke(self, model, shared_prefix_prompts):
        engine, responses = run_engine(
            model, shared_prefix_prompts, kv_pools=make_pools(codec="int4"),
            batch_size=8,
        )
        assert all(r.num_generated == 7 for r in responses)
        assert engine.stats()["kv_pool"]["codec"] == "int4"


class TestQuantisedAccounting:
    def test_from_byte_budget_page_multiplier(self):
        budget = 1 << 20
        args = dict(
            num_layers=LAYERS, page_size=8, num_heads=HEADS,
            head_dim=HEAD_DIM, total_bytes=budget,
        )
        fp64 = KVPoolGroup.from_byte_budget(**args)
        int8 = KVPoolGroup.from_byte_budget(codec="int8", **args)
        int4 = KVPoolGroup.from_byte_budget(codec="int4", **args)
        fp_pages = fp64.stats()["pages_total"]
        assert int8.stats()["pages_total"] >= 4 * fp_pages
        assert int4.stats()["pages_total"] > int8.stats()["pages_total"]
        # Same-budget arenas stay within budget in *storage* bytes.
        for group in (fp64, int8, int4):
            assert group.stats()["bytes_total"] <= budget

    def test_resident_bytes_track_storage_codec(self):
        from repro.core.kv_cache import SlotKVCache

        rng = np.random.default_rng(0)
        dense = SlotKVCache(16, HEADS, HEAD_DIM)
        quant = SlotKVCache(16, HEADS, HEAD_DIM, codec="int8")
        for i in range(16):
            k = rng.normal(size=(HEADS, HEAD_DIM))
            v = rng.normal(size=(HEADS, HEAD_DIM))
            dense.append(k, v, token_position=i)
            quant.append(k, v, token_position=i)
        assert dense.resident_bytes() == dense.pages_held() * dense.pool.page_bytes
        assert quant.resident_bytes() == quant.pages_held() * quant.pool.page_bytes
        # Standalone caches default to fp32 compute dtype: 128 B/token dense
        # vs 48 B/token at int8 (the float32 scales dominate at head_dim=8).
        assert dense.resident_bytes() == 16 * 2 * HEADS * HEAD_DIM * 4
        assert quant.resident_bytes() == 16 * 2 * HEADS * (HEAD_DIM + 4)
        assert quant.resident_bytes() < dense.resident_bytes() / 2
        # memory_bytes stays the logical dense footprint in both.
        assert dense.memory_bytes() == quant.memory_bytes()

    def test_store_resident_bytes_and_policy_telemetry(self):
        from repro.core.baselines import H2OPolicy

        pool = PagedKVPool(8, HEADS, HEAD_DIM, num_pages=32, codec="int8")
        policy = H2OPolicy(HEADS, HEAD_DIM, heavy_budget=8, recent_budget=8)
        policy.attach_pool(pool)
        rng = np.random.default_rng(1)
        n = 24
        policy.prefill(
            rng.normal(size=(n, HEADS, HEAD_DIM)),
            rng.normal(size=(n, HEADS, HEAD_DIM)),
            rng.normal(size=(HEADS, n, n)),
        )
        assert policy.kv_resident_bytes() == (
            policy.kv_pages_held() * pool.page_bytes
        )
        policy.release_kv()
        assert policy.kv_resident_bytes() == 0

    def test_growable_quantised_store(self):
        rng = np.random.default_rng(2)
        store = PagedKVStore(HEADS, HEAD_DIM, codec="int8", page_size=4)
        keys = rng.normal(size=(30, HEADS, HEAD_DIM))
        values = rng.normal(size=(30, HEADS, HEAD_DIM))
        store.bulk_append(range(30), keys, values)
        got_k, got_v = store.gather(range(30))
        assert got_k.dtype == np.float64
        np.testing.assert_allclose(got_k, keys, atol=0.05)
        assert store.resident_bytes() == store.pages_held() * store.pool.page_bytes


class TestMixedPrecision:
    def test_sink_and_recent_pages_stay_exact(self):
        mp = MixedPrecisionConfig(sink_pages=1, recent_pages=1)
        pool = PagedKVPool(
            4, HEADS, HEAD_DIM, num_pages=32, codec="int8", mixed_precision=mp
        )
        store = PagedKVStore(HEADS, HEAD_DIM, pool=pool)
        rng = np.random.default_rng(3)
        keys = rng.normal(size=(20, HEADS, HEAD_DIM))
        values = rng.normal(size=(20, HEADS, HEAD_DIM))
        store.bulk_append(range(20), keys, values)
        got_k, _ = store.gather(range(20))
        # Sink page (rows 0..3) and the frontier page (rows 16..19) are
        # full precision; the demoted middle is quantised.
        np.testing.assert_array_equal(got_k[:4], keys[:4])
        np.testing.assert_array_equal(got_k[16:], keys[16:])
        assert not np.array_equal(got_k[4:16], keys[4:16])
        np.testing.assert_allclose(got_k[4:16], keys[4:16], atol=0.05)
        assert pool.stats.fp_promotions == 5  # every fresh block starts fp
        assert pool.stats.fp_demotions == 3  # blocks 1..3 left the window
        assert pool.fp_pages_in_use == 2

    def test_fp_overlay_counted_in_bytes(self):
        mp = MixedPrecisionConfig(sink_pages=1)
        pool = PagedKVPool(
            4, HEADS, HEAD_DIM, num_pages=8, codec="int8", mixed_precision=mp
        )
        store = PagedKVStore(HEADS, HEAD_DIM, pool=pool)
        rng = np.random.default_rng(4)
        store.bulk_append(
            range(8),
            rng.normal(size=(8, HEADS, HEAD_DIM)),
            rng.normal(size=(8, HEADS, HEAD_DIM)),
        )
        # Page 0 is fp-pinned: it costs its arena slot plus the overlay.
        assert store.resident_bytes() == 2 * pool.page_bytes + pool.fp_page_bytes
        assert pool.bytes_in_use == store.resident_bytes()
        store.release()
        assert pool.fp_pages_in_use == 0
        assert pool.bytes_in_use == 0

    def test_mixed_precision_requires_quantised_codec(self):
        with pytest.raises(ValueError):
            PagedKVPool(
                4, HEADS, HEAD_DIM, num_pages=4,
                mixed_precision=MixedPrecisionConfig(sink_pages=1),
            )

    def test_engine_runs_with_mixed_precision_pools(
        self, model, shared_prefix_prompts
    ):
        mp = MixedPrecisionConfig(sink_pages=1, recent_pages=1)
        engine, responses = run_engine(
            model, shared_prefix_prompts,
            kv_pools=make_pools(codec="int8", mixed_precision=mp),
            batch_size=8,
        )
        stats = engine.stats()["kv_pool"]
        assert stats["fp_promotions"] > 0
        assert 0.0 <= stats["fp_page_fraction"] <= 1.0


class TestUniCAIMGroupWrite:
    """A UniCAIM group step writes every member's row in one pool write
    and patches each key mirror from the returned rows."""

    CONFIG = PruningConfig(heavy_budget=10, reserved_budget=6, top_k=4)
    ARENAS = {
        "int8": dict(codec="int8"),
        "int4": dict(codec="int4"),
        "int8-mixed": dict(
            codec="int8",
            mixed_precision=MixedPrecisionConfig(sink_pages=1, recent_pages=1),
        ),
    }

    def _members(self, arena, rng):
        pool = PagedKVPool(4, HEADS, HEAD_DIM, num_pages=64, **self.ARENAS[arena])
        group = []
        for _ in range(3):
            policy = UniCAIMPolicy(HEADS, HEAD_DIM, config=self.CONFIG)
            policy.attach_pool(pool)
            n = 20
            policy.prefill(
                rng.normal(size=(n, HEADS, HEAD_DIM)),
                rng.normal(size=(n, HEADS, HEAD_DIM)),
                rng.normal(size=(HEADS, n, n)),
            )
            group.append(policy)
        return pool, group

    @pytest.mark.parametrize("arena", sorted(ARENAS))
    def test_mirrors_equal_rebuild_and_serial_twin(self, arena):
        pool, group = self._members(arena, np.random.default_rng(11))
        twin_pool, twins = self._members(arena, np.random.default_rng(11))
        rng = np.random.default_rng(12)
        sharers = []
        for step in range(16):
            queries, keys, values = rng.normal(size=(3, 3, HEADS, HEAD_DIM))
            positions = [20 + step] * 3
            if step == 9:
                # Another holder takes every page of member 1: its next
                # write copy-on-write splits whichever page it lands in.
                for p, members in ((pool, group), (twin_pool, twins)):
                    for page in members[1].cache.block_table.page_ids:
                        p.incref(page)
                        sharers.append((p, page))
            out = group[0].decode_step_group(queries, keys, values, positions, group)
            for row, twin in enumerate(twins):
                want = twin.decode_step(
                    queries[row], keys[row], values[row], positions[row]
                )
                assert out[row].tobytes() == want.tobytes()
            for policy, twin in zip(group, twins):
                cache = policy.cache
                slots = cache.occupied_slots()
                mirrored = cache.key_mirror.rows[:, slots].copy()
                cache._rebuild_mirror()
                assert mirrored.tobytes() == cache.key_mirror.rows[:, slots].tobytes()
                assert policy.eviction_log == twin.eviction_log
                assert policy.cache.block_table.page_ids == (
                    twin.cache.block_table.page_ids
                )
        for p, page in sharers:
            p.decref(page)
        assert pool.stats.cow_splits == twin_pool.stats.cow_splits > 0
        assert pool.stats.fp_demotions == twin_pool.stats.fp_demotions
        if arena == "int8-mixed":
            assert pool.stats.fp_demotions > 0
        assert all(policy.eviction_log for policy in group)


class TestEngineValidation:
    def test_mixed_codecs_across_layers_rejected(self, model):
        pools = make_pools(num_pages=16)
        pools.pools[1] = PagedKVPool(
            8, HEADS, HEAD_DIM, num_pages=16, codec="int8"
        )
        with pytest.raises(ValueError):
            BatchedEngine(model, kv_pools=pools)

    def test_float_codec_dtype_mismatch_rejected(self):
        with pytest.raises(ValueError):
            PagedKVPool(4, HEADS, HEAD_DIM, num_pages=4, codec="fp32")

    def test_codec_survives_growable_pool_growth(self):
        pool = PagedKVPool(2, HEADS, HEAD_DIM, codec=Int8Codec())
        rng = np.random.default_rng(5)
        rows = rng.normal(size=(1, HEADS, HEAD_DIM))
        pages = [pool.alloc() for _ in range(10)]  # forces several _grow()s
        for page in pages:
            pool.write_rows(page, 0, rows, rows)
        first = pool.page_keys(pages[0])
        np.testing.assert_array_equal(first, pool.page_keys(pages[-1]))
        np.testing.assert_allclose(first[0], rows[0], atol=0.05)
