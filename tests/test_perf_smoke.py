"""Guards against silent perf regressions in the decode hot path.

The vectorized :class:`~repro.core.kv_cache.SlotKVCache` returns cached
views from ``keys()`` / ``values()`` / ``token_positions()`` and only
materialises fresh arrays after a mutation.  These tests pin that
contract with the cache's ``materialization_count`` so a future change
cannot quietly reintroduce a fancy-indexed copy per read (the seed
behaviour, which made every decode step O(cache reads) in allocations).
UniCAIM decode scores the cache's slot-resident key mirror in place, so
its decode steps must also do no full K gather from the pool at all.
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
from repro.core.dynamic_pruning import CAMApproximateSelector
from repro.core.hybrid import UniCAIMPolicy
from repro.core.kv_cache import SlotKVCache
from repro.core.kv_codec import Int8Codec
from repro.core.kv_pool import PagedKVPool
from repro.core.policy import FullCachePolicy

HEADS, DIM = 2, 8

# A decode step mutates the cache once (insert/replace) and then reads the
# occupied-slot index, the positions and V of the selected rows — at most
# three arrays may be materialised per step (K comes from the key mirror).
MAX_MATERIALIZATIONS_PER_STEP = 3


class TestCacheViewCaching:
    def test_repeated_reads_are_free(self):
        cache = SlotKVCache(capacity=8, num_heads=HEADS, head_dim=DIM)
        rng = np.random.default_rng(0)
        for pos in range(6):
            cache.append(rng.normal(size=(HEADS, DIM)), rng.normal(size=(HEADS, DIM)), pos)
        cache.keys()
        cache.values()
        cache.token_positions()
        baseline = cache.materialization_count
        for _ in range(25):
            cache.keys()
            cache.values()
            cache.token_positions()
            cache.occupied_slots()
        assert cache.materialization_count == baseline

    def test_views_refresh_after_mutation(self):
        cache = SlotKVCache(capacity=4, num_heads=HEADS, head_dim=DIM)
        key = np.ones((HEADS, DIM))
        cache.append(key, key, 0)
        assert cache.token_positions().tolist() == [0]
        cache.append(key * 2, key * 2, 1)
        assert cache.token_positions().tolist() == [0, 1]
        cache.evict_position(0)
        assert cache.token_positions().tolist() == [1]
        np.testing.assert_allclose(cache.keys()[0], key * 2)

    def test_views_are_read_only(self):
        cache = SlotKVCache(capacity=4, num_heads=HEADS, head_dim=DIM)
        cache.append(np.ones((HEADS, DIM)), np.ones((HEADS, DIM)), 0)
        with pytest.raises(ValueError):
            cache.keys()[0, 0, 0] = 7.0
        with pytest.raises(ValueError):
            cache.token_positions()[0] = 3


class TestDecodeMaterializationBudget:
    def test_64_step_decode_is_o_steps(self, rng):
        """A 64-token decode performs no more than O(steps) cache-array
        materialisations — the zero-copy view optimisation must not regress."""
        config = PruningConfig(
            heavy_budget=24, reserved_budget=8, top_k=8,
            sink_tokens=2, recent_protect=4,
        )
        policy = UniCAIMPolicy(HEADS, DIM, config=config)
        n = 48
        keys = rng.normal(size=(n, HEADS, DIM))
        values = rng.normal(size=(n, HEADS, DIM))
        attn = rng.normal(size=(HEADS, n, n))
        policy.prefill(keys, values, attn)

        start = policy.cache.materialization_count
        steps = 64
        for step in range(steps):
            query = rng.normal(size=(HEADS, DIM))
            key = rng.normal(size=(HEADS, DIM))
            value = rng.normal(size=(HEADS, DIM))
            policy.decode_step(query, key, value, position=n + step)
        used = policy.cache.materialization_count - start
        assert used <= MAX_MATERIALIZATIONS_PER_STEP * steps

    @pytest.mark.parametrize("grouped", [False, True], ids=["serial", "group"])
    def test_full_cache_decode_does_no_key_gather(self, rng, monkeypatch, grouped):
        """N decode steps of a full UniCAIM cache read no K from the pool
        pages: the selector scores the key mirror, and a mirror rebuild
        (which would count as a materialisation) never happens on the
        float codec."""
        config = PruningConfig(heavy_budget=24, reserved_budget=8, top_k=8)
        pool = PagedKVPool(8, HEADS, DIM, num_pages=16)
        group = []
        for _ in range(2 if grouped else 1):
            policy = UniCAIMPolicy(HEADS, DIM, config=config)
            policy.attach_pool(pool)
            policy.prefill(
                rng.normal(size=(40, HEADS, DIM)), rng.normal(size=(40, HEADS, DIM))
            )
            group.append(policy)

        def step(position):
            queries, keys, values = rng.normal(size=(3, len(group), HEADS, DIM))
            if grouped:
                group[0].decode_step_group(
                    queries, keys, values, [position] * len(group), group
                )
            else:
                group[0].decode_step(queries[0], keys[0], values[0], position)

        position = 40
        while not group[0].cache.is_full:
            step(position)
            position += 1
        key_reads = []
        original = pool.gather_keys

        def spy(pages, offsets):
            key_reads.append(np.shape(pages))
            return original(pages, offsets)

        monkeypatch.setattr(pool, "gather_keys", spy)
        start = [policy.cache.materialization_count for policy in group]
        steps = 32
        for offset in range(steps):
            step(position + offset)
        assert key_reads == []
        for policy, before in zip(group, start):
            used = policy.cache.materialization_count - before
            assert used <= MAX_MATERIALIZATIONS_PER_STEP * steps

    def test_position_lookup_is_constant_time_map(self):
        """slot_of_position is served by the O(1) dict, which stays in sync
        through append / evict / replace cycles."""
        cache = SlotKVCache(capacity=6, num_heads=1, head_dim=4)
        vec = np.zeros((1, 4))
        for pos in range(6):
            cache.append(vec, vec, pos)
        assert cache.position_to_slot_map() == {p: p for p in range(6)}
        cache.replace(2, vec, vec, token_position=10)
        assert cache.slot_of_position(2) is None
        assert cache.slot_of_position(10) == 2
        cache.evict(0)
        assert cache.slot_of_position(0) is None
        assert cache.position_to_slot_map() == {1: 1, 10: 2, 3: 3, 4: 4, 5: 5}


GROUP_WRITE_FACTORIES = {
    "full": lambda: FullCachePolicy(HEADS, DIM),
    "h2o": lambda: H2OPolicy(HEADS, DIM, heavy_budget=8, recent_budget=4),
    "quest": lambda: QuestPolicy(HEADS, DIM, page_size=4, num_pages=2),
    "snapkv": lambda: SnapKVPolicy(
        HEADS, DIM, prompt_budget=12, observation_window=4
    ),
    "streaming_llm": lambda: StreamingLLMPolicy(HEADS, DIM, sink_tokens=2, window=8),
    "unicaim": lambda: UniCAIMPolicy(
        HEADS, DIM, config=PruningConfig(heavy_budget=10, reserved_budget=2, top_k=4)
    ),
    "unicaim_cam": lambda: UniCAIMPolicy(
        HEADS, DIM,
        config=PruningConfig(heavy_budget=10, reserved_budget=2, top_k=4),
        selector=CAMApproximateSelector(),
    ),
}


class TestGroupWriteCallCount:
    """A group decode step writes its members' new rows with one pool
    write and one codec encode, however many members the span has."""

    @pytest.mark.parametrize("name", sorted(GROUP_WRITE_FACTORIES))
    def test_one_write_per_span_at_any_size(self, name, monkeypatch):
        calls = {"write_rows": 0, "encode": 0}
        for owner, attr in ((PagedKVPool, "write_rows"), (Int8Codec, "encode")):
            original = getattr(owner, attr)

            def counted(*args, _original=original, _attr=attr, **kwargs):
                calls[_attr] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(owner, attr, counted)

        seen = {}
        for size in (2, 5):
            rng = np.random.default_rng(size)
            pool = PagedKVPool(8, HEADS, DIM, num_pages=64, codec="int8")
            group = []
            for _ in range(size):
                policy = GROUP_WRITE_FACTORIES[name]()
                policy.attach_pool(pool)
                policy.prefill(
                    rng.normal(size=(20, HEADS, DIM)),
                    rng.normal(size=(20, HEADS, DIM)),
                    rng.normal(size=(HEADS, 20, 20)),
                )
                group.append(policy)
            for step in range(3):  # the last step evicts where the policy does
                calls.update(write_rows=0, encode=0)
                queries, keys, values = rng.normal(size=(3, size, HEADS, DIM))
                out = group[0].decode_step_group(
                    queries, keys, values, [20 + step] * size, group
                )
                assert out is not None
            seen[size] = dict(calls)
        assert seen[2] == seen[5] == {"write_rows": 1, "encode": 1}
