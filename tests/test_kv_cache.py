"""Tests for the fixed-size slot-based KV cache."""

import numpy as np
import pytest

from repro.core.config import PruningConfig
from repro.core.hybrid import UniCAIMPolicy
from repro.core.kv_cache import SlotKVCache
from repro.core.kv_codec import MixedPrecisionConfig
from repro.core.kv_pool import PagedKVPool, set_poison_padding


def make_cache(capacity=4, heads=2, dim=3):
    return SlotKVCache(capacity=capacity, num_heads=heads, head_dim=dim)


def kv(heads=2, dim=3, fill=1.0):
    return np.full((heads, dim), fill), np.full((heads, dim), -fill)


class TestConstruction:
    def test_starts_empty(self):
        cache = make_cache()
        assert len(cache) == 0
        assert cache.num_free_slots == 4
        assert not cache.is_full

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            SlotKVCache(0, 1, 1)
        with pytest.raises(ValueError):
            SlotKVCache(1, 0, 1)
        with pytest.raises(ValueError):
            SlotKVCache(1, 1, 0)


class TestAppendAndRead:
    def test_append_fills_slots_in_order(self):
        cache = make_cache()
        key, value = kv()
        slots = [cache.append(key, value, pos) for pos in range(3)]
        assert slots == [0, 1, 2]
        assert len(cache) == 3

    def test_append_records_token_positions(self):
        cache = make_cache()
        key, value = kv()
        cache.append(key, value, 10)
        cache.append(key, value, 20)
        assert cache.token_positions().tolist() == [10, 20]

    def test_append_when_full_raises(self):
        cache = make_cache(capacity=2)
        key, value = kv()
        cache.append(key, value, 0)
        cache.append(key, value, 1)
        with pytest.raises(RuntimeError):
            cache.append(key, value, 2)

    def test_keys_and_values_roundtrip(self):
        cache = make_cache()
        key, value = kv(fill=3.0)
        cache.append(key, value, 0)
        np.testing.assert_allclose(cache.keys()[0], key)
        np.testing.assert_allclose(cache.values()[0], value)

    def test_keys_per_head_selection(self):
        cache = make_cache()
        key = np.stack([np.ones(3), 2 * np.ones(3)])
        cache.append(key, key, 0)
        np.testing.assert_allclose(cache.keys(head=1)[0], 2 * np.ones(3))

    def test_shape_validation(self):
        cache = make_cache()
        with pytest.raises(ValueError):
            cache.append(np.ones((3, 3)), np.ones((2, 3)), 0)

    def test_negative_position_rejected(self):
        cache = make_cache()
        key, value = kv()
        with pytest.raises(ValueError):
            cache.append(key, value, -1)

    def test_gather_returns_requested_slots(self):
        cache = make_cache()
        for pos in range(3):
            key = np.full((2, 3), float(pos))
            cache.append(key, key, pos)
        keys, values, positions = cache.gather([2, 0])
        assert positions.tolist() == [2, 0]
        np.testing.assert_allclose(keys[0], np.full((2, 3), 2.0))

    def test_gather_unoccupied_slot_raises(self):
        cache = make_cache()
        key, value = kv()
        cache.append(key, value, 0)
        with pytest.raises(ValueError):
            cache.gather([1])


class TestAppendMany:
    """The bulk prefill load equals the same rows appended one at a time
    after ``clear()``: slots, metadata, stored bytes and page ids."""

    @pytest.mark.parametrize("codec", [None, "int8"])
    @pytest.mark.parametrize("page_size", [None, 3])
    def test_matches_one_at_a_time(self, codec, page_size):
        rng = np.random.default_rng(4)
        keys = rng.normal(size=(5, 2, 4))
        values = rng.normal(size=(5, 2, 4))
        positions = [0, 3, 4, 9, 12]

        def build():
            pool = None
            if page_size is not None:
                pool = PagedKVPool(page_size, 2, 4, num_pages=8, codec=codec)
            cache = SlotKVCache(capacity=7, num_heads=2, head_dim=4,
                                pool=pool, codec=None if pool else codec)
            cache.append(keys[0], values[0], 99)
            cache.clear()
            return cache

        looped = build()
        slots = [
            looped.append(k, v, pos, is_heavy=True)
            for k, v, pos in zip(keys, values, positions)
        ]
        bulk = build()
        np.testing.assert_array_equal(
            bulk.append_many(keys, values, positions, is_heavy=True), slots
        )
        assert bulk.entries() == looped.entries()
        assert bulk.position_to_slot_map() == looped.position_to_slot_map()
        assert bulk.num_free_slots == looped.num_free_slots
        assert bulk.write_count == looped.write_count
        np.testing.assert_array_equal(bulk.keys(), looped.keys())
        np.testing.assert_array_equal(bulk.values(), looped.values())
        assert bulk.block_table.locate(np.arange(5))[0].tolist() == (
            looped.block_table.locate(np.arange(5))[0].tolist()
        )
        # The next decode-time append lands where it would have.
        key, value = kv(heads=2, dim=4)
        assert bulk.append(key, value, 20) == looped.append(key, value, 20)

    def test_needs_an_empty_cache(self):
        cache = make_cache()
        key, value = kv()
        cache.append(key, value, 0)
        with pytest.raises(RuntimeError):
            cache.append_many(key[None], value[None], [1])


class TestEvictionAndReplace:
    def test_evict_frees_slot(self):
        cache = make_cache(capacity=2)
        key, value = kv()
        cache.append(key, value, 0)
        cache.append(key, value, 1)
        entry = cache.evict(0)
        assert entry.token_position == 0
        assert len(cache) == 1
        assert cache.num_free_slots == 1

    def test_evicted_slot_is_reused(self):
        cache = make_cache(capacity=2)
        key, value = kv()
        cache.append(key, value, 0)
        cache.append(key, value, 1)
        cache.evict(0)
        new_slot = cache.append(key, value, 2)
        assert new_slot == 0

    def test_replace_is_in_place(self):
        """The paper's "fill the statically evicted position" operation."""
        cache = make_cache(capacity=2)
        key, value = kv()
        cache.append(key, value, 0)
        cache.append(key, value, 1)
        evicted = cache.replace(1, key * 2, value, 5)
        assert evicted.token_position == 1
        assert cache.slot_of_position(5) == 1
        assert len(cache) == 2

    def test_overwrite_free_slot_keeps_free_list_consistent(self):
        """Overwriting an unallocated slot (now an O(1) removal from the
        free pool, not an O(capacity) list.remove) must preserve the
        allocation order of the remaining free slots and never hand the
        overwritten slot out twice."""
        cache = make_cache(capacity=4)
        key, value = kv()
        cache.overwrite(1, key, value, 10)
        assert cache.slot_of_position(10) == 1
        assert cache.num_free_slots == 3
        # Remaining free slots still allocate in ascending order.
        assert [cache.append(key, value, 20 + i) for i in range(3)] == [0, 2, 3]
        assert cache.is_full
        with pytest.raises(RuntimeError):
            cache.append(key, value, 99)

    def test_overwrite_occupied_slot_remaps_position(self):
        cache = make_cache(capacity=2)
        key, value = kv()
        cache.append(key, value, 0)
        cache.overwrite(0, key * 2, value, 5)
        assert cache.slot_of_position(0) is None
        assert cache.slot_of_position(5) == 0
        assert cache.num_free_slots == 1

    def test_evict_unoccupied_raises(self):
        cache = make_cache()
        with pytest.raises(ValueError):
            cache.evict(0)

    def test_evict_position(self):
        cache = make_cache()
        key, value = kv()
        cache.append(key, value, 7)
        entry = cache.evict_position(7)
        assert entry.token_position == 7
        with pytest.raises(KeyError):
            cache.evict_position(7)

    def test_eviction_count_tracks(self):
        cache = make_cache()
        key, value = kv()
        cache.append(key, value, 0)
        cache.evict(0)
        cache.append(key, value, 1)
        cache.evict_position(1)
        assert cache.eviction_count == 2

    def test_out_of_range_slot_raises(self):
        cache = make_cache(capacity=2)
        with pytest.raises(IndexError):
            cache.evict(5)


class TestBookkeeping:
    def test_position_to_slot_map(self):
        cache = make_cache()
        key, value = kv()
        cache.append(key, value, 3)
        cache.append(key, value, 9)
        assert cache.position_to_slot_map() == {3: 0, 9: 1}

    def test_contains_position(self):
        cache = make_cache()
        key, value = kv()
        cache.append(key, value, 3)
        assert cache.contains_position(3)
        assert not cache.contains_position(4)

    def test_entries_report_heavy_flag(self):
        cache = make_cache()
        key, value = kv()
        cache.append(key, value, 0, is_heavy=True)
        cache.append(key, value, 1, is_heavy=False)
        entries = cache.entries()
        assert entries[0].is_heavy and not entries[1].is_heavy

    def test_clear_resets_everything(self):
        cache = make_cache()
        key, value = kv()
        cache.append(key, value, 0)
        cache.clear()
        assert len(cache) == 0
        assert cache.num_free_slots == cache.capacity

    def test_write_count_includes_overwrites(self):
        cache = make_cache()
        key, value = kv()
        cache.append(key, value, 0)
        cache.overwrite(0, key, value, 1)
        assert cache.write_count == 2

    def test_memory_bytes_fixed_by_capacity(self):
        cache = make_cache(capacity=8, heads=2, dim=4)
        expected = 2 * 8 * 2 * 4 * 4  # two float32 arrays
        assert cache.memory_bytes() == expected

    def test_capacity_never_exceeded_under_replace_loop(self):
        cache = make_cache(capacity=3)
        key, value = kv()
        for pos in range(3):
            cache.append(key, value, pos)
        for pos in range(3, 20):
            victim_slot = cache.slot_of_position(pos - 3)
            cache.replace(victim_slot, key, value, pos)
            assert len(cache) == 3


class TestKeyMirror:
    """The slot-resident key mirror always equals a pool gather of the
    occupied slots, bitwise, through every kind of write, eviction,
    release, rebind, copy-on-write split and mixed-precision demotion."""

    HEADS, DIM, PAGE = 2, 5, 4
    CONFIG = PruningConfig(heavy_budget=10, reserved_budget=6, top_k=4)

    POOLS = {
        "fp64": dict(dtype=np.float64),
        "fp32": dict(dtype=np.float32),
        "int8": dict(codec="int8"),
        "int4": dict(codec="int4"),
        "int8-mixed": dict(
            codec="int8",
            mixed_precision=MixedPrecisionConfig(sink_pages=1, recent_pages=1),
        ),
    }

    @staticmethod
    def assert_mirror_matches(cache):
        slots = cache.occupied_slots()
        mirror = cache.key_mirror.rows[:, slots].transpose(1, 0, 2)
        gathered = cache.block_table.gather_keys(slots).astype(np.float64)
        assert mirror.dtype == np.float64
        assert np.ascontiguousarray(mirror).tobytes() == gathered.tobytes()
        assert cache.keys().tobytes() == gathered.tobytes()
        query = np.random.default_rng(0).normal(size=(TestKeyMirror.HEADS, TestKeyMirror.DIM))
        expected = np.einsum("nhd,hd->hn", gathered, query)
        np.testing.assert_array_equal(cache.search(query), expected)

    @pytest.mark.parametrize("pool_kind", sorted(POOLS))
    def test_random_operations_keep_mirror_exact(self, pool_kind):
        rng = np.random.default_rng(sorted(self.POOLS).index(pool_kind))
        pools = []

        def fresh_pool():
            pools.append(
                PagedKVPool(
                    self.PAGE, self.HEADS, self.DIM, num_pages=64,
                    **self.POOLS[pool_kind],
                )
            )
            return pools[-1]

        policy = UniCAIMPolicy(self.HEADS, self.DIM, config=self.CONFIG)
        policy.attach_pool(fresh_pool())
        shape = (self.HEADS, self.DIM)
        position = 0
        sharers = []
        ops = [
            "append", "append_many", "replace", "evict", "overwrite_free",
            "clear", "release", "rebind", "share",
        ]
        weights = np.asarray([8, 1, 6, 3, 2, 0.5, 0.5, 0.5, 1])
        for _ in range(300):
            cache = policy.cache
            op = rng.choice(ops, p=weights / weights.sum())
            position += 1
            occupied = cache.occupied_slots()
            free = np.setdiff1d(np.arange(cache.capacity), occupied)
            if op == "append" and not cache.is_full:
                cache.append(rng.normal(size=shape), rng.normal(size=shape), position)
            elif op == "append_many":
                n = int(rng.integers(0, cache.capacity + 1))
                cache.clear()
                cache.append_many(
                    rng.normal(size=(n,) + shape), rng.normal(size=(n,) + shape),
                    np.arange(position, position + n),
                )
                position += n
            elif op == "replace" and occupied.size:
                cache.replace(
                    int(rng.choice(occupied)), rng.normal(size=shape),
                    rng.normal(size=shape), position,
                )
            elif op == "evict" and occupied.size:
                cache.evict(int(rng.choice(occupied)))
            elif op == "overwrite_free" and free.size:
                cache.overwrite(
                    int(rng.choice(free)), rng.normal(size=shape),
                    rng.normal(size=shape), position,
                )
            elif op == "clear":
                cache.clear()
            elif op == "release":
                policy.release_kv()
            elif op == "rebind":
                policy.release_kv()
                policy.attach_pool(fresh_pool())
            elif op == "share" and cache.pages_held():
                # Another holder takes a reference: the next write into
                # this page copy-on-write splits it.
                page = int(rng.choice(cache.block_table.page_ids))
                cache.pool.incref(page)
                sharers.append((cache.pool, page))
            self.assert_mirror_matches(policy.cache)
        for pool, page in sharers:
            pool.decref(page)
        assert sum(pool.stats.cow_splits for pool in pools) > 0
        if pool_kind == "int8-mixed":
            assert sum(pool.stats.fp_demotions for pool in pools) > 0

    def test_demotion_rebuild_counts_one_materialization(self):
        pool = PagedKVPool(
            self.PAGE, self.HEADS, self.DIM, num_pages=8, codec="int8",
            mixed_precision=MixedPrecisionConfig(recent_pages=1),
        )
        cache = SlotKVCache(12, self.HEADS, self.DIM, pool=pool)
        rng = np.random.default_rng(3)
        for pos in range(self.PAGE):
            cache.append(rng.normal(size=(self.HEADS, self.DIM)),
                         rng.normal(size=(self.HEADS, self.DIM)), pos)
        before = cache.materialization_count
        # The first write into the next block demotes block 0: the
        # mirror re-reads the occupied rows once, then matches again.
        cache.append(rng.normal(size=(self.HEADS, self.DIM)),
                     rng.normal(size=(self.HEADS, self.DIM)), self.PAGE)
        assert pool.stats.fp_demotions == 1
        # One occupied-slot refresh plus the rebuild itself.
        assert cache.materialization_count == before + 2
        self.assert_mirror_matches(cache)

    def test_poison_mode_nan_fills_free_and_evicted_rows(self):
        old = set_poison_padding(True)
        try:
            cache = SlotKVCache(6, self.HEADS, self.DIM)
            key = np.ones((self.HEADS, self.DIM))
            for pos in range(4):
                cache.append(key * pos, key, pos)
            cache.evict(1)
            rows = cache.key_mirror.rows
            assert np.isnan(rows[:, [1, 4, 5]]).all()
            assert not np.isnan(rows[:, [0, 2, 3]]).any()
        finally:
            set_poison_padding(old)
