"""Unit tests for the paged KV pool: refcounts, CoW, exhaustion, stores."""

import dataclasses

import numpy as np
import pytest

from repro.core.kv_cache import SlotKVCache
from repro.core.kv_codec import MixedPrecisionConfig
from repro.core.kv_pool import (
    BlockTable,
    KVPoolGroup,
    PagedKVPool,
    PagedKVStore,
    PoolExhaustedError,
    SharedKVPages,
    gather_padded,
    poison_padding_enabled,
    put_group,
    set_poison_padding,
    write_group,
)

HEADS, DIM = 2, 4


def row(fill):
    return np.full((HEADS, DIM), float(fill))


def make_pool(num_pages=4, page_size=4):
    return PagedKVPool(page_size, HEADS, DIM, num_pages=num_pages)


class TestPagedKVPool:
    def test_alloc_hands_out_pages_in_order(self):
        pool = make_pool()
        assert [pool.alloc() for _ in range(4)] == [0, 1, 2, 3]
        assert pool.free_pages == 0 and pool.pages_in_use == 4

    def test_fixed_pool_exhaustion_raises(self):
        pool = make_pool(num_pages=1)
        pool.alloc()
        with pytest.raises(PoolExhaustedError):
            pool.alloc()

    def test_growable_pool_never_exhausts(self):
        pool = PagedKVPool(2, HEADS, DIM)  # num_pages=None -> growable
        pages = [pool.alloc() for _ in range(20)]
        assert len(set(pages)) == 20

    def test_decref_returns_page_to_free_list(self):
        pool = make_pool(num_pages=1)
        page = pool.alloc()
        pool.decref(page)
        assert pool.free_pages == 1
        assert pool.alloc() == page

    def test_double_free_raises(self):
        pool = make_pool()
        page = pool.alloc()
        pool.decref(page)
        with pytest.raises(ValueError):
            pool.decref(page)

    def test_incref_keeps_page_alive_until_last_reference(self):
        pool = make_pool()
        page = pool.alloc()
        pool.incref(page)
        pool.decref(page)
        assert pool.refcount(page) == 1 and pool.pages_in_use == 1
        pool.decref(page)
        assert pool.pages_in_use == 0

    def test_incref_of_free_page_raises(self):
        pool = make_pool()
        with pytest.raises(ValueError):
            pool.incref(0)

    def test_copy_page_copies_rows_and_counts_split(self):
        pool = make_pool()
        src = pool.alloc()
        pool.page_keys(src)[0] = row(7)
        dst = pool.copy_page(src)
        assert dst != src
        np.testing.assert_allclose(pool.page_keys(dst)[0], row(7))
        assert pool.stats.cow_splits == 1

    def test_byte_accounting(self):
        pool = make_pool(num_pages=3, page_size=4)
        assert pool.page_bytes == 2 * 4 * HEADS * DIM * 8
        pool.alloc()
        assert pool.bytes_in_use == pool.page_bytes
        assert pool.bytes_total == 3 * pool.page_bytes


class TestBlockTable:
    def test_write_allocates_lazily_and_gathers(self):
        pool = make_pool()
        table = BlockTable(pool)
        table.write(0, row(1)[None], -row(1)[None])
        table.write(5, row(2)[None], -row(2)[None])  # second page
        assert table.pages_held() == 2
        keys, values = table.gather(np.asarray([5, 0]))
        np.testing.assert_allclose(keys[0], row(2))
        np.testing.assert_allclose(values[1], -row(1))

    def test_gather_of_unwritten_slot_raises(self):
        pool = make_pool()
        table = BlockTable(pool)
        table.write(0, row(1)[None], row(1)[None])
        with pytest.raises((ValueError, IndexError)):
            table.gather(np.asarray([4]))

    def test_write_to_shared_page_splits_and_preserves_sharer(self):
        """The copy-on-write split: an adopter's overwrite/evict must never
        be visible to the other holders of the page."""
        pool = make_pool()
        donor = BlockTable(pool)
        donor.write(0, np.stack([row(1), row(2)]), np.stack([row(1), row(2)]))
        shared = SharedKVPages(pool, donor.page_ids, 2)

        adopter = BlockTable(pool)
        adopter.adopt(shared)
        assert pool.refcount(shared.page_ids[0]) == 2

        adopter.write(0, row(99)[None], row(99)[None])  # CoW split
        assert pool.stats.cow_splits == 1
        np.testing.assert_allclose(donor.gather_keys(np.asarray([0]))[0], row(1))
        np.testing.assert_allclose(adopter.gather_keys(np.asarray([0]))[0], row(99))
        assert pool.refcount(shared.page_ids[0]) == 1  # adopter moved off

    def test_release_is_idempotent(self):
        pool = make_pool()
        table = BlockTable(pool)
        table.write(0, row(1)[None], row(1)[None])
        table.release()
        table.release()
        assert pool.pages_in_use == 0

    def test_adopt_requires_empty_table_and_same_pool(self):
        pool = make_pool()
        donor = BlockTable(pool)
        donor.write(0, row(1)[None], row(1)[None])
        shared = SharedKVPages(pool, donor.page_ids, 1)
        occupied = BlockTable(pool)
        occupied.write(0, row(2)[None], row(2)[None])
        with pytest.raises(RuntimeError):
            occupied.adopt(shared)
        other = BlockTable(make_pool())
        with pytest.raises(ValueError):
            other.adopt(shared)


ARENAS = {
    "fp64": {},
    "int8": {"codec": "int8"},
    "int4": {"codec": "int4"},
}


def arena_snapshot(pool):
    """Every stored byte of ``pool`` — arena rows, scales, fp flags and
    overlay rows — plus its counters."""
    arrays = [pool._keys, pool._values]
    if pool._key_scales is not None:
        arrays += [pool._key_scales, pool._value_scales, pool._fp_flags]
    overlay = sorted(
        (page, pool._fp_keys[page].tobytes(), pool._fp_values[page].tobytes())
        for page in pool._fp_keys
    )
    return [a.tobytes() for a in arrays], overlay, dataclasses.astuple(pool.stats)


class TestBatchedWrites:
    """One scattered write stores bitwise what row-by-row writes store,
    and returns the K rows a gather reads back."""

    @pytest.mark.parametrize(
        "arena", ["fp64", "int8", "int4", "int8-overlay", "int4-overlay"]
    )
    def test_scattered_write_rows_matches_row_by_row(self, arena):
        codec, _, overlay = arena.partition("-")
        rng = np.random.default_rng(0)
        pools = [
            PagedKVPool(4, HEADS, DIM, num_pages=6, **ARENAS[codec])
            for _ in range(2)
        ]
        for pool in pools:
            for _ in range(6):
                pool.alloc()
            if overlay:
                pool.mark_page_fp(1)
                pool.mark_page_fp(4)
        pages, offsets = np.divmod(rng.choice(24, size=14, replace=False), 4)
        keys, values = rng.normal(size=(2, 14, HEADS, DIM))
        stored = pools[0].write_rows(pages, offsets, keys, values)
        singles = [
            pools[1].write_rows(int(p), int(o), keys[i : i + 1], values[i : i + 1])
            for i, (p, o) in enumerate(zip(pages, offsets))
        ]
        if overlay:
            fp = pools[0]._fp_flags[pages]
            assert fp.any() and not fp.all()
        assert arena_snapshot(pools[0]) == arena_snapshot(pools[1])
        assert stored.tobytes() == np.concatenate(singles).tobytes()
        assert stored.tobytes() == pools[0].gather_keys(pages, offsets).tobytes()
        assert stored.dtype == np.float64

    @pytest.mark.parametrize(
        "arena", ["fp64", "int8", "int4", "int8-overlay", "int4-overlay"]
    )
    def test_run_across_pages_matches_row_by_row(self, arena):
        """The run form: rows fill the first page from ``offset`` on, then
        each next page of the run from its first row."""
        codec, _, overlay = arena.partition("-")
        rng = np.random.default_rng(1)
        pools = [
            PagedKVPool(4, HEADS, DIM, num_pages=6, **ARENAS[codec])
            for _ in range(2)
        ]
        for pool in pools:
            for _ in range(6):
                pool.alloc()
            if overlay:
                pool.mark_page_fp(5)
        run = [2, 5, 0]
        keys, values = rng.normal(size=(2, 7, HEADS, DIM))
        stored = pools[0].write_rows(run, 3, keys, values)
        addresses = [(2, 3)] + [(5, o) for o in range(4)] + [(0, 0), (0, 1)]
        for i, (page, offset) in enumerate(addresses):
            pools[1].write_rows(page, offset, keys[i : i + 1], values[i : i + 1])
        assert arena_snapshot(pools[0]) == arena_snapshot(pools[1])
        pages, offsets = np.asarray(addresses).T
        assert stored.tobytes() == pools[0].gather_keys(pages, offsets).tobytes()
        with pytest.raises(ValueError):
            pools[0].write_rows([2, 5], 3, keys, values)  # 7 rows need 3 pages

    @staticmethod
    def _group_setup(arena):
        """Four members on two pools: a fresh table (its claim allocates),
        an adopter of a shared partial page (its claim CoW-splits), and a
        partially filled private table plus a fresh one on a second pool."""
        rng = np.random.default_rng(7)
        pools = [
            PagedKVPool(4, HEADS, DIM, num_pages=16, **ARENAS[arena])
            for _ in range(2)
        ]
        donor = BlockTable(pools[0])
        donor.write(0, *rng.normal(size=(2, 6, HEADS, DIM)))
        adopter = BlockTable(pools[0])
        adopter.adopt(SharedKVPages(pools[0], donor.page_ids, 6))
        partial = BlockTable(pools[1])
        partial.write(0, *rng.normal(size=(2, 2, HEADS, DIM)))
        tables = [BlockTable(pools[0]), adopter, partial, BlockTable(pools[1])]
        return pools, [donor] + tables, tables, [0, 6, 2, 5]

    @pytest.mark.parametrize("arena", sorted(ARENAS))
    def test_write_group_matches_row_by_row(self, arena):
        keys, values = np.random.default_rng(8).normal(size=(2, 4, HEADS, DIM))
        pools_a, all_a, tables_a, slots = self._group_setup(arena)
        stored = write_group(tables_a, slots, keys, values)
        pools_b, all_b, tables_b, _ = self._group_setup(arena)
        singles = [
            table.write(slot, keys[i : i + 1], values[i : i + 1])
            for i, (table, slot) in enumerate(zip(tables_b, slots))
        ]
        assert pools_a[0].stats.cow_splits == 1  # the adopter split
        for pool_a, pool_b in zip(pools_a, pools_b):
            assert arena_snapshot(pool_a) == arena_snapshot(pool_b)
        for table_a, table_b in zip(all_a, all_b):
            assert table_a.page_ids == table_b.page_ids
        assert stored.tobytes() == np.concatenate(singles).tobytes()
        for row, (table, slot) in enumerate(zip(tables_a, slots)):
            gathered = table.gather_keys(np.asarray([slot]))[0]
            assert stored[row].tobytes() == gathered.tobytes()
        # The shared page kept the donor's row for the sharer.
        donor_rows = all_a[0].gather_keys(np.arange(6))
        np.testing.assert_array_equal(
            tables_a[1].gather_keys(np.arange(4)), donor_rows[:4]
        )

    def test_mixed_precision_demotion_mid_claim(self):
        """A span and a group whose claims demote a page before its rows
        are written store what row-by-row writes (which demote after)
        store: encoding is a pure per-row function."""
        mp = MixedPrecisionConfig(sink_pages=1, recent_pages=1)
        rng = np.random.default_rng(9)
        keys, values = rng.normal(size=(2, 14, HEADS, DIM))
        new_k, new_v = rng.normal(size=(2, 2, HEADS, DIM))

        def run(batched):
            pool = PagedKVPool(
                4, HEADS, DIM, num_pages=16, codec="int8", mixed_precision=mp
            )
            tables = [BlockTable(pool), BlockTable(pool)]
            for table in tables:
                if batched:
                    table.write(0, keys, values)
                else:
                    for slot in range(14):
                        table.write(slot, keys[slot : slot + 1], values[slot : slot + 1])
            # Slot 16 opens block 4, which demotes block 3 (slots 12..15).
            if batched:
                stored = write_group(tables, [16, 16], new_k, new_v)
            else:
                stored = np.concatenate([
                    table.write(16, new_k[i : i + 1], new_v[i : i + 1])
                    for i, table in enumerate(tables)
                ])
            return pool, tables, stored

        pool_a, tables_a, stored = run(batched=True)
        pool_b, tables_b, singles = run(batched=False)
        assert pool_a.stats.fp_demotions == 2 * 3 and pool_a.stats.fp_promotions
        assert [t.demotions for t in tables_a] == [3, 3]
        assert arena_snapshot(pool_a) == arena_snapshot(pool_b)
        assert stored.tobytes() == singles.tobytes()
        for row, table in enumerate(tables_a):
            assert stored[row].tobytes() == table.gather_keys([16])[0].tobytes()
            assert table.page_ids == tables_b[row].page_ids

    def test_put_group_assigns_slots_like_serial_puts(self):
        """A run of one store's rows — recycled slots, new slots and an
        overwrite — lands where serial puts put them."""
        rng = np.random.default_rng(10)
        rows = rng.normal(size=(2, 12, HEADS, DIM))
        positions = [6, 7, 2, 8]

        def build():
            pool = PagedKVPool(4, HEADS, DIM, num_pages=8, codec="int8")
            store = PagedKVStore(HEADS, DIM, pool=pool)
            store.bulk_append(range(6), rows[0][:6], rows[1][:6])
            store.drop(1)
            store.drop(3)
            return pool, store

        pool_a, store_a = build()
        put_group([store_a] * 4, positions, rows[0][6:10], rows[1][6:10])
        pool_b, store_b = build()
        for i, pos in enumerate(positions):
            store_b.put(pos, rows[0][6 + i], rows[1][6 + i])
        order = sorted(store_b.positions())
        assert sorted(store_a.positions()) == order
        np.testing.assert_array_equal(store_a.slots_of(order), store_b.slots_of(order))
        assert arena_snapshot(pool_a) == arena_snapshot(pool_b)


class TestSharedKVPages:
    def test_prefix_slices_page_run(self):
        pool = make_pool(page_size=2, num_pages=4)
        table = BlockTable(pool)
        rows = np.stack([row(i) for i in range(5)])
        table.write(0, rows, rows)
        shared = SharedKVPages(pool, table.page_ids, 5)
        assert shared.full_pages == 2
        sliced = shared.prefix(3)
        assert len(sliced.page_ids) == 2 and sliced.length == 3
        keys, _ = sliced.materialize()
        np.testing.assert_allclose(keys, rows[:3])

    def test_coverage_validated(self):
        pool = make_pool(page_size=2, num_pages=4)
        page = pool.alloc()
        with pytest.raises(ValueError):
            SharedKVPages(pool, (page,), 5)


class TestPagedKVStore:
    def test_put_drop_gather_in_requested_order(self):
        store = PagedKVStore(HEADS, DIM, page_size=2)
        for pos in (3, 1, 7):
            store.put(pos, row(pos), -row(pos))
        store.drop(1)
        store.put(9, row(9), -row(9))  # recycles slot of position 1
        keys, values = store.gather([9, 3, 7])
        np.testing.assert_allclose(keys[0], row(9))
        np.testing.assert_allclose(keys[1], row(3))
        np.testing.assert_allclose(values[2], -row(7))
        assert sorted(store.positions()) == [3, 7, 9]

    def test_bulk_append_matches_row_by_row(self):
        rng = np.random.default_rng(0)
        keys = rng.normal(size=(7, HEADS, DIM))
        values = rng.normal(size=(7, HEADS, DIM))
        bulk = PagedKVStore(HEADS, DIM, page_size=3)
        bulk.bulk_append(range(7), keys, values)
        single = PagedKVStore(HEADS, DIM, page_size=3)
        for i in range(7):
            single.put(i, keys[i], values[i])
        k1, v1 = bulk.gather(range(7))
        k2, v2 = single.gather(range(7))
        np.testing.assert_array_equal(k1, k2)
        np.testing.assert_array_equal(v1, v2)

    def test_adopt_prefix_then_append_splits_only_partial_page(self):
        """Split-on-evict/overwrite: appends after adoption CoW-split the
        partial tail page; the fully covered pages stay shared."""
        pool = make_pool(page_size=2, num_pages=8)
        donor = PagedKVStore(HEADS, DIM, pool=pool)
        rows = np.stack([row(i) for i in range(3)])
        donor.bulk_append(range(3), rows, rows)
        shared = SharedKVPages(pool, tuple(donor._table.page_ids), 3)

        adopter = PagedKVStore(HEADS, DIM, pool=pool)
        adopter.adopt_prefix(shared)
        adopter.put(3, row(33), row(33))  # lands in the partial tail page
        assert pool.stats.cow_splits == 1
        assert pool.refcount(shared.page_ids[0]) == 2  # full page still shared
        np.testing.assert_allclose(donor.gather([2])[0][0], row(2))
        np.testing.assert_allclose(adopter.gather([2])[0][0], row(2))
        np.testing.assert_allclose(adopter.gather([3])[0][0], row(33))

    def test_append_page_demand(self):
        store = PagedKVStore(HEADS, DIM, page_size=2)
        assert store.append_page_demand() == 1  # first page not yet allocated
        store.put(0, row(0), row(0))
        assert store.append_page_demand() == 0  # page has a free row
        store.put(1, row(1), row(1))
        assert store.append_page_demand() == 1  # next page needed

    def test_pool_exhaustion_propagates(self):
        pool = make_pool(num_pages=1, page_size=1)
        store = PagedKVStore(HEADS, DIM, pool=pool)
        store.put(0, row(0), row(0))
        with pytest.raises(PoolExhaustedError):
            store.put(1, row(1), row(1))


class TestSlotKVCacheOnSharedPool:
    def test_two_caches_share_one_arena(self):
        pool = make_pool(num_pages=2, page_size=4)
        a = SlotKVCache(4, HEADS, DIM, pool=pool)
        b = SlotKVCache(4, HEADS, DIM, pool=pool)
        a.append(row(1), row(1), 0)
        b.append(row(2), row(2), 0)
        assert pool.pages_in_use == 2
        a.release()
        assert pool.pages_in_use == 1
        np.testing.assert_allclose(b.keys()[0], row(2))

    def test_third_cache_hits_exhaustion(self):
        pool = make_pool(num_pages=2, page_size=4)
        for _ in range(2):
            SlotKVCache(4, HEADS, DIM, pool=pool).append(row(1), row(1), 0)
        c = SlotKVCache(4, HEADS, DIM, pool=pool)
        with pytest.raises(PoolExhaustedError):
            c.append(row(3), row(3), 0)

    def test_gather_counts_materialization(self):
        """Satellite fix: explicit gathers are block-table gathers now and
        must count toward the perf-smoke materialisation budget."""
        cache = SlotKVCache(4, HEADS, DIM)
        cache.append(row(1), row(1), 0)
        cache.append(row(2), row(2), 1)
        before = cache.materialization_count
        cache.gather([0, 1])
        assert cache.materialization_count == before + 1

    def test_write_dtype_coercion_is_pool_independent(self):
        """A float32 cache over a float64 arena must store float32-rounded
        values — quantisation identical to the standalone dense layout."""
        pool = PagedKVPool(4, HEADS, DIM, num_pages=2, dtype=np.float64)
        shared_cache = SlotKVCache(4, HEADS, DIM, pool=pool)
        private_cache = SlotKVCache(4, HEADS, DIM)
        value = np.full((HEADS, DIM), 1.0 + 1e-9)  # not float32-representable
        shared_cache.append(value, value, 0)
        private_cache.append(value, value, 0)
        np.testing.assert_array_equal(
            np.asarray(shared_cache.keys(), dtype=np.float64),
            np.asarray(private_cache.keys(), dtype=np.float64),
        )

    def test_resident_bytes_tracks_pages_not_capacity(self):
        pool = make_pool(num_pages=4, page_size=2)
        cache = SlotKVCache(8, HEADS, DIM, pool=pool)
        assert cache.resident_bytes() == 0
        cache.append(row(1), row(1), 0)
        assert cache.resident_bytes() == pool.page_bytes
        assert cache.memory_bytes() == 2 * 8 * HEADS * DIM * 4  # logical float32


class TestKVPoolGroup:
    def test_from_byte_budget_splits_evenly(self):
        group = KVPoolGroup.from_byte_budget(
            num_layers=2, page_size=4, num_heads=HEADS, head_dim=DIM,
            total_bytes=8 * 2 * 4 * HEADS * DIM * 8,
        )
        assert group.num_layers == 2
        assert all(pool.total_pages == 4 for pool in group.pools)

    def test_stats_aggregate(self):
        group = KVPoolGroup(2, 4, HEADS, DIM, num_pages=4)
        group.layer(0).alloc()
        stats = group.stats()
        assert stats["pages_total"] == 8
        assert stats["pages_in_use"] == 1
        assert stats["page_allocs"] == 1


class TestPoisonPadding:
    @pytest.fixture
    def poisoned(self):
        old = set_poison_padding(True)
        yield
        set_poison_padding(old)

    @pytest.fixture
    def unpoisoned(self):
        # The padding-poison CI lane runs this file with poisoning on.
        old = set_poison_padding(False)
        yield
        set_poison_padding(old)

    def _two_member_gather(self):
        pool = make_pool(num_pages=8, page_size=3)
        long_store = PagedKVStore(HEADS, DIM, pool=pool)
        short_store = PagedKVStore(HEADS, DIM, pool=pool)
        for pos in range(5):
            long_store.put(pos, row(pos), -row(pos))
        for pos in range(2):
            short_store.put(pos, row(10 + pos), -row(10 + pos))
        tables = [long_store.block_table, short_store.block_table]
        slot_lists = [
            long_store.slots_of(range(5)),
            short_store.slots_of(range(2)),
        ]
        return tables, slot_lists

    def test_padding_tail_is_nan_only_when_enabled(self, poisoned):
        tables, slot_lists = self._two_member_gather()
        keys, values, lengths = gather_padded(tables, slot_lists)
        assert list(lengths) == [5, 2]
        # Valid rows stay exact under poisoning...
        for pos in range(5):
            np.testing.assert_array_equal(keys[0, pos], row(pos))
        np.testing.assert_array_equal(values[1, 1], -row(11))
        # ...while every padding row fails loudly if read unmasked.
        assert np.isnan(keys[1, 2:]).all()
        assert np.isnan(values[1, 2:]).all()
        assert not np.isnan(keys[0]).any()  # t_max row: no padding at all

    def test_padding_aliases_real_rows_when_disabled(self, unpoisoned):
        assert not poison_padding_enabled()
        tables, slot_lists = self._two_member_gather()
        keys, values, _ = gather_padded(tables, slot_lists)
        # Padding aliases the member's own first page: plausible-looking
        # data, never NaN — exactly the silent-read hazard poison exposes.
        assert not np.isnan(keys).any() and not np.isnan(values).any()
        np.testing.assert_array_equal(keys[1, 2], keys[1, 0])

    def test_toggle_returns_previous_state(self):
        old = poison_padding_enabled()
        try:
            assert set_poison_padding(True) == old
            assert poison_padding_enabled()
            assert set_poison_padding(False) is True
            assert not poison_padding_enabled()
        finally:
            set_poison_padding(old)


class TestRandomizedChurn:
    """Randomized interleavings of every store mutation against a dict
    reference model: whatever the put/overwrite/drop/bulk_append/
    rollback_append history, ``gather`` must return exactly the rows the
    reference holds, in exactly the order asked."""

    def test_store_matches_reference_under_random_churn(self):
        rng = np.random.default_rng(2026)
        pool = make_pool(num_pages=512, page_size=3)
        store = PagedKVStore(HEADS, DIM, pool=pool)
        reference = {}
        append_log = []  # insertion order, for tail rollbacks
        next_pos = 0
        fill = 0
        pages_freed_by_rollback = 0

        def check():
            assert sorted(store.positions()) == sorted(reference)
            assert len(store) == len(reference)
            if reference:
                order = list(reference)
                rng.shuffle(order)
                keys, values = store.gather(order)
                for i, pos in enumerate(order):
                    np.testing.assert_array_equal(keys[i], reference[pos][0])
                    np.testing.assert_array_equal(values[i], reference[pos][1])

        for step in range(400):
            op = rng.choice(
                ["put_new", "overwrite", "drop", "bulk", "rollback"],
                p=[0.3, 0.15, 0.2, 0.15, 0.2],
            )
            if op == "put_new":
                pos, next_pos = next_pos, next_pos + 1
                fill += 1
                k, v = row(fill), -row(fill)
                store.put(pos, k, v)
                reference[pos] = (k, v)
                append_log.append(pos)
            elif op == "overwrite" and reference:
                pos = int(rng.choice(list(reference)))
                fill += 1
                k, v = row(fill), -row(fill)
                store.put(pos, k, v)
                reference[pos] = (k, v)
            elif op == "drop" and reference:
                pos = int(rng.choice(list(reference)))
                store.drop(pos)
                del reference[pos]
                append_log.remove(pos)
            elif op == "bulk":
                n = int(rng.integers(1, 6))
                positions = list(range(next_pos, next_pos + n))
                next_pos += n
                fill += 1
                keys = np.stack([row(fill + i / 8) for i in range(n)])
                values = -keys
                try:
                    store.bulk_append(positions, keys, values)
                except RuntimeError:
                    # Recycled free slots forbid the span write; the
                    # row-by-row path must land in the same logical state.
                    for i, pos in enumerate(positions):
                        store.put(pos, keys[i], values[i])
                for i, pos in enumerate(positions):
                    reference[pos] = (keys[i], values[i])
                    append_log.append(pos)
            elif op == "rollback" and append_log:
                n = min(len(append_log), int(rng.integers(1, 5)))
                positions = append_log[-n:]
                freed = store.rollback_append(positions)
                assert freed >= 0
                pages_freed_by_rollback += freed
                del append_log[-n:]
                for pos in positions:
                    del reference[pos]
            if step % 25 == 0:
                check()
        check()
        # The churn must have exercised the tail-truncation fast path
        # (the speculative-rollback primitive), not just drop fallbacks.
        assert pages_freed_by_rollback > 0
        store.block_table.release()
        assert pool.pages_in_use == 0

    def test_speculative_cow_cycles_over_shared_prefix(self):
        """Randomized speculative cycles above a shared prefix: adopters
        append draft rows (CoW-splitting the shared tail page), roll some
        back and commit others.  The donor's rows must never change, every
        committed row must read back exactly, and releasing everything
        must return the arena to the prefix pages alone — the refcount /
        free-list invariants the engine's rollback path leans on."""
        rng = np.random.default_rng(99)
        pool = make_pool(num_pages=256, page_size=3)
        donor = PagedKVStore(HEADS, DIM, pool=pool)
        prefix_len = 7  # ends mid-page: the tail page is CoW-split on write
        donor_rows = [(row(100 + p), -row(100 + p)) for p in range(prefix_len)]
        donor.bulk_append(
            range(prefix_len),
            np.stack([k for k, _ in donor_rows]),
            np.stack([v for _, v in donor_rows]),
        )
        shared = donor.share_prefix(prefix_len)
        assert shared is not None

        adopters = []
        for _ in range(4):
            store = PagedKVStore(HEADS, DIM, pool=pool)
            store.adopt_prefix(shared)
            shared.incref()
            adopters.append((store, {}))  # committed rows beyond the prefix

        fill = 0
        splits_before = pool.stats.cow_splits
        for cycle in range(60):
            store, committed = adopters[cycle % len(adopters)]
            base = prefix_len + len(committed)
            k_draft = int(rng.integers(1, 5))
            drafts = list(range(base, base + k_draft))
            rows = []
            for pos in drafts:
                fill += 1
                k, v = row(fill), -row(fill)
                store.put(pos, k, v)
                rows.append((pos, k, v))
            kept = int(rng.integers(0, k_draft + 1))  # accepted prefix
            freed = store.rollback_append(drafts[kept:])
            assert freed >= 0
            for pos, k, v in rows[:kept]:
                committed[pos] = (k, v)
            # Every sibling still reads the exact shared prefix...
            for other, other_committed in adopters:
                keys, values = other.gather(range(prefix_len))
                for p in range(prefix_len):
                    np.testing.assert_array_equal(keys[p], donor_rows[p][0])
                    np.testing.assert_array_equal(values[p], donor_rows[p][1])
                # ...plus exactly its own committed rows.
                assert sorted(other.positions()) == (
                    list(range(prefix_len + len(other_committed)))
                )
                if other_committed:
                    order = sorted(other_committed)
                    keys, values = other.gather(order)
                    for i, pos in enumerate(order):
                        np.testing.assert_array_equal(
                            keys[i], other_committed[pos][0]
                        )
                        np.testing.assert_array_equal(
                            values[i], other_committed[pos][1]
                        )
        assert pool.stats.cow_splits > splits_before  # drafts split the tail

        # Releasing the adopters must free every speculative/CoW page and
        # leave exactly the donor's pages plus the cached prefix run.
        for store, _ in adopters:
            store.block_table.release()
            shared.decref()
        donor_pages = len(donor.block_table.page_ids)
        assert pool.pages_in_use == donor_pages
        donor.block_table.release()
        shared.decref()
        assert pool.pages_in_use == 0
