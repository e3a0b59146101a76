"""Fixed-size, slot-based KV cache as a view over paged pool storage.

The hardware motivation (paper Sec. III-A.2 and Fig. 3b) is that the UniCAIM
array has a fixed number of rows: ``H`` rows hold the heavy tokens retained
after prefill and ``M`` rows are reserved for tokens generated during
decoding.  When a token is statically evicted, the newly generated KV pair
is written *into the freed row* ("directly fill with newly-generated KV in
the statically evicted position") instead of shifting memory around.

:class:`SlotKVCache` models exactly that: a fixed array of slots addressed
by physical row index, with a mapping back to logical token positions so
that causal masking and accuracy evaluation remain possible.

Since the paged-KV refactor the slot *data* no longer lives in a private
dense array: slots map onto pages of a :class:`~repro.core.kv_pool.PagedKVPool`
through a :class:`~repro.core.kv_pool.BlockTable`.  Standalone caches own a
private single-page pool (behaviourally identical to the old dense array);
the serving engine instead binds every sequence's caches to one shared
per-layer arena, so pages are allocated on demand, shared prefix pages are
stored once, and a write into a shared page copy-on-write splits it.  The
public API is unchanged, so every ``KVCachePolicy`` backend runs unmodified.

Keys are also held in a :class:`KeyMirror`: one head-major float64
``[h, capacity, d]`` array indexed by slot, the software twin of the
array's FeFET rows.  Like the array, the cache keeps every key in its row
and a write patches one row (``write_row``), an eviction frees one
(``erase_row``), and the CAM-style similarity search scores a query
against the occupied rows in place (``search``) — no per-step gather of
every cached key from the pool pages.  The mirror always holds exactly
what a block-table gather of the occupied slots returns (bitwise, as
float64): a write patches the row from the K rows the pool write itself
returns (:meth:`~repro.core.kv_pool.PagedKVPool.write_rows` hands back
each row as stored — its codec round-trip on quantised pages — with no
arena read), and a mixed-precision demotion, which re-quantises stored
rows, rebuilds it from the pool.  (A promotion needs no rebuild: it only
pins a freshly allocated page, whose rows decode into the overlay
unchanged.)

Writes are batched per decode span: :func:`write_slots` lands one new row
in each of ``S`` caches with one claim pass and one pool write
(:func:`~repro.core.kv_pool.write_group`) — the paper's single write
cycle into the statically evicted rows — and a single-cache ``append`` /
``overwrite`` is its one-row case.

The cache is a decode-loop hot path, so reads are zero-copy where possible:
``keys()`` (served from the mirror) / ``values()`` / ``token_positions()``
/ ``occupied_slots()`` return cached read-only arrays that are refreshed
lazily after a mutation instead of being rebuilt on every call, and the
position -> slot lookup is an O(1) dict maintained on write/evict.  The
number of arrays built — view refreshes, explicit block-table gathers and
mirror rebuilds — is exposed via :attr:`SlotKVCache.materialization_count`
so perf regressions are testable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .kv_codec import CodecSpec, MixedPrecisionConfig
from .kv_pool import BlockTable, PagedKVPool, poison_padding_enabled, write_group


@dataclass
class CacheEntry:
    """Metadata for one occupied cache slot."""

    slot: int
    token_position: int
    is_heavy: bool


class KeyMirror:
    """Head-major float64 key rows ``[h, capacity, d]``, indexed by slot.

    Rows of free slots hold stale data, or NaN when padding poisoning is
    on (:func:`~repro.core.kv_pool.set_poison_padding`), so a read of a
    stale row poisons the output instead of passing for a key.
    """

    def __init__(self, capacity: int, num_heads: int, head_dim: int) -> None:
        shape = (num_heads, capacity, head_dim)
        self.rows = (
            np.full(shape, np.nan) if poison_padding_enabled() else np.empty(shape)
        )

    def write_row(self, slot: int, key: np.ndarray) -> None:
        """Store one key ``[h, d]`` in ``slot``'s row."""
        self.rows[:, slot] = key

    def write_rows(self, start: int, keys: np.ndarray) -> None:
        """Store ``n`` keys ``[n, h, d]`` in rows ``start .. start + n - 1``."""
        self.rows[:, start : start + keys.shape[0]] = keys.transpose(1, 0, 2)

    def erase_row(self, slot: int) -> None:
        """Free ``slot``'s row (poisoned in debug mode, else left stale)."""
        if poison_padding_enabled():
            self.rows[:, slot] = np.nan

    def read(self, slots: np.ndarray) -> np.ndarray:
        """Rows of the ascending ``slots`` (an ``occupied_slots()`` array),
        ``[h, n, d]``.  The contiguous run ``0 .. n-1`` that a
        fill-then-replace cache always occupies is a slice view, not a
        copy."""
        n = slots.size
        if n and slots[-1] != n - 1:
            return self.rows[:, slots]
        return self.rows[:, :n]

    def search(
        self,
        query: np.ndarray,
        slots: np.ndarray,
        out: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Unscaled dot products of ``query [h, d]`` with the keys of
        ``slots``, ``[h, n]``, written into ``out`` when given."""
        return np.einsum("htd,hd->ht", self.read(slots), query, out=out)


class SlotKVCache:
    """A fixed-capacity KV cache with in-place slot reuse.

    Parameters
    ----------
    capacity:
        Total number of slots (``H + M`` in the paper).
    num_heads:
        Number of attention heads sharing this cache.  Keys and values are
        stored per head.
    head_dim:
        Dimensionality of each key / value vector.
    dtype:
        *Write* dtype: keys/values are coerced through it before being
        stored, so quantisation behaviour (float32 by default) is the same
        whether the backing pool stores float32 or float64.
    pool:
        Optional shared :class:`~repro.core.kv_pool.PagedKVPool` to
        allocate slot pages from.  ``None`` (standalone use) creates a
        private pool whose page size equals ``capacity`` — one lazily
        allocated page, matching the old dense layout.
    codec, mixed_precision:
        Storage codec of the private pool (ignored when ``pool`` is
        given — a shared pool already owns its codec).  ``"int8"`` /
        ``"int4"`` store slot rows quantised; reads dequantise inside the
        block-table gathers, so policy selector math sees plain floats.
    """

    def __init__(
        self,
        capacity: int,
        num_heads: int,
        head_dim: int,
        dtype: np.dtype = np.float32,
        pool: Optional[PagedKVPool] = None,
        codec: CodecSpec = None,
        mixed_precision: Optional[MixedPrecisionConfig] = None,
    ) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        if num_heads < 1:
            raise ValueError("num_heads must be >= 1")
        if head_dim < 1:
            raise ValueError("head_dim must be >= 1")
        self.capacity = int(capacity)
        self.num_heads = int(num_heads)
        self.head_dim = int(head_dim)
        self.dtype = np.dtype(dtype)

        if pool is None:
            pool = PagedKVPool(
                page_size=self.capacity,
                num_heads=self.num_heads,
                head_dim=self.head_dim,
                dtype=self.dtype,
                codec=codec,
                mixed_precision=mixed_precision,
            )
        elif pool.num_heads != self.num_heads or pool.head_dim != self.head_dim:
            raise ValueError(
                f"pool geometry ({pool.num_heads}, {pool.head_dim}) does not "
                f"match cache ({self.num_heads}, {self.head_dim})"
            )
        self.pool = pool
        self._table = BlockTable(pool)

        self._occupied = np.zeros(capacity, dtype=bool)
        self._token_positions = np.full(capacity, -1, dtype=np.int64)
        self._is_heavy = np.zeros(capacity, dtype=bool)
        # Free slots as an insertion-ordered dict used as a stack: popitem()
        # allocates in ascending slot order (0 first), evicted slots are
        # re-appended LIFO, and arbitrary removal (overwrite of a free slot)
        # is O(1) instead of the old list.remove's O(capacity).
        self._free_slots: Dict[int, None] = dict.fromkeys(
            range(capacity - 1, -1, -1)
        )
        self._writes = 0
        self._evictions = 0
        # O(1) logical-position lookup, maintained on every write/evict.
        self._pos_to_slot: Dict[int, int] = {}
        # Lazily refreshed read views (see the module docstring).
        self._cached_slots: Optional[np.ndarray] = None
        self._cached_keys: Optional[np.ndarray] = None
        self._cached_values: Optional[np.ndarray] = None
        self._cached_positions: Optional[np.ndarray] = None
        self._materializations = 0
        # Slot-resident keys (see the module docstring); allocated on the
        # first write, dropped by clear().
        self._mirror: Optional[KeyMirror] = None

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return int(self._occupied.sum())

    @property
    def num_free_slots(self) -> int:
        return len(self._free_slots)

    @property
    def is_full(self) -> bool:
        return not self._free_slots

    @property
    def write_count(self) -> int:
        """Total number of slot writes performed (including overwrites)."""
        return self._writes

    @property
    def eviction_count(self) -> int:
        return self._evictions

    @property
    def materialization_count(self) -> int:
        """Number of cache arrays built since construction.

        Each lazy view refresh (occupied slots, keys, values or positions)
        counts once, as does every explicit :meth:`gather` /
        :meth:`gather_values` — a block-table gather over pool pages — and
        every key-mirror rebuild (one full K gather).  Keys are served
        from the mirror, so :meth:`search` and the ``keys()`` refresh read
        no pool page.  Repeated reads between mutations are free.  Perf
        smoke tests assert this stays O(decode steps) and that decode
        steps do no full K gather.
        """
        return self._materializations

    def occupied_slots(self) -> np.ndarray:
        """Physical indices of occupied slots, in ascending slot order.

        The returned array is a cached read-only view; it is refreshed only
        after a mutation, so callers must not write to it.
        """
        if self._cached_slots is None:
            slots = np.nonzero(self._occupied)[0]
            slots.setflags(write=False)
            self._cached_slots = slots
            self._materializations += 1
        return self._cached_slots

    def token_positions(self) -> np.ndarray:
        """Logical token positions of the occupied slots (ascending slot order).

        Cached read-only view, refreshed lazily after mutations.
        """
        if self._cached_positions is None:
            positions = self._token_positions[self.occupied_slots()]
            positions.setflags(write=False)
            self._cached_positions = positions
            self._materializations += 1
        return self._cached_positions

    def entries(self) -> List[CacheEntry]:
        """All occupied entries as :class:`CacheEntry` records."""
        return [
            CacheEntry(
                slot=int(slot),
                token_position=int(self._token_positions[slot]),
                is_heavy=bool(self._is_heavy[slot]),
            )
            for slot in self.occupied_slots()
        ]

    def slot_of_position(self, token_position: int) -> Optional[int]:
        """Physical slot currently holding ``token_position`` (or ``None``).

        O(1): served from the position -> slot map maintained on writes and
        evictions (the seed implementation scanned every slot).
        """
        return self._pos_to_slot.get(int(token_position))

    def contains_position(self, token_position: int) -> bool:
        return self.slot_of_position(token_position) is not None

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def append(
        self,
        key: np.ndarray,
        value: np.ndarray,
        token_position: int,
        is_heavy: bool = False,
    ) -> int:
        """Write a KV pair into a free slot and return the slot index.

        Raises ``RuntimeError`` if the cache is full (see
        :meth:`take_free_slot`).
        """
        slot = self.take_free_slot()
        self._write_slot(slot, key, value, token_position, is_heavy)
        return slot

    def take_free_slot(self) -> int:
        """Take the next free slot (ascending in a fresh cache, LIFO after
        evictions) off the free list; the caller writes it next
        (:func:`write_slots`).

        Raises
        ------
        RuntimeError
            If the cache is full.  Callers are expected to evict first
            (this mirrors the hardware, which must free a row before the
            new token's write cycle).
        """
        if not self._free_slots:
            raise RuntimeError(
                "KV cache is full; evict a slot before appending"
            )
        return self._free_slots.popitem()[0]

    def append_many(
        self,
        keys: np.ndarray,
        values: np.ndarray,
        token_positions: Sequence[int],
        is_heavy: bool = False,
    ) -> np.ndarray:
        """Bulk-load ``n`` KV rows into an empty cache; returns their slots.

        Equivalent to ``n`` :meth:`append` calls right after :meth:`clear`
        — those hand out slots ``0, 1, ..., n-1`` in order — but the rows
        go to the pool as one span write.  Rows are coerced through the cache's
        write dtype exactly as :meth:`append` coerces them.
        """
        if len(self._free_slots) != self.capacity:
            raise RuntimeError("append_many needs an empty cache")
        positions = np.asarray(token_positions, dtype=np.int64).reshape(-1)
        n = int(positions.size)
        if n > self.capacity:
            raise RuntimeError("KV cache is full; evict a slot before appending")
        expected = (n, self.num_heads, self.head_dim)
        keys = np.asarray(keys, dtype=self.dtype)
        values = np.asarray(values, dtype=self.dtype)
        if keys.shape != expected or values.shape != expected:
            raise ValueError(f"keys and values must have shape {expected}")
        if n and positions.min() < 0:
            raise ValueError("token_position must be >= 0")
        demotions = self._table.demotions
        stored = self._table.write(0, keys, values)
        self._occupied[:n] = True
        self._token_positions[:n] = positions
        self._is_heavy[:n] = bool(is_heavy)
        self._pos_to_slot = {int(pos): slot for slot, pos in enumerate(positions)}
        self._free_slots = dict.fromkeys(range(self.capacity - 1, n - 1, -1))
        self._writes += n
        self._invalidate_views()
        if self._table.demotions != demotions:
            self._rebuild_mirror()
        elif n:
            self.key_mirror.write_rows(0, stored)
        return np.arange(n, dtype=np.int64)

    def overwrite(
        self,
        slot: int,
        key: np.ndarray,
        value: np.ndarray,
        token_position: int,
        is_heavy: bool = False,
    ) -> None:
        """Overwrite a slot in place (single write cycle, no data movement)."""
        self._check_slot(slot)
        self._write_slot(slot, key, value, token_position, is_heavy)

    def evict(self, slot: int) -> CacheEntry:
        """Mark a slot as free and return the metadata of the evicted entry."""
        self._check_slot(slot)
        if not self._occupied[slot]:
            raise ValueError(f"slot {slot} is not occupied")
        entry = CacheEntry(
            slot=int(slot),
            token_position=int(self._token_positions[slot]),
            is_heavy=bool(self._is_heavy[slot]),
        )
        self._occupied[slot] = False
        self._pos_to_slot.pop(entry.token_position, None)
        self._token_positions[slot] = -1
        self._is_heavy[slot] = False
        self._free_slots[slot] = None
        self._evictions += 1
        if self._mirror is not None:
            self._mirror.erase_row(slot)
        self._invalidate_views()
        return entry

    def evict_position(self, token_position: int) -> CacheEntry:
        slot = self.slot_of_position(token_position)
        if slot is None:
            raise KeyError(f"token position {token_position} is not cached")
        return self.evict(slot)

    def replace(
        self,
        evict_slot: int,
        key: np.ndarray,
        value: np.ndarray,
        token_position: int,
        is_heavy: bool = False,
    ) -> CacheEntry:
        """Evict ``evict_slot`` and immediately write the new KV pair there.

        This is the paper's "directly fill with newly-generated KV in the
        statically evicted position" operation: a single write cycle with no
        memory swapping.  If the slot's page is shared with another block
        table (an adopted prefix page), the write copy-on-write splits it
        first, so sharers never observe the eviction.
        """
        evicted = self.evict(evict_slot)
        self.overwrite(evict_slot, key, value, token_position, is_heavy)
        return evicted

    def clear(self) -> None:
        """Reset the cache to empty, releasing its pool pages."""
        self._table.release()
        self._occupied.fill(False)
        self._token_positions.fill(-1)
        self._is_heavy.fill(False)
        self._free_slots = dict.fromkeys(range(self.capacity - 1, -1, -1))
        self._pos_to_slot = {}
        self._mirror = None
        self._invalidate_views()

    def release(self) -> None:
        """Return every held page to the pool (idempotent alias of clear).

        The serving engine calls this when a sequence retires so the shared
        arena gets its pages back; a released cache can be reused.
        """
        self.clear()

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    def keys(self, head: Optional[int] = None) -> np.ndarray:
        """Keys of occupied slots, shape ``[n, heads, d]`` or ``[n, d]``.

        Float64, copied out of the key mirror in occupied-slot order (no
        pool read).  Cached read-only view, refreshed lazily after
        mutations; per-head selection slices the cached array without
        copying.
        """
        if self._cached_keys is None:
            keys = np.ascontiguousarray(
                self.key_mirror.read(self.occupied_slots()).transpose(1, 0, 2)
            )
            keys.setflags(write=False)
            self._cached_keys = keys
            self._materializations += 1
        if head is None:
            return self._cached_keys
        return self._cached_keys[:, head, :]

    def values(self, head: Optional[int] = None) -> np.ndarray:
        """Values of occupied slots; cached read-only view like :meth:`keys`."""
        if self._cached_values is None:
            values = self._table.gather_values(self.occupied_slots())
            values.setflags(write=False)
            self._cached_values = values
            self._materializations += 1
        if head is None:
            return self._cached_values
        return self._cached_values[:, head, :]

    def gather(
        self, slots: Sequence[int]
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Gather (keys, values, token_positions) for an explicit slot list.

        Counts one materialisation: under paging this is a fresh
        block-table gather over pool pages, so the perf-smoke budget keeps
        guarding the decode hot path.
        """
        slots_arr = self._occupied_slot_array(slots)
        keys, values = self._table.gather(slots_arr)
        self._materializations += 1
        return keys, values, self._token_positions[slots_arr]

    def gather_values(self, slots: Sequence[int]) -> np.ndarray:
        """Values ``[n, h, d]`` of an explicit slot list (pool dtype).

        The V read of select-then-attend: only the selected rows leave
        the pool.  Counts one materialisation, like :meth:`gather`.
        """
        values = self._table.gather_values(self._occupied_slot_array(slots))
        self._materializations += 1
        return values

    def search(
        self, query: np.ndarray, out: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Unscaled per-head dot products of ``query [h, d]`` with every
        occupied key, ``[h, n]`` in occupied-slot order (see
        :meth:`KeyMirror.search`)."""
        return self.key_mirror.search(query, self.occupied_slots(), out=out)

    @property
    def key_mirror(self) -> KeyMirror:
        """The slot-resident key rows (read-only by convention), allocated
        on first use."""
        if self._mirror is None:
            self._mirror = KeyMirror(self.capacity, self.num_heads, self.head_dim)
        return self._mirror

    def key_at(self, slot: int, head: Optional[int] = None) -> np.ndarray:
        self._check_slot(slot)
        row = self._row(self._table.gather_keys, slot)
        if head is None:
            return row
        return row[head]

    def value_at(self, slot: int, head: Optional[int] = None) -> np.ndarray:
        self._check_slot(slot)
        row = self._row(self._table.gather_values, slot)
        if head is None:
            return row
        return row[head]

    def position_to_slot_map(self) -> Dict[int, int]:
        return dict(self._pos_to_slot)

    def memory_bytes(self) -> int:
        """Bytes of key/value storage the full slot grid would occupy.

        This is the cache's *logical* footprint (``capacity`` rows in the
        cache's write dtype) — the dense baseline the paged pool is
        measured against.  See :meth:`resident_bytes` for what is actually
        allocated.
        """
        return int(
            2 * self.capacity * self.num_heads * self.head_dim
            * self.dtype.itemsize
        )

    def resident_bytes(self) -> int:
        """Bytes of pool pages this cache currently holds references to.

        Codec-true: quantised arenas report quantised bytes (including
        scale metadata and any full-precision overlay the mixed-precision
        policy is pinning), not the compute-dtype size the rows dequantise
        to.
        """
        return self._table.resident_bytes()

    def pages_held(self) -> int:
        return self._table.pages_held()

    @property
    def block_table(self) -> BlockTable:
        """The slot -> pool-page mapping (for batched group gathers).

        Combined with :meth:`occupied_slots`, this lets
        :func:`~repro.core.kv_pool.gather_padded` read many caches' rows
        with one pool gather per shared arena instead of one per cache.
        """
        return self._table

    def shared_page_count(self) -> int:
        """Held pages currently shared with another table or cache entry."""
        return self._table.shared_page_count()

    def decode_page_demand(self) -> int:
        """Pages the next decode-step write could pull from the pool.

        Conservative: 1 when the next append target's block is unallocated,
        or when any held page is shared (an in-place replace would then
        copy-on-write split it); 0 otherwise.  The serving engine sums this
        over a batch before stepping so a decode wave never hits pool
        exhaustion mid-GEMM.
        """
        if self._free_slots:
            next_slot = next(reversed(self._free_slots))
            if self._table.would_allocate(next_slot):
                return 1
        return 1 if self._table.any_shared() else 0

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _row(self, gather, slot: int) -> np.ndarray:
        try:
            return gather(np.asarray([slot], dtype=np.int64))[0]
        except (ValueError, IndexError):
            # Never-written slot: the dense layout returned zeros.
            return np.zeros((self.num_heads, self.head_dim), dtype=self.pool.dtype)

    def _occupied_slot_array(self, slots: Sequence[int]) -> np.ndarray:
        slots_arr = np.asarray(slots, dtype=np.int64).reshape(-1)
        if slots_arr.size:
            out_of_range = (slots_arr < 0) | (slots_arr >= self.capacity)
            if out_of_range.any():
                bad = int(slots_arr[out_of_range][0])
                raise IndexError(
                    f"slot {bad} out of range for capacity {self.capacity}"
                )
            unoccupied = ~self._occupied[slots_arr]
            if unoccupied.any():
                raise ValueError(
                    f"slot {int(slots_arr[unoccupied][0])} is not occupied"
                )
        return slots_arr

    def _rebuild_mirror(self) -> None:
        """Reload the occupied rows from the pool (one full K gather)."""
        slots = self.occupied_slots()
        if slots.size:
            self.key_mirror.rows[:, slots] = self._table.gather_keys(
                slots
            ).transpose(1, 0, 2)
        self._materializations += 1

    def _check_slot(self, slot: int) -> None:
        if not 0 <= slot < self.capacity:
            raise IndexError(
                f"slot {slot} out of range for capacity {self.capacity}"
            )

    def _coerce(self, array: np.ndarray, name: str) -> np.ndarray:
        arr = np.asarray(array, dtype=self.dtype)
        expected = (self.num_heads, self.head_dim)
        if arr.shape == (self.head_dim,) and self.num_heads == 1:
            arr = arr.reshape(1, self.head_dim)
        if arr.shape != expected:
            raise ValueError(
                f"{name} must have shape {expected}, got {arr.shape}"
            )
        return arr

    def _write_slot(
        self,
        slot: int,
        key: np.ndarray,
        value: np.ndarray,
        token_position: int,
        is_heavy: bool,
    ) -> None:
        write_slots(
            [self],
            [slot],
            self._coerce(key, "key")[None],
            self._coerce(value, "value")[None],
            [token_position],
            is_heavy,
        )

    def _commit_slot(self, slot: int, token_position: int, is_heavy: bool) -> None:
        """Slot metadata of a row that has just been written to ``slot``."""
        if self._occupied[slot]:
            self._pos_to_slot.pop(int(self._token_positions[slot]), None)
        else:
            self._free_slots.pop(slot, None)
        self._occupied[slot] = True
        self._token_positions[slot] = token_position
        self._is_heavy[slot] = is_heavy
        self._pos_to_slot[token_position] = slot
        self._writes += 1
        self._invalidate_views()

    def _invalidate_views(self) -> None:
        self._cached_slots = None
        self._cached_keys = None
        self._cached_values = None
        self._cached_positions = None


def write_slots(
    caches: Sequence[SlotKVCache],
    slots: Sequence[int],
    keys: np.ndarray,
    values: np.ndarray,
    token_positions: Sequence[int],
    is_heavy: bool = False,
) -> None:
    """Write row ``s`` of ``keys``/``values`` ``[S, h, d]`` into slot
    ``slots[s]`` of ``caches[s]``, as ``token_positions[s]``.

    One write for the whole span: the rows are coerced through the
    caches' common write dtype and land through one
    :func:`~repro.core.kv_pool.write_group` (every slot claimed, then one
    pool write per pool).  Slot metadata is then committed per member,
    and each key-mirror row is patched from the K rows the write returns
    — or, when the member's claim demoted a page (which re-quantises
    rows the mirror already holds), the mirror is rebuilt from the pool.
    Slots must be valid; a free one leaves the free list as it is
    written.
    """
    if min(token_positions) < 0:
        raise ValueError("token_position must be >= 0")
    dtype = caches[0].dtype
    for cache in caches:
        if cache.dtype != dtype:
            raise ValueError("caches written together must share a write dtype")
    keys = np.asarray(keys, dtype=dtype)
    values = np.asarray(values, dtype=dtype)
    expected = (len(caches), caches[0].num_heads, caches[0].head_dim)
    if keys.shape != expected or values.shape != expected:
        raise ValueError(f"keys and values must have shape {expected}")
    tables = [cache._table for cache in caches]
    demotions = [table.demotions for table in tables]
    stored = write_group(tables, slots, keys, values)
    for cache, table, demoted, slot, position, row in zip(
        caches, tables, demotions, slots, token_positions, stored
    ):
        cache._commit_slot(int(slot), int(position), bool(is_heavy))
        if table.demotions != demoted:
            cache._rebuild_mirror()
        else:
            cache.key_mirror.write_row(slot, row)


__all__ = ["SlotKVCache", "CacheEntry", "KeyMirror", "write_slots"]
