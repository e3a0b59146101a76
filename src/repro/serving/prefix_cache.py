"""Shared-prefix reuse of prefill work across serving requests.

Many-user serving workloads repeat long prompt prefixes (a system prompt, a
shared document, few-shot examples).  The dense prefill of those tokens is a
pure function of the token ids — the per-layer queries, keys and values of
a prefix do not depend on what follows it (causal attention) or on the
request's KV cache policy (policies only *consume* the prefill outputs).
:class:`PrefixCache` exploits that: it remembers, for recently prefilled
prompts, the per-layer K/V rows and query rows of every prefix, so a new
request that shares a prefix only has to run its suffix tokens through the
model (:meth:`repro.llm.model.TransformerLM.prefill_chunk_batched`).

Entries are keyed by the prompt token tuple; a lookup returns the longest
cached common prefix, capped at ``len(prompt) - 1`` so the final prompt
position is always recomputed (its hidden state produces the first-token
logits, which are not stored here).  Reuse below ``min_prefix_tokens`` is
rejected — slicing bookkeeping would cost more than the skipped GEMM rows.

Each layer of an entry holds the prompt's K/V rows as refcounted *pool
pages* (:class:`~repro.core.kv_pool.SharedKVPages`) in the serving
engine's :class:`~repro.core.kv_pool.KVPoolGroup`, plus an owned copy of
its query rows ``[n, h, d]`` — O(n) bytes, the size of the keys.  A
pruning policy's static stage needs column sums over the prefix's query
rows (:class:`~repro.core.static_pruning.ColumnSums`); a hit can land at
any prefix length ``p``, and the sums over rows ``< p`` cannot be derived
from a longer prompt's sums, so the admitted request rebuilds them by
replaying the cached queries against the cached keys through the prefill
kernel (:func:`repro.llm.attention_layer.causal_prefill`).  Requests whose
policy reads no scores skip the replay.

A hit hands the page run to the admitted sequence, whose
whole-prompt-retaining policies adopt the pages zero-copy: the prefix's KV
occupies pool memory once however many sequences share it, at admission
*and* for the rest of decode.  Pages stay shared until a sharer overwrites
one (copy-on-write split) and are freed when the last reference — cache
entry or sequence — drops.  The query rows are prefill-only and never
shared with decode.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.kv_pool import (
    BlockTable,
    KVPoolGroup,
    PoolExhaustedError,
    SharedKVPages,
)

LayerPrefillState = Tuple[np.ndarray, np.ndarray, np.ndarray]
"""Per-layer prefill rows: ``(keys [n, h, d], values [n, h, d], queries
[n, h, d])``."""

LayerPrefixState = Tuple[np.ndarray, np.ndarray, np.ndarray, SharedKVPages]
"""A :data:`LayerPrefillState` extended with the shared pool pages holding
the same K/V rows."""


def common_prefix_length(a: Sequence[int], b: Sequence[int]) -> int:
    """Length of the longest common prefix of two token sequences."""
    limit = min(len(a), len(b))
    for i in range(limit):
        if a[i] != b[i]:
            return i
    return limit


@dataclass
class _CachedLayer:
    """One layer of a cache entry: owned query rows + K/V pool pages.

    The query rows are a copy: the prefill's are views into its prompt
    buffers, which a stored view would pin for the entry's lifetime.
    """

    queries: np.ndarray
    pages: SharedKVPages

    def __post_init__(self) -> None:
        self.queries = np.array(self.queries, dtype=np.float64)


@dataclass
class SequencePrefix:
    """The reusable prefix handed to the packed prefill.

    ``layers[l]`` holds the layer-``l`` prefill rows ``(keys, values,
    queries)`` of the first ``length`` tokens of the prompt; ``pages[l]``
    is the shared pool-page run holding the same K/V rows, which
    whole-prompt-retaining policies adopt zero-copy instead of re-storing
    them.

    A prefix is *pinned*: :meth:`PrefixCache.lookup` takes one page
    reference per layer on the consumer's behalf, so the pages survive
    even if the cache entry is LRU-evicted or shed for page pressure
    before the prefill that uses them runs.  The consumer must call
    :meth:`release` exactly once when done (idempotent).
    """

    length: int
    layers: List[LayerPrefillState]
    pages: List[SharedKVPages]
    _pinned: bool = True

    def layer_states(self) -> List[LayerPrefixState]:
        """Per-layer ``(keys, values, queries, pages)`` prefill inputs."""
        return [
            (keys, values, queries, shared)
            for (keys, values, queries), shared in zip(self.layers, self.pages)
        ]

    def release(self) -> None:
        """Drop the lookup's page pins."""
        if self._pinned:
            for shared in self.pages:
                shared.decref()
        self._pinned = False


@dataclass
class PrefixCacheStats:
    """Counters for observability and the TTFT benchmark's FLOP accounting."""

    lookups: int = 0
    hits: int = 0
    tokens_reused: int = 0
    inserts: int = 0
    inserts_by_reference: int = 0
    skipped_inserts: int = 0
    superseded_entries: int = 0
    evictions: int = 0

    @property
    def misses(self) -> int:
        return self.lookups - self.hits

    @property
    def hit_rate(self) -> float:
        if self.lookups == 0:
            return 0.0
        return self.hits / self.lookups


class PrefixCache:
    """LRU cache of per-layer prefill rows keyed by prompt token ids.

    Parameters
    ----------
    kv_pools:
        The per-layer page arenas (:class:`~repro.core.kv_pool.KVPoolGroup`)
        entry K/V rows live in — the serving engine's own group, so
        admitted sequences adopt cached pages zero-copy (see the module
        docstring).
    max_entries:
        Maximum number of cached prompts; the least recently used entry is
        dropped first.
    min_prefix_tokens:
        Shortest shared prefix worth reusing.  Lookups that would reuse
        fewer tokens report a miss.
    max_bytes:
        Byte budget for the stored rows (query rows plus the codec-true
        bytes of held pages), O(heads * head_dim * n) per layer and entry.
        The least recently used entries are dropped until the budget
        holds, and an entry larger than the whole budget is never stored.
    """

    def __init__(
        self,
        kv_pools: KVPoolGroup,
        max_entries: int = 64,
        min_prefix_tokens: int = 8,
        max_bytes: int = 256 * 1024 * 1024,
    ) -> None:
        if not isinstance(kv_pools, KVPoolGroup):
            raise TypeError("PrefixCache needs the KVPoolGroup its pages live in")
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        if min_prefix_tokens < 1:
            raise ValueError("min_prefix_tokens must be >= 1")
        if max_bytes < 1:
            raise ValueError("max_bytes must be >= 1")
        self.max_entries = int(max_entries)
        self.min_prefix_tokens = int(min_prefix_tokens)
        self.max_bytes = int(max_bytes)
        self.kv_pools = kv_pools
        # Both dicts are insertion-ordered; re-inserting on access makes the
        # first key the LRU victim.
        self._entries: Dict[Tuple[int, ...], List[_CachedLayer]] = {}
        self._id_arrays: Dict[Tuple[int, ...], np.ndarray] = {}
        self._entry_bytes: Dict[Tuple[int, ...], int] = {}
        self._total_bytes = 0
        self.stats = PrefixCacheStats()
        # Called with the entry key whenever the cache *sheds* an entry —
        # LRU/byte-budget eviction, page-pressure shedding or clear() — but
        # NOT when a longer prompt supersedes it (the superseding entry
        # still answers every lookup the dropped one could, so e.g. a
        # cluster router's sticky prefix→worker mapping stays valid).
        self.on_evict: Optional[Callable[[Tuple[int, ...]], None]] = None

    def __len__(self) -> int:
        return len(self._entries)

    def memory_bytes(self) -> int:
        """Bytes held by the cached entries (query rows + held pages)."""
        return self._total_bytes

    def pages_held(self, layer: int) -> int:
        """Distinct pool pages layer ``layer``'s entries currently reference.

        Counted as a set: by-reference entries of prompts sharing a prefix
        can reference the same underlying pages, which occupy pool memory
        once however many entries point at them.
        """
        pages = set()
        for entry in self._entries.values():
            pages.update(entry[layer].pages.page_ids)
        return len(pages)

    def clear(self) -> None:
        for key in list(self._entries):
            self._drop(key)
            self._notify_evict(key)

    def drop_lru_entry(self) -> bool:
        """Drop the least recently used entry (page-pressure shedding).

        Returns ``False`` when the cache is already empty.  The engine uses
        this when a request cannot be admitted because cached prefix pages
        are crowding the pool and nothing else will free them.
        """
        if not self._entries:
            return False
        victim = next(iter(self._entries))
        self._drop(victim)
        self.stats.evictions += 1
        self._notify_evict(victim)
        return True

    # ------------------------------------------------------------------
    def _best_match(
        self, token_ids: Sequence[int]
    ) -> Tuple[Optional[Tuple[int, ...]], int]:
        """Longest cached prefix of ``token_ids``: ``(entry key, length)``.

        Pure query — no stats, no LRU touch.  The match is capped at
        ``len(token_ids) - 1`` and must reach ``min_prefix_tokens``;
        ``(None, 0)`` otherwise.
        """
        ids = np.asarray([int(t) for t in token_ids], dtype=np.int64)
        limit = int(ids.size) - 1
        if limit < self.min_prefix_tokens:
            return None, 0
        best_key: Optional[Tuple[int, ...]] = None
        best_len = 0
        for key, arr in self._id_arrays.items():
            m = min(int(arr.size), limit)
            if m <= best_len:
                continue
            mismatch = np.flatnonzero(arr[:m] != ids[:m])
            common = int(mismatch[0]) if mismatch.size else m
            if common > best_len:
                best_len, best_key = common, key
        if best_key is None or best_len < self.min_prefix_tokens:
            return None, 0
        return best_key, best_len

    def peek_length(self, token_ids: Sequence[int]) -> int:
        """Reusable prefix length a :meth:`lookup` would return, without
        counting a lookup, touching LRU order or building the slices.

        Admission scheduling uses this to decide whether to defer a request
        for intra-wave sharing; only requests that actually prefill perform
        a real :meth:`lookup`.
        """
        return self._best_match(token_ids)[1]

    def lookup(self, token_ids: Sequence[int]) -> Optional[SequencePrefix]:
        """Longest reusable cached prefix of ``token_ids`` (or ``None``).

        The match is capped at ``len(token_ids) - 1``: the last prompt token
        must be recomputed because its final hidden state (the first-token
        logits) is not cached.  The returned tensors are read-only for the
        caller; the K/V blocks are materialised fresh from the shared
        pages (the pages themselves travel alongside for zero-copy
        adoption).

        A hit counts towards ``stats.hits`` here, but ``tokens_reused`` is
        only incremented by :meth:`commit_reuse` once the prefill that
        consumed the prefix succeeded — a request that fails admission
        after its lookup skipped no work.
        """
        self.stats.lookups += 1
        best_key, best_len = self._best_match(token_ids)
        if best_key is None:
            return None
        self._touch(best_key)
        self.stats.hits += 1
        p = best_len
        entry = self._entries[best_key]
        layers: List[LayerPrefillState] = []
        pages: List[SharedKVPages] = []
        for cached in entry:
            shared = cached.pages.prefix(p)
            keys, values = shared.materialize()
            layers.append((keys, values, cached.queries[:p]))
            shared.incref()  # pin for the consumer; released after use
            pages.append(shared)
        return SequencePrefix(length=p, layers=layers, pages=pages)

    def commit_reuse(self, prefix: SequencePrefix) -> None:
        """Record that a prefill actually skipped ``prefix.length`` tokens.

        Called by the consumer after the prefill using the looked-up prefix
        succeeds, so ``stats.tokens_reused`` (the basis of the benchmark's
        FLOP-savings figure) measures realized reuse only.
        """
        self.stats.tokens_reused += int(prefix.length)

    def insert(
        self,
        token_ids: Sequence[int],
        layers: Sequence[LayerPrefillState],
        shared_pages: Optional[Sequence[SharedKVPages]] = None,
    ) -> bool:
        """Store a freshly prefilled prompt's per-layer rows.

        Returns ``False`` (and stores nothing) when an existing entry
        already covers the whole prompt — a longer or identical cached
        prompt makes this one redundant for future lookups.  Conversely,
        existing entries that are a prefix of the new prompt are dropped
        (superseded): the new entry answers every lookup they could.

        ``shared_pages`` inserts *by reference*: each
        layer's handle must already point at pool pages holding the
        prompt's K/V rows — typically the inserting sequence's own pages
        (:meth:`~repro.core.policy.KVCachePolicy.prompt_page_run`) — and
        the entry stores the refcounted handle instead of writing a second
        paged copy.  The cache takes ownership of the passed references
        (they are released on every non-storing path), and copy-on-write
        keeps the entry immutable when the originating sequence later
        writes into a shared page.  Without ``shared_pages`` the K/V rows
        are copied into freshly allocated pool pages exactly once; if the
        pool cannot supply the pages the insert is skipped (caching is an
        optimisation — admission already succeeded) and any partially
        allocated pages are returned.

        Prompts that share a prefix but diverge (distinct suffixes) each
        keep their own full entry — including the query rows — so memory
        grows with the number of *distinct* prompts, not with sharing;
        ``max_entries`` and ``max_bytes`` bound it.
        """
        key = tuple(int(t) for t in token_ids)
        if shared_pages is not None:
            if len(shared_pages) != self.kv_pools.num_layers or any(
                shared.length != len(key) for shared in shared_pages
            ):
                for shared in shared_pages:
                    shared.decref()
                raise ValueError(
                    "shared_pages must cover the whole prompt, one run per layer"
                )
        if not key:
            raise ValueError("token_ids must not be empty")
        ids = np.asarray(key, dtype=np.int64)
        superseded = []
        for existing_key, arr in self._id_arrays.items():
            if arr.size >= ids.size and not np.any(arr[: ids.size] != ids):
                self._touch(existing_key)
                self.stats.skipped_inserts += 1
                if shared_pages is not None:
                    for shared in shared_pages:
                        shared.decref()
                return False
            if arr.size < ids.size and not np.any(ids[: arr.size] != arr):
                superseded.append(existing_key)
        entry = self._build_entry(layers, shared_pages)
        if entry is None:
            # Pool pages unavailable: skip caching, keep the pool for
            # sequences (and keep the entries this one would supersede).
            self.stats.skipped_inserts += 1
            return False
        entry_bytes = sum(self._layer_bytes(cached) for cached in entry)
        if entry_bytes > self.max_bytes:
            # Rejecting an unstorable entry must not purge the (storable)
            # entries it would have superseded.
            self._release_entry(entry)
            self.stats.skipped_inserts += 1
            return False
        for existing_key in superseded:
            self._drop(existing_key)
            self.stats.superseded_entries += 1
        self._entries[key] = entry
        self._id_arrays[key] = ids
        self._entry_bytes[key] = entry_bytes
        self._total_bytes += entry_bytes
        self.stats.inserts += 1
        if shared_pages is not None:
            self.stats.inserts_by_reference += 1
        while (
            len(self._entries) > self.max_entries
            or self._total_bytes > self.max_bytes
        ):
            victim = next(iter(self._entries))
            self._drop(victim)
            self.stats.evictions += 1
            self._notify_evict(victim)
        return True

    # ------------------------------------------------------------------
    def _build_entry(
        self,
        layers: Sequence[LayerPrefillState],
        shared_pages: Optional[Sequence[SharedKVPages]] = None,
    ) -> Optional[List[_CachedLayer]]:
        if len(layers) != self.kv_pools.num_layers:
            if shared_pages is not None:
                for shared in shared_pages:
                    shared.decref()
            raise ValueError("one prefill state per pool layer is required")
        if shared_pages is not None:
            # By-reference entry: the handles already own one reference per
            # page; no pool writes, no exhaustion path.
            return [
                _CachedLayer(queries, shared)
                for (_keys, _values, queries), shared in zip(layers, shared_pages)
            ]
        entry: List[_CachedLayer] = []
        try:
            for layer_index, (keys, values, queries) in enumerate(layers):
                shared = self._write_pages(layer_index, keys, values)
                entry.append(_CachedLayer(queries, shared))
        except PoolExhaustedError:
            self._release_entry(entry)
            return None
        return entry

    def _write_pages(
        self, layer_index: int, keys: np.ndarray, values: np.ndarray
    ) -> SharedKVPages:
        """Copy one layer's K/V rows into freshly allocated pool pages.

        Reuses the block table's span write (claim every page, then one
        pool write; released on exhaustion) and detaches the resulting
        page run into the entry's :class:`SharedKVPages` reference.
        """
        pool = self.kv_pools.layer(layer_index)
        keys = np.asarray(keys, dtype=np.float64)
        values = np.asarray(values, dtype=np.float64)
        table = BlockTable(pool)
        try:
            table.write(0, keys, values)
        except PoolExhaustedError:
            table.release()
            raise
        return SharedKVPages(pool, table.detach(), keys.shape[0])

    def _layer_bytes(self, cached: _CachedLayer) -> int:
        # Codec-true: quantised arenas charge quantised bytes + scale
        # metadata (plus any full-precision overlay a page carries), so the
        # cache byte limit buys proportionally more prefixes.
        pool = cached.pages.pool
        return int(cached.queries.nbytes) + sum(
            pool.page_bytes_of(p) for p in cached.pages.page_ids
        )

    def _release_entry(self, entry: Sequence[_CachedLayer]) -> None:
        for cached in entry:
            cached.pages.decref()

    def _touch(self, key: Tuple[int, ...]) -> None:
        """Mark ``key`` as most recently used."""
        self._entries[key] = self._entries.pop(key)
        self._id_arrays[key] = self._id_arrays.pop(key)

    def _drop(self, key: Tuple[int, ...]) -> None:
        self._release_entry(self._entries[key])
        del self._entries[key]
        del self._id_arrays[key]
        self._total_bytes -= self._entry_bytes.pop(key)

    def _notify_evict(self, key: Tuple[int, ...]) -> None:
        """Fire :attr:`on_evict` after the entry is fully gone, so a
        callback that re-queries the cache sees consistent state."""
        if self.on_evict is not None:
            self.on_evict(key)


__all__ = [
    "LayerPrefillState",
    "LayerPrefixState",
    "PrefixCache",
    "PrefixCacheStats",
    "SequencePrefix",
    "common_prefix_length",
]
