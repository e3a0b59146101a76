"""Paged KV storage: a shared page arena with refcounts and copy-on-write.

The paper's hardware model is a *fixed* number of CAM rows shared between
heavy and generated tokens.  The serving analogue of that constraint is a
fixed byte budget of KV memory shared between *sequences*: instead of one
dense K/V array per sequence per layer (memory scales with
``max_batch_size x capacity`` even when most slots are empty), a
:class:`PagedKVPool` owns a single per-layer arena of fixed-size pages and
every sequence maps its logical cache slots onto pool pages through a
:class:`BlockTable` — the vLLM-style paged-attention layout, specialised to
this repo's policy-managed caches.

Three properties make the pool the enabling architecture for the serving
roadmap:

* **On-demand allocation** — pages are allocated on first write, so a
  sequence whose policy retains 32 tokens costs one page, not a full
  ``capacity``-sized array.  Admission can therefore be gated on *page
  availability* rather than a fixed slot grid.
* **Refcounted sharing** — a page referenced by several block tables (e.g.
  a shared prompt prefix inserted once by the
  :class:`~repro.serving.prefix_cache.PrefixCache`) is stored once.
  :class:`SharedKVPages` is the handle that carries such a page run between
  its owner and adopters.
* **Copy-on-write** — writing through a block table to a page whose
  refcount is above one first splits the page (allocates a private copy),
  so sharers never observe each other's evictions/overwrites and the paged
  engine stays token-identical to the dense path.

Since the quantised-storage refactor the pool also owns a **storage
codec** (:mod:`repro.core.kv_codec`): arenas can hold int8 or packed int4
rows with per-page scale metadata, quantising on write and dequantising
inside the gathers, so every consumer above the pool (caches, policies,
group decode) keeps reading plain float rows while the same byte budget
holds several times more pages.  The default :class:`~repro.core.kv_codec.FloatCodec`
is bit-identical to the pre-codec arena.  A
:class:`~repro.core.kv_codec.MixedPrecisionConfig` keeps sink/recent
pages full precision in a per-page overlay.

Everything here is plain numpy and single-threaded, matching the rest of
the behavioural model.
"""

from __future__ import annotations

import math
import os
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import count as _itercount
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .kv_codec import CodecSpec, MixedPrecisionConfig, resolve_codec

#: Page size (tokens per page) used when a store creates its own private
#: pool.  Small enough that short sequences do not over-allocate, large
#: enough that block tables stay short.
DEFAULT_PAGE_SIZE = 32

#: Debug mode: when enabled, padded reads (:func:`gather_padded`,
#: :class:`PaddedAddresses`) overwrite the padding tail of the returned
#: tensors with NaN instead of leaving whatever rows the aliased page
#: happens to hold.  Any consumer that forgets to mask padding then
#: poisons its output loudly (NaN propagates through every matmul/softmax)
#: instead of silently reading plausible-looking garbage.
#: Costs one extra write over the padding region per gather — keep it off
#: outside tests.  Initialised from ``REPRO_POISON_PADDING``.
_POISON_PADDING = os.environ.get("REPRO_POISON_PADDING", "") not in ("", "0")


def set_poison_padding(enabled: bool) -> bool:
    """Toggle padding poisoning in padded reads; returns the old value."""
    global _POISON_PADDING
    old = _POISON_PADDING
    _POISON_PADDING = bool(enabled)
    return old


def poison_padding_enabled() -> bool:
    return _POISON_PADDING


class PoolExhaustedError(RuntimeError):
    """A fixed-size pool has no free page left.

    Serving code treats this as an admission/back-pressure signal: the
    engine fails the affected request closed (``finish_reason="error"``)
    or keeps it queued until pages are released — it never crashes the
    batch.
    """


# ----------------------------------------------------------------------
# Arena allocation seam
# ----------------------------------------------------------------------


class ArenaAllocator:
    """Allocation seam for pool arena arrays.

    :class:`PagedKVPool` obtains its backing arrays (K/V pages and, for
    quantised codecs, the per-page scale arrays) through an allocator
    instead of calling ``np.zeros`` directly.  The default allocator *is*
    ``np.zeros`` — the dense in-process path is bit-identical by
    construction — while :class:`SharedArenaAllocator` backs the same
    arrays with ``multiprocessing.shared_memory`` segments so another
    process (the cluster parent) can map them without pickling.
    """

    def zeros(self, shape: Sequence[int], dtype: np.dtype) -> np.ndarray:
        """Return a zero-filled array of ``shape``/``dtype``."""
        return np.zeros(tuple(shape), dtype=dtype)

    def free(self, array: np.ndarray) -> None:
        """Release an array previously returned by :meth:`zeros`.

        The default allocator lets the GC handle it; shared allocators
        unlink the backing segment.  Called by growable pools when they
        replace their arrays.
        """


_DEFAULT_ALLOCATOR = ArenaAllocator()
_ARENA_ALLOCATOR: ArenaAllocator = _DEFAULT_ALLOCATOR
_ARENA_SEQ = _itercount()


def current_arena_allocator() -> ArenaAllocator:
    """The ambient allocator new pools pick up when none is passed."""
    return _ARENA_ALLOCATOR


@contextmanager
def arena_allocator(allocator: ArenaAllocator) -> Iterator[ArenaAllocator]:
    """Make ``allocator`` ambient for pools built inside the block.

    This is how the cluster's process workers give an *unmodified*
    zero-argument ``engine_factory`` shared-memory arenas: the child
    wraps the factory call, and every ``PagedKVPool``/``KVPoolGroup``
    built inside (without an explicit ``allocator=``) lands in shared
    memory.  Pools created outside the block — e.g. private per-policy
    pools allocated later while serving — keep the process-local default.
    """
    global _ARENA_ALLOCATOR
    previous = _ARENA_ALLOCATOR
    _ARENA_ALLOCATOR = allocator
    try:
        yield allocator
    finally:
        _ARENA_ALLOCATOR = previous


def _untrack_shared_memory(shm: object) -> None:
    # CPython 3.11 registers segments with the resource tracker on both
    # create *and* attach (bpo-39959; ``track=`` only exists from 3.13).
    # We manage the lifecycle manually — creator unlinks in a ``finally``,
    # the cluster parent sweeps by name prefix as a crash fallback — so
    # tracker entries would only produce spurious double-unlink warnings
    # at interpreter exit.
    try:
        from multiprocessing import resource_tracker

        resource_tracker.unregister(shm._name, "shared_memory")
    except Exception:
        pass


def _unlink_shared_memory(shm: object) -> None:
    # ``SharedMemory.unlink`` unregisters from the resource tracker as a
    # side effect; since creation untracked the segment, re-register
    # first so that internal unregister finds a matching entry (a bare
    # unlink makes the tracker process log a KeyError traceback).
    try:
        from multiprocessing import resource_tracker

        resource_tracker.register(shm._name, "shared_memory")
    except Exception:
        pass
    shm.unlink()


class SharedArenaAllocator(ArenaAllocator):
    """Arena allocator backed by ``multiprocessing.shared_memory``.

    Each :meth:`zeros` call creates one named segment (zero-filled) and
    returns a numpy view over it.  :meth:`manifest` lists
    ``(name, shape, dtype)`` for every live segment — a picklable
    description another process can :meth:`attach` to map the same
    memory.  The creator owns the namespace: :meth:`unlink` removes every
    segment name (existing mappings stay valid, per POSIX), and
    :meth:`close` drops this process's mappings.

    Segment names are ``{prefix}-{n}``; callers that need a crash-safe
    sweep (unlink segments of a worker that died before reporting its
    manifest) should pass an explicit ``prefix`` they remember.
    """

    def __init__(self, prefix: Optional[str] = None) -> None:
        from multiprocessing import shared_memory  # noqa: F401 — probe

        if prefix is None:
            prefix = f"repro-arena-{os.getpid()}-{next(_ARENA_SEQ)}"
        if "/" in prefix:
            raise ValueError("shared-memory prefix must not contain '/'")
        self.prefix = prefix
        self._segments: Dict[str, object] = {}
        self._shapes: Dict[str, Tuple[Tuple[int, ...], str]] = {}
        self._by_addr: Dict[int, str] = {}
        self._zombies: List[object] = []
        self._count = 0

    def zeros(self, shape: Sequence[int], dtype: np.dtype) -> np.ndarray:
        from multiprocessing import shared_memory

        dtype = np.dtype(dtype)
        shape = tuple(int(s) for s in shape)
        nbytes = int(np.prod(shape, dtype=np.int64)) * dtype.itemsize
        name = f"{self.prefix}-{self._count}"
        self._count += 1
        shm = shared_memory.SharedMemory(name=name, create=True, size=max(1, nbytes))
        _untrack_shared_memory(shm)
        array: np.ndarray = np.ndarray(shape, dtype=dtype, buffer=shm.buf)
        array.fill(0)
        self._segments[name] = shm
        self._shapes[name] = (shape, dtype.str)
        self._by_addr[array.__array_interface__["data"][0]] = name
        return array

    def free(self, array: np.ndarray) -> None:
        """Unlink the segment backing ``array`` (growable-pool realloc).

        The name disappears immediately; the mapping itself is released
        when the last view dies (we keep the segment object as a zombie
        until :meth:`close`, since numpy still exports its buffer here).
        """
        name = self._by_addr.pop(array.__array_interface__["data"][0], None)
        if name is None:
            return
        shm = self._segments.pop(name)
        self._shapes.pop(name, None)
        try:
            _unlink_shared_memory(shm)
        except FileNotFoundError:
            pass
        self._zombies.append(shm)

    def manifest(self) -> List[Tuple[str, Tuple[int, ...], str]]:
        """Picklable ``(name, shape, dtype_str)`` list of live segments."""
        return [
            (name, shape, dtype_str)
            for name, (shape, dtype_str) in self._shapes.items()
        ]

    @property
    def segment_names(self) -> List[str]:
        return list(self._segments)

    def unlink(self) -> None:
        """Remove every live segment name (idempotent)."""
        for shm in self._segments.values():
            try:
                _unlink_shared_memory(shm)
            except FileNotFoundError:
                pass

    def close(self) -> None:
        """Drop this process's mappings (best effort: numpy views may
        still export the buffer; those segments close at process exit)."""
        for shm in list(self._segments.values()) + self._zombies:
            try:
                shm.close()
            except BufferError:
                pass

    @staticmethod
    def unlink_by_prefix(prefix: str) -> List[str]:
        """Crash-fallback sweep: unlink every ``/dev/shm`` segment whose
        name starts with ``prefix``; returns the names removed.  No-op on
        hosts without a ``/dev/shm`` tmpfs."""
        removed: List[str] = []
        shm_dir = "/dev/shm"
        if not os.path.isdir(shm_dir):
            return removed
        for entry in os.listdir(shm_dir):
            if entry.startswith(prefix):
                try:
                    os.unlink(os.path.join(shm_dir, entry))
                    removed.append(entry)
                except OSError:
                    pass
        return removed


class AttachedArena:
    """A read/write mapping of another process's shared arena.

    Built from a :meth:`SharedArenaAllocator.manifest`; ``arrays[name]``
    is a numpy view of the live segment.  :meth:`close` drops the
    mappings (never unlinks — the creator owns the namespace).
    """

    def __init__(self, manifest: Sequence[Tuple[str, Sequence[int], str]]) -> None:
        from multiprocessing import shared_memory

        self.arrays: Dict[str, np.ndarray] = {}
        self._segments: List[object] = []
        for name, shape, dtype_str in manifest:
            shm = shared_memory.SharedMemory(name=name, create=False)
            _untrack_shared_memory(shm)
            self._segments.append(shm)
            self.arrays[name] = np.ndarray(
                tuple(int(s) for s in shape),
                dtype=np.dtype(dtype_str),
                buffer=shm.buf,
            )

    def close(self) -> None:
        self.arrays.clear()
        for shm in self._segments:
            try:
                shm.close()
            except BufferError:
                pass
        self._segments.clear()


@dataclass
class PoolStats:
    """Counters accumulated over a pool's lifetime."""

    page_allocs: int = 0
    page_frees: int = 0
    cow_splits: int = 0
    prefix_pages_adopted: int = 0
    peak_pages_in_use: int = 0
    gathers: int = 0
    fp_promotions: int = 0
    fp_demotions: int = 0


class PagedKVPool:
    """A page arena of key/value rows with a free list and refcounts.

    Parameters
    ----------
    page_size:
        Tokens per page.
    num_heads, head_dim:
        Geometry of each stored K/V row (``[num_heads, head_dim]``).
    num_pages:
        Arena size in pages.  ``None`` makes the pool *growable* (used for
        private per-policy pools outside the serving engine); a fixed pool
        raises :class:`PoolExhaustedError` when empty.
    dtype:
        *Compute* dtype of the pool: what gathers return and what the
        float codec stores.  The serving engine uses float64 (the model's
        compute dtype); :class:`~repro.core.kv_cache.SlotKVCache` coerces
        writes through its own dtype first, so quantisation behaviour is
        independent of the arena dtype.
    codec:
        Storage codec (see :mod:`repro.core.kv_codec`): ``None``/``"fp"``
        stores at ``dtype`` (bit-identical passthrough), ``"int8"`` /
        ``"int4"`` store quantised rows with per-page scale metadata and
        dequantise inside every gather.
    mixed_precision:
        Optional :class:`~repro.core.kv_codec.MixedPrecisionConfig`
        keeping sink/recent pages full precision (quantised codecs only).
    """

    def __init__(
        self,
        page_size: int,
        num_heads: int,
        head_dim: int,
        num_pages: Optional[int] = None,
        dtype: np.dtype = np.float64,
        codec: CodecSpec = None,
        mixed_precision: Optional[MixedPrecisionConfig] = None,
        allocator: Optional[ArenaAllocator] = None,
    ) -> None:
        if page_size < 1:
            raise ValueError("page_size must be >= 1")
        if num_heads < 1 or head_dim < 1:
            raise ValueError("num_heads and head_dim must be >= 1")
        if num_pages is not None and num_pages < 1:
            raise ValueError("num_pages must be >= 1 (or None for growable)")
        self.page_size = int(page_size)
        self.num_heads = int(num_heads)
        self.head_dim = int(head_dim)
        self.dtype = np.dtype(dtype)
        self.codec = resolve_codec(codec, self.dtype)
        if self.codec.is_float and self.codec.storage_dtype != self.dtype:
            raise ValueError(
                f"float codec dtype {self.codec.storage_dtype} does not "
                f"match pool dtype {self.dtype}"
            )
        if mixed_precision is not None and self.codec.is_float:
            raise ValueError("mixed_precision requires a quantised codec")
        self.mixed_precision = mixed_precision
        self.fixed = num_pages is not None
        # K/V arenas and scale arrays go through the allocator seam so a
        # shared-memory allocator can back them; process-local
        # bookkeeping (fp flags, free list, refcounts) stays plain.
        self.allocator = (
            allocator if allocator is not None else current_arena_allocator()
        )

        initial = int(num_pages) if self.fixed else 0
        packed = self.codec.packed_dim(self.head_dim)
        shape = (initial, self.page_size, self.num_heads, packed)
        self._keys = self.allocator.zeros(shape, self.codec.storage_dtype)
        self._values = self.allocator.zeros(shape, self.codec.storage_dtype)
        if self.codec.is_float:
            self._key_scales: Optional[np.ndarray] = None
            self._value_scales: Optional[np.ndarray] = None
            self._fp_flags: Optional[np.ndarray] = None
        else:
            scale_shape = (initial, self.page_size, self.num_heads)
            self._key_scales = self.allocator.zeros(
                scale_shape, self.codec.scale_dtype
            )
            self._value_scales = self.allocator.zeros(
                scale_shape, self.codec.scale_dtype
            )
            self._fp_flags = np.zeros(initial, dtype=bool)
        # Full-precision overlay of pages pinned fp by the mixed-precision
        # policy: page -> [page_size, h, d] arrays at the compute dtype.
        self._fp_keys: Dict[int, np.ndarray] = {}
        self._fp_values: Dict[int, np.ndarray] = {}
        # Free pages as a stack popped from the end: descending init order
        # means pages are handed out ascending (0 first), which keeps tests
        # and debugging deterministic.
        self._free: List[int] = list(range(initial - 1, -1, -1))
        self._refcounts: List[int] = [0] * initial
        self._in_use = 0
        self.stats = PoolStats()

    @classmethod
    def from_byte_budget(
        cls,
        page_size: int,
        num_heads: int,
        head_dim: int,
        total_bytes: int,
        dtype: np.dtype = np.float64,
        codec: CodecSpec = None,
        mixed_precision: Optional[MixedPrecisionConfig] = None,
        allocator: Optional[ArenaAllocator] = None,
    ) -> "PagedKVPool":
        """Fixed pool holding as many pages as ``total_bytes`` affords.

        Page cost is computed from the *storage codec* (quantised bytes
        plus scale metadata), so the same byte budget yields ~4x/8x the
        pages under int8/int4 — that is the whole point of quantised
        storage.
        """
        codec_obj = resolve_codec(codec, np.dtype(dtype))
        page_bytes = page_size * codec_obj.kv_row_bytes(num_heads, head_dim)
        num_pages = max(1, int(total_bytes) // page_bytes)
        return cls(
            page_size,
            num_heads,
            head_dim,
            num_pages=num_pages,
            dtype=dtype,
            codec=codec_obj,
            mixed_precision=mixed_precision,
            allocator=allocator,
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def total_pages(self) -> int:
        """Arena size in pages (current size for growable pools)."""
        return len(self._refcounts)

    @property
    def free_pages(self) -> int:
        return len(self._free)

    @property
    def pages_in_use(self) -> int:
        return self._in_use

    @property
    def page_bytes(self) -> int:
        """Bytes of K + V storage per page *in the storage codec*.

        For quantised codecs this includes the per-page scale metadata —
        the honest cost a byte budget is divided by.
        """
        return int(
            self.page_size * self.codec.kv_row_bytes(self.num_heads, self.head_dim)
        )

    @property
    def fp_page_bytes(self) -> int:
        """Bytes one full-precision overlay page adds on top of its arena slot."""
        return int(
            2 * self.page_size * self.num_heads * self.head_dim * self.dtype.itemsize
        )

    @property
    def fp_pages_in_use(self) -> int:
        """Allocated pages currently pinned full precision by the overlay."""
        return len(self._fp_keys)

    def page_is_fp(self, page: int) -> bool:
        return self._fp_flags is not None and bool(self._fp_flags[page])

    def page_bytes_of(self, page: int) -> int:
        """Actual storage cost of one page (arena slot + any fp overlay)."""
        self._check_page(page)
        if self.page_is_fp(page):
            return self.page_bytes + self.fp_page_bytes
        return self.page_bytes

    @property
    def bytes_in_use(self) -> int:
        return self._in_use * self.page_bytes + len(self._fp_keys) * self.fp_page_bytes

    @property
    def bytes_total(self) -> int:
        return (
            self.total_pages * self.page_bytes
            + len(self._fp_keys) * self.fp_page_bytes
        )

    def refcount(self, page: int) -> int:
        self._check_page(page)
        return self._refcounts[page]

    def is_shared(self, page: int) -> bool:
        return self.refcount(page) > 1

    # ------------------------------------------------------------------
    # Allocation
    # ------------------------------------------------------------------
    def alloc(self) -> int:
        """Allocate a page with refcount 1."""
        if not self._free:
            if self.fixed:
                raise PoolExhaustedError(
                    f"KV pool exhausted: all {self.total_pages} pages "
                    f"({self.bytes_total} bytes) are in use"
                )
            self._grow()
        page = self._free.pop()
        self._refcounts[page] = 1
        self._in_use += 1
        self.stats.page_allocs += 1
        if self._in_use > self.stats.peak_pages_in_use:
            self.stats.peak_pages_in_use = self._in_use
        return page

    def incref(self, page: int) -> None:
        """Add a reference to an allocated page."""
        self._check_allocated(page)
        self._refcounts[page] += 1

    def decref(self, page: int) -> None:
        """Drop a reference; the page returns to the free list at zero.

        Dropping a reference to a free page raises — a double free would
        otherwise silently hand the same page to two sequences.
        """
        self._check_page(page)
        if self._refcounts[page] <= 0:
            raise ValueError(f"double free of pool page {page}")
        self._refcounts[page] -= 1
        if self._refcounts[page] == 0:
            self._free.append(page)
            self._in_use -= 1
            self.stats.page_frees += 1
            if self._fp_flags is not None and self._fp_flags[page]:
                self._fp_flags[page] = False
                del self._fp_keys[page]
                del self._fp_values[page]

    def decref_many(self, pages: Iterable[int]) -> int:
        """Bulk :meth:`decref`: drop one reference to every page in ``pages``.

        Returns how many pages actually went back to the free list
        (refcount reached zero).  This is the release path of whole
        tables and shared runs — retiring or *preempting* a sequence
        frees its pages in one accounting pass, and the caller gets the
        reclaimed-page count for telemetry.
        """
        before = len(self._free)
        for page in pages:
            self.decref(page)
        return len(self._free) - before

    def copy_page(self, src: int) -> int:
        """Allocate a private copy of ``src`` (the copy-on-write split).

        The caller keeps its reference to ``src`` and must ``decref`` it
        once the copy has replaced it in the caller's block table.
        """
        self._check_allocated(src)
        dst = self.alloc()
        # Raw-byte copy: quantised pages copy stored bytes + scales with no
        # decode/encode round-trip, so the split is loss-free and sharers
        # keep dequantising identical rows.
        self._keys[dst] = self._keys[src]
        self._values[dst] = self._values[src]
        if self._key_scales is not None:
            self._key_scales[dst] = self._key_scales[src]
            self._value_scales[dst] = self._value_scales[src]
            if self._fp_flags[src]:
                self._fp_flags[dst] = True
                self._fp_keys[dst] = self._fp_keys[src].copy()
                self._fp_values[dst] = self._fp_values[src].copy()
        self.stats.cow_splits += 1
        return dst

    # ------------------------------------------------------------------
    # Row access
    # ------------------------------------------------------------------
    def write_rows(
        self, page: int, offset: int, keys: np.ndarray, values: np.ndarray
    ) -> None:
        """Store ``n`` consecutive K/V rows ``[n, h, d]`` at ``(page, offset)``.

        This is the quantise-on-write seam: the float codec assigns rows
        into the arena exactly as the pre-codec pool did (same cast
        semantics, bit-identical), quantised codecs encode the rows and
        store bytes + per-row scales, and pages pinned full precision by
        the mixed-precision policy write into their overlay instead.
        """
        self._check_allocated(page)
        n = keys.shape[0]
        stop = offset + n
        if self.codec.is_float:
            self._keys[page, offset:stop] = keys
            self._values[page, offset:stop] = values
            return
        if self._fp_flags[page]:
            self._fp_keys[page][offset:stop] = keys
            self._fp_values[page][offset:stop] = values
            return
        stored_k, scales_k = self.codec.encode(keys)
        stored_v, scales_v = self.codec.encode(values)
        self._keys[page, offset:stop] = stored_k
        self._key_scales[page, offset:stop] = scales_k
        self._values[page, offset:stop] = stored_v
        self._value_scales[page, offset:stop] = scales_v

    def page_keys(self, page: int) -> np.ndarray:
        """Key rows of one allocated page, ``[page_size, h, d]``.

        Under the float codec (and for fp-overlay pages) this is the
        writable arena view it always was; for quantised pages it is a
        read-only *dequantised snapshot* — writes must go through
        :meth:`write_rows`.
        """
        self._check_allocated(page)
        return self._page_rows(page, self._keys, self._key_scales, self._fp_keys)

    def page_values(self, page: int) -> np.ndarray:
        self._check_allocated(page)
        return self._page_rows(page, self._values, self._value_scales, self._fp_values)

    def _page_rows(self, page, stored, scales, overlay) -> np.ndarray:
        if self.codec.is_float:
            return stored[page]
        if self._fp_flags[page]:
            return overlay[page]
        out = self.codec.decode(
            stored[page], scales[page], self.head_dim, self.dtype
        )
        out.setflags(write=False)
        return out

    def gather_keys(self, pages: np.ndarray, offsets: np.ndarray) -> np.ndarray:
        """Gather key rows by parallel (page, offset) index arrays.

        Returns rows in the pool's *compute* dtype regardless of codec:
        one fancy-indexed arena read plus (for quantised codecs) one
        vectorised dequantisation over the whole gather — consumers never
        see storage bytes.
        """
        self.stats.gathers += 1
        return self._gather(
            pages, offsets, self._keys, self._key_scales, self._fp_keys
        )

    def gather_values(self, pages: np.ndarray, offsets: np.ndarray) -> np.ndarray:
        self.stats.gathers += 1
        return self._gather(
            pages, offsets, self._values, self._value_scales, self._fp_values
        )

    def _gather(self, pages, offsets, stored, scales, overlay) -> np.ndarray:
        if self.codec.is_float:
            return stored[pages, offsets]
        out = self.codec.decode(
            stored[pages, offsets],
            scales[pages, offsets],
            self.head_dim,
            self.dtype,
        )
        if overlay:
            # Patch rows living on full-precision overlay pages.  fp pages
            # are a small fraction by design, so the per-row fixup loop
            # stays off the common path.
            flat_pages = np.asarray(pages).reshape(-1)
            mask = self._fp_flags[flat_pages]
            if mask.any():
                flat_offsets = np.asarray(offsets).reshape(-1)
                flat_out = out.reshape(-1, self.num_heads, self.head_dim)
                for i in np.nonzero(mask)[0]:
                    flat_out[i] = overlay[int(flat_pages[i])][int(flat_offsets[i])]
        return out

    # ------------------------------------------------------------------
    # Mixed precision (full-precision page overlay)
    # ------------------------------------------------------------------
    def mark_page_fp(self, page: int) -> None:
        """Pin an allocated page full precision (idempotent).

        The page's current quantised content is decoded into the overlay
        (fresh pages decode to zeros), and every subsequent write/read of
        the page uses the overlay at the compute dtype.
        """
        self._check_allocated(page)
        if self.codec.is_float or self._fp_flags[page]:
            return
        self._fp_keys[page] = self.codec.decode(
            self._keys[page], self._key_scales[page], self.head_dim, self.dtype
        ).copy()
        self._fp_values[page] = self.codec.decode(
            self._values[page], self._value_scales[page], self.head_dim, self.dtype
        ).copy()
        self._fp_flags[page] = True
        self.stats.fp_promotions += 1

    def demote_page_fp(self, page: int) -> None:
        """Quantise a full-precision page into the arena (idempotent).

        Called when a page falls out of the mixed-precision recent window:
        the overlay rows are encoded once and the overlay is dropped.
        """
        self._check_page(page)
        if self._fp_flags is None or not self._fp_flags[page]:
            return
        keys = self._fp_keys.pop(page)
        values = self._fp_values.pop(page)
        self._fp_flags[page] = False
        stored_k, scales_k = self.codec.encode(keys)
        stored_v, scales_v = self.codec.encode(values)
        self._keys[page] = stored_k
        self._key_scales[page] = scales_k
        self._values[page] = stored_v
        self._value_scales[page] = scales_v
        self.stats.fp_demotions += 1

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _grow(self) -> None:
        old = self.total_pages
        new = max(4, old * 2)
        packed = self.codec.packed_dim(self.head_dim)
        shape = (new, self.page_size, self.num_heads, packed)
        keys = self.allocator.zeros(shape, self.codec.storage_dtype)
        values = self.allocator.zeros(shape, self.codec.storage_dtype)
        if old:
            keys[:old] = self._keys
            values[:old] = self._values
        self.allocator.free(self._keys)
        self.allocator.free(self._values)
        self._keys = keys
        self._values = values
        if self._key_scales is not None:
            scale_shape = (new, self.page_size, self.num_heads)
            key_scales = self.allocator.zeros(scale_shape, self.codec.scale_dtype)
            value_scales = self.allocator.zeros(scale_shape, self.codec.scale_dtype)
            fp_flags = np.zeros(new, dtype=bool)
            if old:
                key_scales[:old] = self._key_scales
                value_scales[:old] = self._value_scales
                fp_flags[:old] = self._fp_flags
            self.allocator.free(self._key_scales)
            self.allocator.free(self._value_scales)
            self._key_scales = key_scales
            self._value_scales = value_scales
            self._fp_flags = fp_flags
        self._refcounts.extend([0] * (new - old))
        self._free.extend(range(new - 1, old - 1, -1))

    def _check_page(self, page: int) -> None:
        if not 0 <= page < self.total_pages:
            raise IndexError(f"page {page} out of range for pool of {self.total_pages}")

    def _check_allocated(self, page: int) -> None:
        self._check_page(page)
        if self._refcounts[page] <= 0:
            raise ValueError(f"page {page} is not allocated")


@dataclass(frozen=True)
class SharedKVPages:
    """A refcounted run of pool pages holding tokens ``0..length-1``.

    Token ``i`` lives at ``(page_ids[i // page_size], i % page_size)``.
    The handle itself carries no reference — holders manage refcounts via
    :meth:`incref` / :meth:`decref` (the prefix cache holds one reference
    per entry; every adopting block table holds its own).
    """

    pool: PagedKVPool
    page_ids: Tuple[int, ...]
    length: int

    def __post_init__(self) -> None:
        needed = math.ceil(self.length / self.pool.page_size)
        if len(self.page_ids) < needed:
            raise ValueError(
                f"{len(self.page_ids)} pages cannot cover {self.length} tokens"
            )

    def incref(self) -> None:
        for page in self.page_ids:
            self.pool.incref(page)

    def decref(self) -> None:
        self.pool.decref_many(self.page_ids)

    def prefix(self, length: int) -> "SharedKVPages":
        """The handle covering only the first ``length`` tokens."""
        if not 0 < length <= self.length:
            raise ValueError(f"length {length} outside (0, {self.length}]")
        pages = math.ceil(length / self.pool.page_size)
        return SharedKVPages(self.pool, self.page_ids[:pages], length)

    @property
    def full_pages(self) -> int:
        """Pages entirely covered by the run (never CoW-split by adopters)."""
        return self.length // self.pool.page_size

    def materialize(self) -> Tuple[np.ndarray, np.ndarray]:
        """Contiguous ``(keys [length, h, d], values)`` copies of the run."""
        ps = self.pool.page_size
        idx = np.arange(self.length, dtype=np.int64)
        pages = np.asarray(self.page_ids, dtype=np.int64)[idx // ps]
        offsets = idx % ps
        return (
            self.pool.gather_keys(pages, offsets),
            self.pool.gather_values(pages, offsets),
        )


class BlockTable:
    """Per-sequence mapping of logical cache slots onto pool pages.

    Slot ``s`` lives in block ``s // page_size`` at offset
    ``s % page_size``.  Blocks allocate lazily on first write; a write into
    a *shared* block (refcount above one — e.g. an adopted prefix page)
    first splits it via :meth:`PagedKVPool.copy_page`, which is the
    copy-on-write step that keeps sharers isolated.
    """

    _MISSING = -1

    def __init__(self, pool: PagedKVPool) -> None:
        self.pool = pool
        self._pages: List[int] = []
        # Cached ndarray mirror of ``_pages`` for the gather hot path
        # (rebuilt lazily after block-map mutations).
        self._pages_array: Optional[np.ndarray] = None
        # Mixed-precision bookkeeping: highest block ever allocated by this
        # table (the write frontier) and the demotion-scan watermark —
        # blocks below it have already been pushed out of the fp recent
        # window.  Both are per-sequence, so promotion/demotion points are
        # deterministic regardless of batch composition.
        self._fp_frontier = -1
        self._fp_demote_from = 0

    # ------------------------------------------------------------------
    @property
    def page_ids(self) -> Tuple[int, ...]:
        return tuple(p for p in self._pages if p != self._MISSING)

    def pages_held(self) -> int:
        return sum(1 for p in self._pages if p != self._MISSING)

    def resident_bytes(self) -> int:
        """Actual storage cost of the held pages in the pool's codec.

        Counts quantised arena bytes (including scale metadata) plus the
        full-precision overlay of any page the mixed-precision policy is
        pinning — *not* the compute-dtype size the rows dequantise to.
        """
        return sum(
            self.pool.page_bytes_of(p) for p in self._pages if p != self._MISSING
        )

    def shared_page_count(self) -> int:
        """Held pages whose refcount is above one (CoW-split candidates)."""
        return sum(
            1
            for p in self._pages
            if p != self._MISSING and self.pool.is_shared(p)
        )

    def block_is_shared(self, slot: int) -> bool:
        """Whether ``slot``'s block is allocated *and* currently shared."""
        block = slot // self.pool.page_size
        if block >= len(self._pages) or self._pages[block] == self._MISSING:
            return False
        return self.pool.is_shared(self._pages[block])

    def page_run(self, count: int) -> Tuple[int, ...]:
        """The first ``count`` allocated pages of this table, in block order.

        Raises if the run has holes — a page run with gaps cannot back a
        contiguous :class:`SharedKVPages`.
        """
        if count > len(self._pages):
            raise RuntimeError(
                f"table holds {len(self._pages)} blocks, {count} requested"
            )
        run = tuple(self._pages[:count])
        if any(page == self._MISSING for page in run):
            raise RuntimeError("cannot share a page run with holes")
        return run

    def would_allocate(self, slot: int) -> bool:
        """Would a write to ``slot`` need a page from the pool?

        True when the slot's block is unallocated *or* shared (a write
        would trigger a CoW split, which allocates).
        """
        block = slot // self.pool.page_size
        if block >= len(self._pages) or self._pages[block] == self._MISSING:
            return True
        return self.pool.is_shared(self._pages[block])

    def any_shared(self) -> bool:
        # Polled for every decoding sequence and layer each engine step
        # (decode page demand): read the refcounts directly — a held page
        # is always in range — instead of one checked lookup per page.
        refcounts = self.pool._refcounts
        return any(
            p != self._MISSING and refcounts[p] > 1 for p in self._pages
        )

    # ------------------------------------------------------------------
    def adopt(self, shared: SharedKVPages) -> None:
        """Install a shared page run as this table's first blocks (zero-copy).

        The table must be empty; the adopted pages are incref'd and cover
        slots ``0..shared.length-1``.  Later writes into the final partial
        page CoW-split it automatically.
        """
        if self._pages:
            raise RuntimeError("adopt requires an empty block table")
        if shared.pool is not self.pool:
            raise ValueError("cannot adopt pages from a different pool")
        shared.incref()
        self._pages = list(shared.page_ids)
        self._pages_array = None
        # Adopted blocks are pre-existing shared storage: the fp frontier
        # starts past them so the recent window tracks this sequence's own
        # appends (shared pages are never demoted regardless).
        self._fp_frontier = len(self._pages) - 1
        self.pool.stats.prefix_pages_adopted += len(shared.page_ids)

    def write(self, slot: int, key: np.ndarray, value: np.ndarray) -> None:
        """Write one K/V row, allocating / CoW-splitting as needed."""
        page, offset = self._writable(slot)
        self.pool.write_rows(
            page, offset, np.asarray(key)[None], np.asarray(value)[None]
        )

    def write_span(
        self, start_slot: int, keys: np.ndarray, values: np.ndarray
    ) -> None:
        """Write ``n`` consecutive rows starting at ``start_slot``.

        Vectorised per touched page — the prefill bulk-load path.  Under a
        quantised codec the per-(row, head) scales make encoding a pure
        per-row function, so a span write stores bit-identical bytes to
        the same rows written one at a time.
        """
        n = keys.shape[0]
        ps = self.pool.page_size
        written = 0
        while written < n:
            slot = start_slot + written
            page, offset = self._writable(slot)
            take = min(ps - offset, n - written)
            self.pool.write_rows(
                page,
                offset,
                keys[written : written + take],
                values[written : written + take],
            )
            written += take

    def gather_keys(self, slots: np.ndarray) -> np.ndarray:
        pages, offsets = self.locate(slots)
        return self.pool.gather_keys(pages, offsets)

    def gather_values(self, slots: np.ndarray) -> np.ndarray:
        pages, offsets = self.locate(slots)
        return self.pool.gather_values(pages, offsets)

    def gather(self, slots: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        pages, offsets = self.locate(slots)
        return (
            self.pool.gather_keys(pages, offsets),
            self.pool.gather_values(pages, offsets),
        )

    def release(self) -> None:
        """Drop every page reference held by this table (idempotent)."""
        pages, self._pages = self._pages, []
        self._pages_array = None
        self._fp_frontier = -1
        self._fp_demote_from = 0
        self.pool.decref_many(
            page for page in pages if page != self._MISSING
        )

    def trim_blocks(self, keep_blocks: int) -> int:
        """Drop every block past the first ``keep_blocks``; return pages freed.

        The speculative-rollback primitive: a store that appended draft
        rows into fresh tail blocks truncates them here, decref'ing the
        backing pages (a page another table still references survives —
        freeing is the pool's refcount's job, not ours).  Unallocated
        (hole) blocks trim silently.  The mixed-precision frontier is
        clamped back so a later re-append re-runs promotion for the
        re-grown blocks; note demotions of *earlier* pages triggered by
        the trimmed appends are not undone — callers that need exact
        mixed-precision state must not speculate (the engine gates on
        this).
        """
        if keep_blocks < 0:
            raise ValueError("keep_blocks must be >= 0")
        if keep_blocks >= len(self._pages):
            return 0
        dropped = self._pages[keep_blocks:]
        del self._pages[keep_blocks:]
        self._pages_array = None
        self._fp_frontier = min(self._fp_frontier, keep_blocks - 1)
        freed = 0
        for page in dropped:
            if page != self._MISSING:
                freed += 1 if self.pool.refcount(page) == 1 else 0
                self.pool.decref(page)
        return freed

    def detach(self) -> Tuple[int, ...]:
        """Empty the table and hand its page references to the caller.

        No refcounts change: ownership of one reference per returned page
        transfers to the caller (e.g. to wrap in a
        :class:`SharedKVPages`).  Raises if any block is unallocated —
        a page run with holes cannot be addressed contiguously.
        """
        if any(page == self._MISSING for page in self._pages):
            raise RuntimeError("cannot detach a block table with holes")
        pages, self._pages = tuple(self._pages), []
        self._pages_array = None
        self._fp_frontier = -1
        self._fp_demote_from = 0
        return pages

    # ------------------------------------------------------------------
    def _writable(self, slot: int) -> Tuple[int, int]:
        if slot < 0:
            raise IndexError("slot must be >= 0")
        block, offset = divmod(slot, self.pool.page_size)
        while len(self._pages) <= block:
            self._pages.append(self._MISSING)
            self._pages_array = None
        page = self._pages[block]
        if page == self._MISSING:
            page = self.pool.alloc()
            self._pages[block] = page
            self._pages_array = None
            self._apply_mixed_precision(block, page)
        elif self.pool.is_shared(page):
            split = self.pool.copy_page(page)
            self.pool.decref(page)
            self._pages[block] = split
            page = split
            self._pages_array = None
        return page, offset

    def _apply_mixed_precision(self, block: int, page: int) -> None:
        """Promote a freshly allocated block / demote ones leaving the window.

        Sink blocks (``block < sink_pages``) are pinned full precision
        forever.  With a recent window every fresh block starts full
        precision (it *is* the frontier) and blocks that fall out of the
        highest ``recent_pages`` are demoted — except shared pages, whose
        sharers must keep reading identical rows.
        """
        mp = self.pool.mixed_precision
        if mp is None or not mp.enabled:
            return
        if block < mp.sink_pages or mp.recent_pages > 0:
            self.pool.mark_page_fp(page)
        if mp.recent_pages > 0 and block > self._fp_frontier:
            self._fp_frontier = block
            limit = block - mp.recent_pages  # highest block now out of window
            start = max(mp.sink_pages, self._fp_demote_from)
            for b in range(start, limit + 1):
                if b >= len(self._pages):
                    break
                p = self._pages[b]
                if p != self._MISSING and not self.pool.is_shared(p):
                    self.pool.demote_page_fp(p)
            self._fp_demote_from = max(self._fp_demote_from, limit + 1)

    def locate(self, slots: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Resolve logical slots into parallel ``(pages, offsets)`` arrays.

        The pool-level address form consumed by
        :meth:`PagedKVPool.gather_keys` / :meth:`~PagedKVPool.gather_values`
        — and by :func:`resolve_padded`, which concatenates the addresses
        of many tables sharing one pool into a single arena gather.
        """
        slots = np.asarray(slots, dtype=np.int64)
        blocks = slots // self.pool.page_size
        offsets = slots - blocks * self.pool.page_size
        table = self._pages_array
        if table is None:
            table = np.asarray(self._pages, dtype=np.int64)
            self._pages_array = table
        if slots.size and (blocks.max(initial=-1) >= table.size):
            raise IndexError("gather of a slot beyond the block table")
        pages = table[blocks] if table.size else blocks.copy()
        if slots.size and (pages == self._MISSING).any():
            raise ValueError("gather of a slot whose page was never written")
        return pages, offsets


@dataclass(frozen=True)
class PaddedAddresses:
    """Resolved arena addresses of a padded multi-sequence read.

    Built once per group by :func:`resolve_padded`.  Members are bucketed
    by backing pool; each bucket holds its member rows and 2-D padded
    ``(page, offset)`` index arrays ``[m, T]``, whose padding tail aliases
    the member's own first page (a guaranteed-allocated address whose data
    consumers mask).  :meth:`keys` / :meth:`values` read a tensor at those
    addresses — one fancy-indexed arena gather per bucket — and
    :meth:`take` narrows every row to chosen columns, so a caller can read
    K over all rows and V over a selected subset without resolving any
    block table twice.
    """

    lengths: np.ndarray
    buckets: Tuple[Tuple[PagedKVPool, List[int], np.ndarray, np.ndarray], ...]

    def keys(self) -> np.ndarray:
        """Key rows ``[S, T, h, d]`` in the pools' compute dtype."""
        return self._read("gather_keys")

    def values(self) -> np.ndarray:
        """Value rows ``[S, T, h, d]`` in the pools' compute dtype."""
        return self._read("gather_values")

    def take(self, columns: np.ndarray, lengths: np.ndarray) -> "PaddedAddresses":
        """Addresses of ``columns [S, k]`` of every row, valid up to ``lengths``.

        Column indices must lie below the padded width; entries at or
        beyond ``lengths[s]`` are padding (they still address an allocated
        row, which readers poison in debug mode and consumers mask).
        """
        columns = np.asarray(columns, dtype=np.int64)
        return PaddedAddresses(
            lengths=np.asarray(lengths, dtype=np.int64),
            buckets=tuple(
                (
                    pool,
                    rows,
                    np.take_along_axis(pages, columns[rows], axis=1),
                    np.take_along_axis(offsets, columns[rows], axis=1),
                )
                for pool, rows, pages, offsets in self.buckets
            ),
        )

    def _read(self, gather: str) -> np.ndarray:
        out: Optional[np.ndarray] = None
        for pool, rows, pages, offsets in self.buckets:
            rows_read = getattr(pool, gather)(pages, offsets)  # [m, T, h, d]
            if _POISON_PADDING:
                for i, row in enumerate(rows):
                    rows_read[i, int(self.lengths[row]) :] = np.nan
            if len(self.buckets) == 1:
                # All sequences share one arena (the serving layout): the
                # gather result *is* the padded tensor — zero extra copies.
                return rows_read
            if out is None:
                out = np.empty(
                    (self.lengths.size,) + rows_read.shape[1:], dtype=pool.dtype
                )
            out[rows] = rows_read
        return out


def resolve_padded(
    tables: Sequence[BlockTable],
    slot_lists: Sequence[Sequence[int]],
) -> PaddedAddresses:
    """Resolve a multi-sequence read into padded per-pool addresses.

    ``tables[s]`` is sequence ``s``'s block table and ``slot_lists[s]`` the
    slots to read, in the order the sequence's policy wants them; row
    ``s`` of every tensor read through the result holds those slots, padded
    to the longest member.  On the serving engine's shared per-layer arena
    the whole group is one bucket, so each read is a single arena gather.
    """
    if len(tables) != len(slot_lists):
        raise ValueError("tables and slot_lists must agree on batch size")
    if not tables:
        raise ValueError("a padded read requires at least one sequence")
    slot_arrays = [np.asarray(s, dtype=np.int64) for s in slot_lists]
    lengths = np.asarray([s.size for s in slot_arrays], dtype=np.int64)
    t_max = int(lengths.max())
    pool0 = tables[0].pool
    by_pool: Dict[int, Tuple[PagedKVPool, list]] = {}
    for row, (table, slots) in enumerate(zip(tables, slot_arrays)):
        if table.pool.num_heads != pool0.num_heads or (
            table.pool.head_dim != pool0.head_dim
        ):
            raise ValueError("all pools must share the K/V row geometry")
        if table.pool.dtype != pool0.dtype:
            # A silent cast here would make the padded tensor diverge from
            # what each member's own gather returns.  (Storage codecs may
            # differ — gathers already return the compute dtype.)
            raise ValueError("all pools must share the compute dtype")
        by_pool.setdefault(id(table.pool), (table.pool, []))[1].append(
            (row, table, slots)
        )

    buckets = []
    for pool, members in by_pool.values():
        pages = np.empty((len(members), t_max), dtype=np.int64)
        offsets = np.empty((len(members), t_max), dtype=np.int64)
        for i, (_row, table, slots) in enumerate(members):
            size = slots.size
            member_pages, member_offsets = table.locate(slots)
            pages[i, :size] = member_pages
            offsets[i, :size] = member_offsets
            if size < t_max:
                pages[i, size:] = member_pages[0] if size else 0
                offsets[i, size:] = 0
        buckets.append((pool, [row for row, _t, _s in members], pages, offsets))
    return PaddedAddresses(lengths=lengths, buckets=tuple(buckets))


def gather_padded(
    tables: Sequence[BlockTable],
    slot_lists: Sequence[Sequence[int]],
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Batched multi-sequence gather into padded ``[S, T_max, h, d]`` tensors.

    :func:`resolve_padded` followed by a read of both K and V at the full
    addresses — the form consumers that attend every cached row use.
    Standalone policies with private pools degrade gracefully to one
    gather per pool.

    Returns ``(keys [S, T, h, d], values [S, T, h, d], lengths [S])`` in
    the pools' *compute* dtype — quantised arenas dequantise inside the
    per-pool gather (one vectorised decode over the whole padded block),
    so group-decode consumers are codec-agnostic.  Rows at or beyond
    ``lengths[s]`` hold **arbitrary pool data**: consumers must mask the
    tail — every batched group consumer scores padding ``-inf`` (softmax
    weight exactly ``0.0``) or slices ``[:lengths[s]]``, so padded garbage
    can never reach an output.  With :func:`set_poison_padding` (or
    ``REPRO_POISON_PADDING=1``) the padding tail is overwritten with NaN so
    an unmasked read fails loudly.
    """
    addresses = resolve_padded(tables, slot_lists)
    return addresses.keys(), addresses.values(), addresses.lengths


class PagedKVStore:
    """Growable position-keyed K/V store over a paged pool.

    This is the storage substrate of the append-mostly policies (full
    cache, StreamingLLM, H2O, SnapKV, Quest): K/V rows are keyed by logical
    token position, slots are recycled LIFO after :meth:`drop`, and reads
    gather rows in whatever order the policy asks for, so each policy keeps
    its own ordering semantics bit-for-bit.

    Without an explicit ``pool`` the store owns a private growable pool —
    behaviourally identical to the dense per-policy arrays it replaces.
    """

    def __init__(
        self,
        num_heads: int,
        head_dim: int,
        pool: Optional[PagedKVPool] = None,
        page_size: int = DEFAULT_PAGE_SIZE,
        dtype: np.dtype = np.float64,
        codec: CodecSpec = None,
        mixed_precision: Optional[MixedPrecisionConfig] = None,
    ) -> None:
        if pool is None:
            pool = PagedKVPool(
                page_size,
                num_heads,
                head_dim,
                dtype=dtype,
                codec=codec,
                mixed_precision=mixed_precision,
            )
        elif pool.num_heads != num_heads or pool.head_dim != head_dim:
            raise ValueError(
                "pool geometry "
                f"({pool.num_heads}, {pool.head_dim}) does not match store "
                f"({num_heads}, {head_dim})"
            )
        self.pool = pool
        self._table = BlockTable(pool)
        self._slot_of: Dict[int, int] = {}
        self._free_slots: List[int] = []
        self._high_water = 0
        self._ever_freed = False

    def __len__(self) -> int:
        return len(self._slot_of)

    def __contains__(self, position: int) -> bool:
        return int(position) in self._slot_of

    def positions(self) -> List[int]:
        """Stored positions in insertion order."""
        return list(self._slot_of)

    @property
    def block_table(self) -> BlockTable:
        """The slot -> pool-page mapping (for batched group gathers)."""
        return self._table

    @property
    def insertion_slots_are_sequential(self) -> bool:
        """True while no slot has ever been recycled.

        Slots are assigned sequentially, so until the first :meth:`drop`
        the ``i``-th inserted position lives in slot ``i`` — an
        insertion-order gather can address slots ``0..len-1`` directly,
        skipping the per-position map walk (the group-decode hot path of
        the append-only policies).
        """
        return not self._ever_freed

    def slots_of(self, positions: Sequence[int]) -> np.ndarray:
        """Physical slots of ``positions``, in exactly the order given.

        Paired with :attr:`block_table`, this lets
        :func:`gather_padded` read many sequences' rows with one pool
        gather instead of one :meth:`gather` per sequence.
        """
        return np.fromiter(
            map(self._slot_of.__getitem__, map(int, positions)),
            dtype=np.int64,
            count=len(positions),
        )

    def pages_held(self) -> int:
        return self._table.pages_held()

    def memory_bytes(self) -> int:
        return self.pages_held() * self.pool.page_bytes

    def resident_bytes(self) -> int:
        """Codec-true storage cost of the held pages (incl. fp overlays)."""
        return self._table.resident_bytes()

    # ------------------------------------------------------------------
    def put(self, position: int, key: np.ndarray, value: np.ndarray) -> None:
        """Insert or overwrite the K/V row of ``position``."""
        position = int(position)
        slot = self._slot_of.get(position)
        if slot is None:
            slot = self._free_slots.pop() if self._free_slots else self._next_slot()
            self._slot_of[position] = slot
        self._table.write(slot, key, value)

    def bulk_append(
        self, positions: Sequence[int], keys: np.ndarray, values: np.ndarray
    ) -> None:
        """Insert many *new* positions at once (the prefill bulk load).

        Requires a store with no recycled free slots so the rows land in
        consecutive slots and can be written one page-span at a time.
        """
        if self._free_slots:
            raise RuntimeError("bulk_append requires a store without free slots")
        if len(positions) != keys.shape[0] or keys.shape != values.shape:
            raise ValueError("positions, keys and values must agree on length")
        start = self._high_water
        for i, position in enumerate(positions):
            position = int(position)
            if position in self._slot_of:
                raise ValueError(f"position {position} already stored")
            self._slot_of[position] = start + i
        self._high_water = start + len(positions)
        self._table.write_span(start, keys, values)

    def drop(self, position: int) -> None:
        """Forget ``position`` and recycle its slot."""
        slot = self._slot_of.pop(int(position))
        self._free_slots.append(slot)
        self._ever_freed = True

    def rollback_append(self, positions: Sequence[int]) -> int:
        """Forget recently appended ``positions``; return pool pages freed.

        The speculative-decode rollback: draft rows were appended with
        :meth:`put` / :meth:`bulk_append` into the slots at the top of the
        store, and a rejected draft must leave the store *exactly* as if
        those rows were never written.  When the positions occupy the
        contiguous slot tail below the high-water mark (the invariant an
        append-only store upholds), the tail is truncated in place — the
        high-water mark rewinds, now-empty trailing blocks are dropped
        (decref'ing their pages, which frees fresh speculative pages and
        releases CoW references alike), and crucially
        :attr:`insertion_slots_are_sequential` is preserved, unlike
        per-position :meth:`drop` which recycles slots through the free
        list forever.  Positions that do not form the slot tail (a store
        that has evicted mid-speculation) fall back to :meth:`drop` each —
        correct, but no pages are reclaimed until release.
        """
        if not positions:
            return 0
        slots = sorted(self._slot_of[int(p)] for p in positions)
        n = len(slots)
        contiguous_tail = (
            not self._free_slots
            and slots[0] == self._high_water - n
            and slots[-1] == self._high_water - 1
            and len(set(slots)) == n
        )
        if not contiguous_tail:
            for position in positions:
                self.drop(position)
            return 0
        for position in positions:
            del self._slot_of[int(position)]
        self._high_water -= n
        keep_blocks = -(-self._high_water // self.pool.page_size)
        return self._table.trim_blocks(keep_blocks)

    def gather(
        self, positions: Sequence[int]
    ) -> Tuple[np.ndarray, np.ndarray]:
        """``(keys [n, h, d], values)`` in exactly the order given."""
        return self._table.gather(self.slots_of(positions))

    def adopt_prefix(self, shared: SharedKVPages) -> None:
        """Zero-copy adoption of a shared prefix covering positions 0..p-1.

        The store must be empty; position ``i`` maps to slot ``i`` for the
        adopted run, so later appends continue seamlessly at slot ``p`` —
        the first write into the final partial page CoW-splits it.
        """
        if self._slot_of or self._free_slots or self._high_water:
            raise RuntimeError("adopt_prefix requires an empty store")
        self._table.adopt(shared)
        self._slot_of = {pos: pos for pos in range(shared.length)}
        self._high_water = shared.length

    def can_adopt(self, shared: Optional[SharedKVPages]) -> bool:
        """Whether :meth:`adopt_prefix` would be a zero-copy pool share."""
        return (
            shared is not None
            and shared.pool is self.pool
            and not self._slot_of
            and not self._free_slots
            and not self._high_water
        )

    def append_page_demand(self) -> int:
        """Pages the next :meth:`put` of a new position could allocate."""
        slot = self._free_slots[-1] if self._free_slots else self._high_water
        return 1 if self._table.would_allocate(slot) else 0

    def shared_page_count(self) -> int:
        """Held pages currently shared with another table or cache entry."""
        return self._table.shared_page_count()

    def append_cow_risk(self) -> int:
        """1 when the next new-position write lands in a *shared* block.

        Append-only stores (full cache, Quest) never rewrite old rows, so
        the only copy-on-write a future append can trigger is the split of
        the partial block the next write goes into; fully covered shared
        prefix pages below it are never touched.  Admission control uses
        this instead of counting every shared page as a potential split.
        """
        slot = self._free_slots[-1] if self._free_slots else self._high_water
        return 1 if self._table.block_is_shared(slot) else 0

    def share_prefix(self, length: int) -> Optional[SharedKVPages]:
        """Refcounted handle to the pool pages holding positions ``0..length-1``.

        Returns ``None`` unless those positions are identity-mapped onto the
        table's first slots (the layout produced by a from-empty prefill or
        prefix adoption) — only then do the first blocks form a contiguous
        page run another sequence could adopt.  On success the returned
        handle *owns one reference per page* (this store keeps its own), so
        the run survives this store's release; the caller must eventually
        ``decref()`` it.
        """
        if length < 1 or length > self._high_water:
            return None
        for pos in range(length):
            if self._slot_of.get(pos) != pos:
                return None
        blocks = math.ceil(length / self.pool.page_size)
        try:
            pages = self._table.page_run(blocks)
        except RuntimeError:
            return None
        shared = SharedKVPages(self.pool, pages, length)
        shared.incref()
        return shared

    def clear(self) -> None:
        """Release every page and forget all positions (idempotent)."""
        self._table.release()
        self._slot_of = {}
        self._free_slots = []
        self._high_water = 0
        self._ever_freed = False

    release = clear

    # ------------------------------------------------------------------
    def _next_slot(self) -> int:
        slot = self._high_water
        self._high_water += 1
        return slot


class KVPoolGroup:
    """One :class:`PagedKVPool` per transformer layer.

    The serving engine owns a group sized from a byte budget and hands
    layer ``i``'s pool to every sequence's layer-``i`` policy, so all
    sequences (and the prefix cache) share the same fixed arena per layer.
    """

    def __init__(
        self,
        num_layers: int,
        page_size: int,
        num_heads: int,
        head_dim: int,
        num_pages: Optional[int] = None,
        dtype: np.dtype = np.float64,
        codec: CodecSpec = None,
        mixed_precision: Optional[MixedPrecisionConfig] = None,
        allocator: Optional[ArenaAllocator] = None,
    ) -> None:
        if num_layers < 1:
            raise ValueError("num_layers must be >= 1")
        codec_obj = resolve_codec(codec, np.dtype(dtype))
        self.pools = [
            PagedKVPool(
                page_size,
                num_heads,
                head_dim,
                num_pages=num_pages,
                dtype=dtype,
                codec=codec_obj,
                mixed_precision=mixed_precision,
                allocator=allocator,
            )
            for _ in range(num_layers)
        ]

    @classmethod
    def from_byte_budget(
        cls,
        num_layers: int,
        page_size: int,
        num_heads: int,
        head_dim: int,
        total_bytes: int,
        dtype: np.dtype = np.float64,
        codec: CodecSpec = None,
        mixed_precision: Optional[MixedPrecisionConfig] = None,
        allocator: Optional[ArenaAllocator] = None,
    ) -> "KVPoolGroup":
        """Fixed per-layer pools splitting ``total_bytes`` evenly.

        Page cost comes from the storage codec, so at int8/int4 the same
        budget yields ~4x/8x the pages of the fp64 default.
        """
        codec_obj = resolve_codec(codec, np.dtype(dtype))
        page_bytes = page_size * codec_obj.kv_row_bytes(num_heads, head_dim)
        per_layer = int(total_bytes) // num_layers
        num_pages = max(1, per_layer // page_bytes)
        return cls(
            num_layers, page_size, num_heads, head_dim,
            num_pages=num_pages, dtype=dtype,
            codec=codec_obj, mixed_precision=mixed_precision,
            allocator=allocator,
        )

    @property
    def num_layers(self) -> int:
        return len(self.pools)

    @property
    def page_size(self) -> int:
        return self.pools[0].page_size

    def layer(self, index: int) -> PagedKVPool:
        return self.pools[index]

    @property
    def codec(self):
        """The (uniform) storage codec of the group's pools."""
        return self.pools[0].codec

    def stats(self) -> Dict[str, object]:
        """Aggregate telemetry across all layers."""
        out: Dict[str, object] = {
            "pages_total": 0,
            "pages_free": 0,
            "pages_in_use": 0,
            "peak_pages_in_use": 0,
            "bytes_total": 0,
            "bytes_in_use": 0,
            "page_allocs": 0,
            "page_frees": 0,
            "cow_splits": 0,
            "prefix_pages_adopted": 0,
            "gathers": 0,
            "fp_pages_in_use": 0,
            "fp_promotions": 0,
            "fp_demotions": 0,
        }
        for pool in self.pools:
            out["pages_total"] += pool.total_pages
            out["pages_free"] += pool.free_pages
            out["pages_in_use"] += pool.pages_in_use
            out["peak_pages_in_use"] += pool.stats.peak_pages_in_use
            out["bytes_total"] += pool.bytes_total
            out["bytes_in_use"] += pool.bytes_in_use
            out["page_allocs"] += pool.stats.page_allocs
            out["page_frees"] += pool.stats.page_frees
            out["cow_splits"] += pool.stats.cow_splits
            out["prefix_pages_adopted"] += pool.stats.prefix_pages_adopted
            out["gathers"] += pool.stats.gathers
            out["fp_pages_in_use"] += pool.fp_pages_in_use
            out["fp_promotions"] += pool.stats.fp_promotions
            out["fp_demotions"] += pool.stats.fp_demotions
        pool0 = self.pools[0]
        out["codec"] = pool0.codec.name
        # Effective storage cost per cached token, scale metadata included.
        out["bytes_per_token"] = pool0.page_bytes / pool0.page_size
        in_use = out["pages_in_use"]
        out["fp_page_fraction"] = (
            out["fp_pages_in_use"] / in_use if in_use else 0.0
        )
        return out


__all__ = [
    "DEFAULT_PAGE_SIZE",
    "ArenaAllocator",
    "AttachedArena",
    "BlockTable",
    "CodecSpec",
    "KVPoolGroup",
    "MixedPrecisionConfig",
    "PagedKVPool",
    "PaddedAddresses",
    "PagedKVStore",
    "PoolExhaustedError",
    "PoolStats",
    "SharedArenaAllocator",
    "SharedKVPages",
    "arena_allocator",
    "current_arena_allocator",
    "gather_padded",
    "resolve_padded",
    "resolve_codec",
]
