"""Common interface for KV cache management policies.

Every pruning strategy in this library — the paper's hybrid static-dynamic
scheme (:class:`repro.core.hybrid.UniCAIMPolicy`) and the baselines it is
compared against (full cache, StreamingLLM, H2O, SnapKV, Quest-like) — is a
:class:`KVCachePolicy`.  The transformer substrate
(:mod:`repro.llm.attention_layer`) delegates the decoding-stage attention of
each head group to a policy instance, so the same model can be evaluated
under any policy by swapping one object.

Protocol
--------
1. The prompt's KV tensors (shape ``[n, h, d]``) arrive once, and the
   policy decides which prompt tokens to retain.  A policy whose
   retention reads the prefill attention declares a
   :attr:`~KVCachePolicy.prefill_need`
   (:class:`~repro.core.static_pruning.PrefillNeed`: softmax or raw column
   sums, optionally over an observation window only); the model streams
   exactly those per-token sums out of its prefill attention and hands
   them over as ``token_scores`` ``[n]``
   (:meth:`~KVCachePolicy.prefill_precomputed` /
   :meth:`~KVCachePolicy.prefill_extend`).  Standalone callers may instead
   pass a raw ``[h, n, n]`` score matrix to :meth:`~KVCachePolicy.prefill`,
   which reduces it through the same accumulator.
2. ``decode_step(query, key, value, position)`` is called for every
   generated token with the current query, the new token's key/value and its
   logical position.  The policy inserts the new KV pair (possibly evicting
   another), selects which cached tokens participate in attention, computes
   the sparse attention output and returns it together with bookkeeping
   information.

Paged storage
-------------
Every policy stores its K/V rows through the paged arena of
:mod:`repro.core.kv_pool`.  Standalone policies own private growable pools
(behaviourally identical to dense per-policy arrays); the serving engine
calls :meth:`KVCachePolicy.attach_pool` right after construction to rebind
a freshly built policy onto the engine's shared per-layer arena, which is
what lets sequences share pages (prefix reuse, on-demand allocation,
page-gated admission).  :meth:`release_kv` hands the pages back when the
sequence retires; :meth:`max_cached_tokens` / :meth:`max_kv_pages` bound a
request's lifetime page demand for admission control.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from .attention import attention_output, causal_prefix_attention
from .group_decode import batched_group_attention, gather_group_kv
from .kv_pool import PagedKVPool, PagedKVStore, SharedKVPages, put_group
from .static_pruning import PrefillNeed, accumulated_scores_from_attention


@dataclass
class StepRecord:
    """Bookkeeping for one decoding step, used by the evaluation harness."""

    position: int
    cache_size: int
    num_attended: int
    evicted_position: Optional[int] = None
    selected_positions: Optional[np.ndarray] = None


@dataclass
class PolicyStats:
    """Aggregate statistics accumulated over a generation."""

    prefill_tokens: int = 0
    retained_after_prefill: int = 0
    prefill_reused_tokens: int = 0
    decode_steps: int = 0
    total_attended: int = 0
    total_evictions: int = 0
    peak_cache_size: int = 0
    records: List[StepRecord] = field(default_factory=list)

    @property
    def mean_attended(self) -> float:
        if self.decode_steps == 0:
            return 0.0
        return self.total_attended / self.decode_steps

    @property
    def prefill_compression(self) -> float:
        if self.prefill_tokens == 0:
            return 1.0
        return self.retained_after_prefill / self.prefill_tokens

    def record(self, step: StepRecord) -> None:
        self.records.append(step)
        self.decode_steps += 1
        self.total_attended += step.num_attended
        if step.evicted_position is not None:
            self.total_evictions += 1
        self.peak_cache_size = max(self.peak_cache_size, step.cache_size)


@dataclass
class SpeculationState:
    """Staged (uncommitted) state of an in-flight speculative decode.

    Created by :meth:`KVCachePolicy.begin_speculation`, consumed by
    :meth:`KVCachePolicy.commit_speculation`.  ``positions`` are the
    staged rows' logical positions (ascending), ``records`` the
    :class:`StepRecord` each row *would* contribute if committed; backends
    stash any extra deferred side effects (e.g. H2O score-accumulation
    deltas) in ``extra``.
    """

    positions: List[int]
    records: List[StepRecord]
    extra: Optional[object] = None


class KVCachePolicy(ABC):
    """Abstract base class for KV cache pruning policies."""

    def __init__(self, num_heads: int, head_dim: int, scale: Optional[float] = None) -> None:
        if num_heads < 1 or head_dim < 1:
            raise ValueError("num_heads and head_dim must be >= 1")
        self.num_heads = int(num_heads)
        self.head_dim = int(head_dim)
        self.scale = scale if scale is not None else 1.0 / float(head_dim) ** 0.5
        self.stats = PolicyStats()
        self.kv_pool: Optional[PagedKVPool] = None
        self._spec: Optional[SpeculationState] = None

    # -- required interface -------------------------------------------------
    @abstractmethod
    def _prefill_from_scores(
        self,
        keys: np.ndarray,
        values: np.ndarray,
        token_scores: Optional[np.ndarray],
    ) -> None:
        """Ingest the prompt KV cache and apply any prefill-time pruning.

        ``token_scores`` ``[n]`` are the accumulated per-token scores of
        :attr:`prefill_need` (``None`` when the policy declares none or the
        caller has no attention to offer).
        """

    @property
    def prefill_need(self) -> Optional[PrefillNeed]:
        """The column sums this policy's prefill pruning reads (default:
        none — retention that ignores the prefill attention)."""
        return None

    def prefill(
        self,
        keys: np.ndarray,
        values: np.ndarray,
        attention_matrix: Optional[np.ndarray] = None,
    ) -> None:
        """Standalone prefill from a raw scaled score matrix ``[h, n, n]``.

        The matrix is reduced to :attr:`prefill_need`'s per-token scores by
        :func:`~repro.core.static_pruning.accumulated_scores_from_attention`
        — the same accumulator the model's streaming prefill folds into.
        """
        need = self.prefill_need
        token_scores = None
        if attention_matrix is not None and need is not None:
            token_scores = accumulated_scores_from_attention(
                attention_matrix,
                use_softmax=need.softmax,
                observation_window=need.window,
            )
        self._prefill_from_scores(keys, values, token_scores)

    @abstractmethod
    def decode_step(
        self,
        query: np.ndarray,
        key: np.ndarray,
        value: np.ndarray,
        position: int,
    ) -> np.ndarray:
        """Process one generated token and return the attention output [h, d]."""

    def decode_step_group(
        self,
        queries: np.ndarray,
        keys: np.ndarray,
        values: np.ndarray,
        positions: Sequence[int],
        group: Sequence["KVCachePolicy"],
    ) -> Optional[np.ndarray]:
        """One *vectorized* decode step for a policy-homogeneous group.

        ``group`` holds the per-sequence policy instances of one decode
        span (``self`` is ``group[0]``); ``queries``/``keys``/``values``
        are the stacked per-sequence projections ``[S, h, d]`` and
        ``positions[s]`` the logical position of member ``s``'s new token.
        An override must be observably equivalent to ``S`` independent
        :meth:`decode_step` calls — same outputs, same stored rows, same
        :class:`PolicyStats` — it only batches the math, and must return
        ``None`` *before* mutating any member state if it cannot serve the
        group (the caller then falls back to the per-sequence loop).

        The base implementation returns ``None`` (no vectorized path), so
        policies without an override keep working through the loop; see
        :func:`repro.core.group_decode.supports_group_decode` for the
        subclass-safety rule applied by the dispatcher.
        """
        return None

    @abstractmethod
    def cached_positions(self) -> np.ndarray:
        """Logical positions currently held in the cache."""

    # -- paged-storage interface --------------------------------------------
    def attach_pool(self, pool: PagedKVPool) -> None:
        """Rebind this (still empty) policy's KV storage onto a shared arena.

        Must be called before the first ``prefill``; rebinding a policy
        that already stores tokens would orphan its pages.
        """
        if self.cache_size() > 0:
            raise RuntimeError(
                "attach_pool requires an empty policy (call it right after "
                "construction, before prefill)"
            )
        self.kv_pool = pool
        self._on_pool_attached(pool)

    def _on_pool_attached(self, pool: PagedKVPool) -> None:
        """Subclass hook: move the policy's storage onto ``pool``."""

    def release_kv(self) -> None:
        """Return every held pool page; stats stay valid after release."""

    def exact_resume_by_reprefill(
        self, prompt_len: int, resumed_len: int, final_len: int
    ) -> bool:
        """Whether preemption may rebuild this policy by *re-prefilling*.

        When the serving engine preempts a sequence it releases every
        page and later resumes from nothing but token ids.  The fast
        resume path re-prefills ``prompt + generated_so_far`` as one
        prompt of ``resumed_len`` tokens; returning ``True`` asserts that
        this reconstructs — bit for bit — the cache and hidden states the
        policy would hold had it decoded those tokens one step at a
        time.  The model computes prefill hidden states with full dense
        causal attention, so the equivalence holds exactly when every
        pre-preemption decode step also attended to a complete cache:
        any eviction or sparse selection up to the preemption point (or,
        for score-accumulating policies, up to the worst-case
        ``final_len``) breaks it.  The default is ``False``: the engine
        then re-prefills only the prompt and *replays* the recorded
        tokens through the normal decode path — always exact, one step
        per token.
        """
        return False

    # -- speculative decoding -----------------------------------------------
    def supports_speculation(
        self, prompt_len: int, spec_end_len: int, final_len: int
    ) -> bool:
        """Whether k-token speculative decode stays exact for this policy.

        The engine verifies a k-token draft chunk in one forward, then
        *rolls back* the rows of rejected drafts.  Returning ``True``
        certifies that :meth:`begin_speculation` +
        :meth:`commit_speculation` reproduce — bit for bit — the cache
        contents, attention outputs, accumulated scores and
        :class:`PolicyStats` that ``kept`` plain :meth:`decode_step` calls
        would have produced, for any ``kept``.  ``spec_end_len`` is the
        cache length if every draft were accepted; ``final_len`` the
        worst-case end-of-request length (score-accumulating policies must
        certify against it, exactly like :meth:`exact_resume_by_reprefill`).
        The default is ``False``: the engine then decodes this sequence one
        token at a time — always exact, never faster.
        """
        return False

    def begin_speculation(
        self,
        queries: np.ndarray,
        keys: np.ndarray,
        values: np.ndarray,
        start_position: int,
    ) -> np.ndarray:
        """Stage ``k`` draft rows and return their attention outputs.

        ``queries``/``keys``/``values`` are ``[k, h, d]`` — the projections
        of the k-token verify chunk, whose rows occupy logical positions
        ``start_position .. start_position+k-1``.  Row ``i`` must attend
        exactly as a serial :meth:`decode_step` at that position would
        (cache = committed rows + staged rows ``0..i``); the output is
        ``[k, h, d]``.  K/V rows are written into the store (fresh pages /
        CoW splits allocate normally) but **nothing observable commits**:
        positions lists, stats and score tables are untouched until
        :meth:`commit_speculation` decides how many rows survive.
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not support speculative decode"
        )

    def commit_speculation(self, kept: int) -> int:
        """Commit the first ``kept`` staged rows, roll back the rest.

        Applies the deferred side effects (positions, :class:`PolicyStats`
        records, score accumulation) of rows ``0..kept-1`` in order, then
        truncates rows ``kept..k-1`` out of the store via
        :meth:`~repro.core.kv_pool.PagedKVStore.rollback_append` — freeing
        any page allocated purely for rejected drafts.  Returns the number
        of pool pages freed.  Idempotent / safe with no speculation in
        flight (returns 0), which is the engine's abort path when a verify
        forward dies mid-layer.
        """
        if self._spec is not None:  # pragma: no cover — overridden by backends
            raise NotImplementedError(
                f"{type(self).__name__} staged speculation without a commit"
            )
        return 0

    def decode_page_demand(self) -> int:
        """Pages the next ``decode_step`` could pull from the shared pool."""
        return 0

    def speculative_page_demand(self, chunk_len: int) -> int:
        """Pages a ``chunk_len``-row verify chunk could pull from the pool.

        Conservative tail-append bound: the first row pays
        :meth:`decode_page_demand` (allocation or CoW split of the current
        tail block), and the remaining rows cross at most
        ``ceil((chunk_len-1)/page_size)`` further page boundaries.  Certified
        backends only speculate while they are in their pure-append regime
        (no evictions yet), so the bound is tight there; a rare shortfall is
        caught by the engine's verify-abort safety net rather than
        corrupting the batch.
        """
        demand = self.decode_page_demand()
        if chunk_len > 1 and self.kv_pool is not None:
            demand += math.ceil((chunk_len - 1) / self.kv_pool.page_size)
        return demand

    def kv_pages_held(self) -> int:
        """Pool pages this policy's storage currently references."""
        return 0

    def kv_shared_pages(self) -> int:
        """Held pages shared with other tables (potential CoW splits)."""
        return 0

    def kv_resident_bytes(self) -> int:
        """Codec-true bytes of the pool pages this policy holds.

        Quantised arenas report quantised storage (scale metadata and any
        mixed-precision fp overlay included), so per-sequence memory
        telemetry matches what the byte budget actually pays.
        """
        return 0

    def remaining_kv_pages(
        self, prompt_len: int, max_new_tokens: int, page_size: int
    ) -> int:
        """Upper bound on pages this policy could still *allocate* from the
        pool over the rest of the request's lifetime.

        This is the allocated-so-far-aware form of :meth:`max_kv_pages`:
        pages already held no longer need covering (they are out of the
        free list), and every held *shared* page may cost one more
        allocation when a write copy-on-write splits it.  The serving
        scheduler keeps ``sum(remaining) <= free_pages`` per layer, which
        preserves the run-to-completion guarantee while reclaiming the
        slack of the admission-time worst case as sequences progress.
        """
        worst = self.max_kv_pages(prompt_len, max_new_tokens, page_size)
        return max(0, worst - self.kv_pages_held()) + self.kv_shared_pages()

    def prompt_page_run(self, length: int) -> Optional[SharedKVPages]:
        """Refcounted pool-page run holding prompt rows ``0..length-1``.

        Policies that retain the whole prompt verbatim in pool pages return
        a handle (with one owned reference per page) that the prefix cache
        can store *by reference* instead of writing a second paged copy;
        everyone else returns ``None``.
        """
        return None

    @property
    def adopts_prefix_pages(self) -> bool:
        """Whether ``prefill_precomputed`` can zero-copy adopt shared pages."""
        return False

    def max_cached_tokens(self, prompt_len: int, max_new_tokens: int) -> int:
        """Upper bound on K/V rows this policy ever stores for one request.

        Includes any transient overshoot (insert-then-evict patterns).  The
        serving engine converts this into a page reservation at admission,
        which is what guarantees an admitted sequence can always complete
        without pool exhaustion.
        """
        return int(prompt_len) + int(max_new_tokens)

    def max_kv_pages(
        self, prompt_len: int, max_new_tokens: int, page_size: int
    ) -> int:
        """Page-count form of :meth:`max_cached_tokens`."""
        return math.ceil(
            self.max_cached_tokens(prompt_len, max_new_tokens) / int(page_size)
        )

    # -- shared helpers ------------------------------------------------------
    def prefill_precomputed(
        self,
        keys: np.ndarray,
        values: np.ndarray,
        token_scores: Optional[np.ndarray] = None,
        reused_tokens: int = 0,
        prefix_pages: Optional[SharedKVPages] = None,
    ) -> None:
        """Prefill from K/V and token scores computed by the model's prefill.

        This is the entry point of the batched padding-free prefill and the
        shared-prefix cache (:mod:`repro.serving.prefix_cache`): the caller
        supplies the full prompt's per-layer keys and values — of which
        the first ``reused_tokens`` rows were restored from a prefix cache
        rather than recomputed — and the accumulated per-token scores of
        :attr:`prefill_need`, and the policy applies exactly the same
        prefill-time pruning as :meth:`prefill`.  The reuse count is
        recorded on :attr:`stats` for observability; it does not change
        any pruning decision.

        ``prefix_pages`` optionally hands over the shared pool pages holding
        those reused rows.  Policies whose prefill retains the whole prompt
        (``adopts_prefix_pages``) install the pages into their block table
        instead of copying the rows — storage-level zero-copy; all others
        ignore the handle and copy only what they retain.  Either way the
        stored values are identical, so generation is unchanged.
        """
        if reused_tokens < 0:
            raise ValueError("reused_tokens must be >= 0")
        self._prefill_from_scores(keys, values, token_scores)
        self.stats.prefill_reused_tokens = int(reused_tokens)

    def prefill_extend(
        self,
        keys: np.ndarray,
        values: np.ndarray,
        token_scores: Optional[np.ndarray] = None,
        start: int = 0,
        final: bool = False,
        reused_tokens: int = 0,
        prefix_pages: Optional[SharedKVPages] = None,
    ) -> None:
        """Consume one chunk of an incrementally prefilled prompt.

        The chunked-prefill entry point: the caller hands over the
        *cumulative* prompt tensors after every chunk iteration — ``keys``/
        ``values`` of shape ``[m, h, d]`` covering every prompt token
        processed so far, of which rows ``start:`` are new since the
        previous call (``start`` is 0 on the first call).  ``final`` marks
        the last chunk; only then is the prompt complete, and only then do
        the accumulated ``token_scores`` ``[m]`` arrive (every query row
        has to be folded in before a column sum is final).

        The default defers all pruning to the final chunk and then runs the
        exact one-shot :meth:`prefill_precomputed`, so any policy is
        chunk-size-invariant *by construction* — selection that depends on
        whole-prompt statistics (H2O/SnapKV accumulated scores, UniCAIM
        heavy-token selection) cannot be applied per-chunk.  Backends whose
        retention rule is chunk-local (full cache, Quest, StreamingLLM)
        override this to move rows into pool storage as each chunk lands.
        """
        if start < 0:
            raise ValueError("start must be >= 0")
        if not final:
            return
        self.prefill_precomputed(
            keys,
            values,
            token_scores=token_scores,
            reused_tokens=reused_tokens,
            prefix_pages=prefix_pages,
        )

    def cache_size(self) -> int:
        return int(self.cached_positions().size)

    def reset(self) -> None:
        """Discard all cached state (a fresh instance is usually simpler)."""
        self.stats = PolicyStats()

    def _check_prefill_shapes(self, keys: np.ndarray, values: np.ndarray) -> None:
        keys = np.asarray(keys)
        values = np.asarray(values)
        expected_tail = (self.num_heads, self.head_dim)
        if keys.ndim != 3 or keys.shape[1:] != expected_tail:
            raise ValueError(
                f"prefill keys must have shape [n, {self.num_heads}, {self.head_dim}]"
            )
        if values.shape != keys.shape:
            raise ValueError("prefill values must match keys shape")

    def _check_step_shapes(
        self, query: np.ndarray, key: np.ndarray, value: np.ndarray
    ) -> None:
        expected = (self.num_heads, self.head_dim)
        for name, tensor in (("query", query), ("key", key), ("value", value)):
            if np.asarray(tensor).shape != expected:
                raise ValueError(f"{name} must have shape {expected}")

    def _make_store(self) -> PagedKVStore:
        """A K/V store on the attached shared pool (or a private one)."""
        return PagedKVStore(self.num_heads, self.head_dim, pool=self.kv_pool)

    def _stage_speculative_rows(
        self,
        store: PagedKVStore,
        keys: np.ndarray,
        values: np.ndarray,
        start_position: int,
    ) -> List[int]:
        """Write k draft K/V rows into ``store`` exactly as serial ``put``s.

        Returns the staged positions.  One
        :func:`~repro.core.kv_pool.put_group` assigns the slots k plain
        decode steps would have used (recycled ones included) and writes
        the rows with one claim pass and one pool write.
        """
        if self._spec is not None:
            raise RuntimeError("speculation already in flight (commit first)")
        staged = [int(start_position) + i for i in range(keys.shape[0])]
        try:
            put_group(
                [store] * len(staged),
                staged,
                np.asarray(keys, dtype=np.float64),
                np.asarray(values, dtype=np.float64),
            )
        except BaseException:
            # A failed write (e.g. pool exhaustion mid-chunk) must not leak
            # draft rows: policies that read positions back off the store
            # would attend them as if they were committed.
            store.rollback_append([pos for pos in staged if pos in store])
            raise
        return staged

    def _rollback_speculative_rows(self, store: PagedKVStore, kept: int) -> int:
        """Drop staged rows past ``kept`` from ``store``; clear the staging.

        Returns pages freed.  The shared tail of every backend's
        :meth:`commit_speculation` (the backend applies its deferred
        bookkeeping for the kept rows first).
        """
        spec = self._spec
        self._spec = None
        if spec is None:
            return 0
        return store.rollback_append(spec.positions[kept:])

    def _dense_speculation(
        self,
        store: PagedKVStore,
        base_order: Sequence[int],
        queries: np.ndarray,
        keys: np.ndarray,
        values: np.ndarray,
        start_position: int,
        insertion_ordered: bool = False,
    ) -> np.ndarray:
        """Staged dense-attention speculation shared by append-only backends.

        ``base_order`` is the position order the backend's serial
        ``decode_step`` gathers (insertion order for full cache / Quest,
        ascending for SnapKV / H2O, sinks+window for StreamingLLM) *before*
        the draft rows; staged positions are strictly larger, so row ``i``'s
        serial gather is exactly ``base_order + staged[:i+1]`` — one store
        gather up front, one batched
        :func:`~repro.core.attention.causal_prefix_attention` over the
        prefix slices, bit-identical to k serial steps.  A caller that
        *maintains* ``base_order`` as the store's insertion order may pass
        ``insertion_ordered=True`` to unlock the sequential-slot gather
        fast path.
        """
        queries = np.asarray(queries, dtype=np.float64)
        k = queries.shape[0]
        staged = self._stage_speculative_rows(
            store, np.asarray(keys), np.asarray(values), start_position
        )
        try:
            n0 = len(base_order)
            if (
                insertion_ordered
                and store.insertion_slots_are_sequential
                and n0 + k == len(store)
            ):
                # base_order + staged is the store's insertion order and no
                # slot was ever recycled, so the rows live in slots 0..n-1
                # verbatim — skip the per-position slot-map walk.
                all_k, all_v = store.block_table.gather(
                    np.arange(n0 + k, dtype=np.int64)
                )
            else:
                all_k, all_v = store.gather(list(base_order) + staged)
            outputs = causal_prefix_attention(
                queries, all_k, all_v, n0, scale=self.scale
            )
            records = [
                StepRecord(
                    position=staged[i], cache_size=n0 + i + 1,
                    num_attended=n0 + i + 1,
                )
                for i in range(k)
            ]
        except BaseException:
            store.rollback_append(staged)
            raise
        self._spec = SpeculationState(staged, records)
        return outputs


class WholePromptStoreMixin:
    """Shared storage behaviour of whole-prompt-retaining paged policies.

    Mixed into policies (full cache, Quest) that keep *every* prompt token
    verbatim in an append-only :class:`~repro.core.kv_pool.PagedKVStore`
    exposed as ``self._store`` with position bookkeeping in
    ``self._positions``.  Retention being the identity is what makes the
    whole surface shareable: one-shot and chunked prefill commit rows as
    they arrive (with zero-copy adoption of shared prefix pages), the
    remaining-page accounting only ever risks a copy-on-write split on the
    append tail block, and the stored prompt rows can be published to the
    prefix cache by reference (:meth:`prompt_page_run`).
    """

    def _on_pool_attached(self, pool: PagedKVPool) -> None:
        self._store = self._make_store()

    @property
    def adopts_prefix_pages(self) -> bool:
        return True

    def _prefill_from_scores(
        self,
        keys: np.ndarray,
        values: np.ndarray,
        token_scores: Optional[np.ndarray],
    ) -> None:
        self._load_prompt(keys, values, adopt=None)

    def prefill_precomputed(
        self,
        keys: np.ndarray,
        values: np.ndarray,
        token_scores: Optional[np.ndarray] = None,
        reused_tokens: int = 0,
        prefix_pages: Optional[SharedKVPages] = None,
    ) -> None:
        if reused_tokens < 0:
            raise ValueError("reused_tokens must be >= 0")
        self._load_prompt(keys, values, adopt=prefix_pages)
        self.stats.prefill_reused_tokens = int(reused_tokens)

    def prefill_extend(
        self,
        keys: np.ndarray,
        values: np.ndarray,
        token_scores: Optional[np.ndarray] = None,
        start: int = 0,
        final: bool = False,
        reused_tokens: int = 0,
        prefix_pages: Optional[SharedKVPages] = None,
    ) -> None:
        """Truly incremental: every chunk's rows go straight into the store.

        Retention is the identity, so each chunk can be committed as it
        lands — the final store content is position-for-position what the
        one-shot load produces.
        """
        if start < 0:
            raise ValueError("start must be >= 0")
        self._check_prefill_shapes(keys, values)
        keys = np.asarray(keys, dtype=np.float64)
        values = np.asarray(values, dtype=np.float64)
        n = keys.shape[0]
        if start == 0:
            self._store.clear()
            first = 0
            if (
                prefix_pages is not None
                and prefix_pages.length <= n
                and self._store.can_adopt(prefix_pages)
            ):
                self._store.adopt_prefix(prefix_pages)
                first = prefix_pages.length
            self._store.bulk_append(range(first, n), keys[first:], values[first:])
        else:
            self._store.bulk_append(range(start, n), keys[start:], values[start:])
        self._positions = list(range(n))
        self.stats.prefill_tokens = n
        self.stats.retained_after_prefill = n
        if final:
            self.stats.prefill_reused_tokens = int(reused_tokens)

    def _load_prompt(
        self,
        keys: np.ndarray,
        values: np.ndarray,
        adopt: Optional[SharedKVPages],
    ) -> None:
        self._check_prefill_shapes(keys, values)
        keys = np.asarray(keys, dtype=np.float64)
        values = np.asarray(values, dtype=np.float64)
        n = keys.shape[0]
        self._store.clear()
        start = 0
        if adopt is not None and adopt.length <= n and self._store.can_adopt(adopt):
            self._store.adopt_prefix(adopt)
            start = adopt.length
        self._store.bulk_append(range(start, n), keys[start:], values[start:])
        self._positions = list(range(n))
        self.stats.prefill_tokens = n
        self.stats.retained_after_prefill = n

    def cached_positions(self) -> np.ndarray:
        return np.asarray(self._positions, dtype=np.int64)

    def release_kv(self) -> None:
        self._store.release()
        self._positions = []

    def decode_page_demand(self) -> int:
        return self._store.append_page_demand()

    def kv_pages_held(self) -> int:
        return self._store.pages_held()

    def kv_shared_pages(self) -> int:
        return self._store.shared_page_count()

    def kv_resident_bytes(self) -> int:
        return self._store.resident_bytes()

    def remaining_kv_pages(
        self, prompt_len: int, max_new_tokens: int, page_size: int
    ) -> int:
        # Append-only: shared *full* prefix pages are never written, so the
        # only CoW risk is the partial block the next append lands in.
        worst = self.max_kv_pages(prompt_len, max_new_tokens, page_size)
        return (
            max(0, worst - self._store.pages_held())
            + self._store.append_cow_risk()
        )

    def prompt_page_run(self, length: int) -> Optional[SharedKVPages]:
        return self._store.share_prefix(length)

    def _group_insert(self, keys, values, positions, group):
        """Commit each member's new K/V row; return the group's read plan.

        One write for the span (:func:`~repro.core.kv_pool.put_group`:
        each sequence's block table still allocates / copy-on-write splits
        its own page).  Returns ``(tables, slot_lists)`` naming every
        member's stored rows in insertion order, for one padded group
        read — a single arena gather when the group shares the engine's
        per-layer pool.
        """
        put_group(
            [policy._store for policy in group],
            positions,
            np.asarray(keys, dtype=np.float64),
            np.asarray(values, dtype=np.float64),
        )
        for policy, position in zip(group, positions):
            policy._positions.append(int(position))
        tables = [policy._store.block_table for policy in group]
        slot_lists = []
        for policy in group:
            store = policy._store
            if store.insertion_slots_are_sequential:
                # ``_positions`` is the store's insertion order, so the
                # never-recycled store maps it onto slots 0..n-1 directly.
                slot_lists.append(
                    np.arange(len(policy._positions), dtype=np.int64)
                )
            else:
                slot_lists.append(store.slots_of(policy._positions))
        return tables, slot_lists

    def reset(self) -> None:
        super().reset()
        self._store.clear()
        self._positions = []


class FullCachePolicy(WholePromptStoreMixin, KVCachePolicy):
    """No pruning: every token is cached and attended to (dense attention).

    This is the accuracy upper bound ("full cache" curve in Fig. 13) and the
    cost upper bound ("no pruning" bars in Figs. 10-12).  K/V rows live in a
    paged store in insertion order (= position order); on a shared pool the
    policy zero-copy adopts prefix pages, since it retains the whole prompt
    verbatim.
    """

    def __init__(self, num_heads: int, head_dim: int, scale: Optional[float] = None) -> None:
        super().__init__(num_heads, head_dim, scale)
        self._store = self._make_store()
        self._positions: List[int] = []

    def exact_resume_by_reprefill(
        self, prompt_len: int, resumed_len: int, final_len: int
    ) -> bool:
        """Always: full-cache decode *is* dense attention over a complete
        cache, which is exactly what a re-prefill recomputes."""
        return True

    def decode_step(
        self,
        query: np.ndarray,
        key: np.ndarray,
        value: np.ndarray,
        position: int,
    ) -> np.ndarray:
        self._check_step_shapes(query, key, value)
        self._store.put(
            int(position),
            np.asarray(key, dtype=np.float64),
            np.asarray(value, dtype=np.float64),
        )
        self._positions.append(int(position))
        keys, values = self._store.gather(self._positions)
        output = attention_output(
            np.asarray(query, dtype=np.float64), keys, values, scale=self.scale
        )
        self.stats.record(
            StepRecord(
                position=int(position),
                cache_size=len(self._positions),
                num_attended=len(self._positions),
            )
        )
        return output

    def decode_step_group(
        self,
        queries: np.ndarray,
        keys: np.ndarray,
        values: np.ndarray,
        positions: Sequence[int],
        group: Sequence["KVCachePolicy"],
    ) -> Optional[np.ndarray]:
        """Vectorized full-cache decode: every member attends to all of its
        cached tokens, so the span is one padded gather plus one batched
        masked attention call."""
        gathered_k, gathered_v, lengths, valid = gather_group_kv(
            *self._group_insert(keys, values, positions, group)
        )
        scales = np.asarray([policy.scale for policy in group], dtype=np.float64)
        outputs, _ = batched_group_attention(
            queries, gathered_k, gathered_v, valid, scales=scales
        )
        for policy, position, size in zip(group, positions, lengths):
            policy.stats.record(
                StepRecord(
                    position=int(position),
                    cache_size=int(size),
                    num_attended=int(size),
                )
            )
        return outputs

    def supports_speculation(
        self, prompt_len: int, spec_end_len: int, final_len: int
    ) -> bool:
        """Always: appending draft rows never evicts, and rollback is a
        pure tail truncation of the append-only store."""
        return True

    def begin_speculation(
        self,
        queries: np.ndarray,
        keys: np.ndarray,
        values: np.ndarray,
        start_position: int,
    ) -> np.ndarray:
        return self._dense_speculation(
            self._store, self._positions, queries, keys, values,
            start_position, insertion_ordered=True,
        )

    def commit_speculation(self, kept: int) -> int:
        spec = self._spec
        if spec is None:
            return 0
        for position, record in zip(spec.positions[:kept], spec.records[:kept]):
            self._positions.append(position)
            self.stats.record(record)
        return self._rollback_speculative_rows(self._store, kept)


__all__ = [
    "KVCachePolicy",
    "FullCachePolicy",
    "PolicyStats",
    "SpeculationState",
    "StepRecord",
    "WholePromptStoreMixin",
]
