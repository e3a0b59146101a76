"""The paper's hybrid static-dynamic KV cache pruning policy.

:class:`UniCAIMPolicy` implements the algorithm of Sec. III-A end to end:

* **Prefill** — accumulated attention scores are computed over the prompt
  and only the ``H`` heaviest tokens are written into a fixed-capacity
  :class:`~repro.core.kv_cache.SlotKVCache` of ``H + M`` slots.
* **Decoding** — at every step the newly generated KV pair is written into
  a free slot; once all ``M`` reserved slots are in use, the token with the
  lowest accumulated attention score is statically evicted and the new KV
  pair is written into the freed slot (fixed cache size, in-place update).
  The current query's similarity against all cached keys is measured by a
  pluggable selector (exact, or the CAM-mode approximate selector), the
  top-``k`` tokens are dynamically selected, exact attention is computed
  over only those tokens, and the per-step scores are added to the
  accumulated-score table that drives future static evictions.

The selector abstraction lets the same policy run in "algorithm" mode
(exact scores, what a GPU implementation would do) or in "hardware" mode
(quantised CAM scores with sense noise), which is how the circuit-level and
application-level evaluations are tied together.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from .attention import sparse_attention_output, top_k_indices, top_k_rows
from .config import PruningConfig
from .dynamic_pruning import (
    CAMApproximateSelector,
    ExactTopKSelector,
    SelectionResult,
    TopKSelector,
)
from .group_decode import attend_selected, read_group_keys
from .kv_cache import SlotKVCache
from .policy import KVCachePolicy, StepRecord
from .static_pruning import (
    accumulated_scores_from_attention,
    select_heavy_tokens,
)


@dataclass
class EvictionEvent:
    """Record of one step-wise static eviction during decoding."""

    step: int
    evicted_position: int
    evicted_score: float
    incoming_position: int


class UniCAIMPolicy(KVCachePolicy):
    """Hybrid static-dynamic KV cache pruning (the paper's algorithm).

    Parameters
    ----------
    num_heads, head_dim:
        Geometry of the attention heads this policy serves.
    config:
        :class:`~repro.core.config.PruningConfig` with ``H``, ``M``, ``k``
        and the protection / accumulation options.
    selector:
        Top-k selector used for dynamic pruning.  Defaults to the exact
        selector; pass a :class:`~repro.core.dynamic_pruning.CAMApproximateSelector`
        to model the hardware's approximate CAM selection.
    scale:
        Softmax scale for the exact attention computation (default
        ``1/sqrt(head_dim)``).
    """

    #: Magnitude of the synthetic recency scores used when ``prefill`` is
    #: called without an attention map.  Small enough that one real decoding
    #: step's scores dominate it, large enough to survive float64 rounding.
    PREFILL_FALLBACK_EPSILON = 1e-6

    def __init__(
        self,
        num_heads: int,
        head_dim: int,
        config: Optional[PruningConfig] = None,
        selector: Optional[TopKSelector] = None,
        scale: Optional[float] = None,
    ) -> None:
        super().__init__(num_heads, head_dim, scale)
        self.config = config or PruningConfig()
        self.selector = selector or ExactTopKSelector()
        self.cache = SlotKVCache(
            capacity=self.config.cache_capacity,
            num_heads=num_heads,
            head_dim=head_dim,
        )
        self._cache_dtype = self.cache.dtype
        # Accumulated attention score per *physical cache slot*, aligned
        # with the cache arrays so the per-step update is one vector op
        # (the seed kept a Dict[int, float] keyed by token position and
        # updated it entry by entry in a Python loop).
        self._slot_scores = np.zeros(self.cache.capacity, dtype=np.float64)
        self._generated_count = 0
        self._prefill_length = 0
        self.eviction_log: list[EvictionEvent] = []

    # ------------------------------------------------------------------
    # Paged storage
    # ------------------------------------------------------------------
    def _on_pool_attached(self, pool) -> None:
        """Rebind the slot cache onto the engine's shared per-layer arena.

        The cache keeps its float32 write dtype regardless of the arena
        dtype, so quantisation (and therefore generation) is identical to
        the standalone dense layout.
        """
        self.cache = SlotKVCache(
            capacity=self.config.cache_capacity,
            num_heads=self.num_heads,
            head_dim=self.head_dim,
            dtype=self._cache_dtype,
            pool=pool,
        )
        self._slot_scores = np.zeros(self.cache.capacity, dtype=np.float64)

    def release_kv(self) -> None:
        self.cache.release()

    def exact_resume_by_reprefill(
        self, prompt_len: int, resumed_len: int, final_len: int
    ) -> bool:
        """Never: every decode step attends through top-k selection (exact
        or CAM-approximate, the latter drawing from the selector's private
        RNG) and accumulates charge-decayed slot scores, so generated
        tokens' hidden states depend on pruned attention a dense re-prefill
        cannot reproduce.  Preempted UniCAIM sequences resume by replaying
        the recorded tokens, which rebuilds the charge state, the RNG
        stream and the stats deterministically (fresh policies re-seed the
        selector from its config)."""
        return False

    def supports_speculation(
        self, prompt_len: int, spec_end_len: int, final_len: int
    ) -> bool:
        """Never — made explicit rather than inherited.  Every decode step
        mutates state a rejected draft cannot roll back: slot scores decay
        and accumulate per step, fixed-capacity slots evict by charge, and
        the CAM-approximate selector advances its private RNG stream per
        comparison — re-running the "kept prefix" after a rollback would
        consume *different* RNG draws than plain decode did.  Speculative
        sequences under UniCAIM fall back per-sequence to one-token decode
        and remain token-identical."""
        return False

    def decode_page_demand(self) -> int:
        return self.cache.decode_page_demand()

    def kv_pages_held(self) -> int:
        return self.cache.pages_held()

    def kv_shared_pages(self) -> int:
        return self.cache.shared_page_count()

    def kv_resident_bytes(self) -> int:
        return self.cache.resident_bytes()

    def max_cached_tokens(self, prompt_len: int, max_new_tokens: int) -> int:
        return min(
            super().max_cached_tokens(prompt_len, max_new_tokens),
            self.cache.capacity,
        )

    # ------------------------------------------------------------------
    # Prefill stage: one-shot static pruning
    # ------------------------------------------------------------------
    def prefill(
        self,
        keys: np.ndarray,
        values: np.ndarray,
        attention_matrix: Optional[np.ndarray] = None,
    ) -> None:
        self._check_prefill_shapes(keys, values)
        keys = np.asarray(keys, dtype=np.float64)
        values = np.asarray(values, dtype=np.float64)
        n = keys.shape[0]
        self._prefill_length = n
        self.stats.prefill_tokens = n

        if attention_matrix is not None:
            scores = accumulated_scores_from_attention(
                attention_matrix,
                use_softmax=self.config.use_softmax_scores,
            )
        else:
            # Without a prefill attention map (e.g. when the policy is used
            # standalone), fall back to a small position-proportional score
            # so the selection keeps the most *recent* tokens
            # (StreamingLLM-style).  A uniform zero score would not do that:
            # ``select_heavy_tokens`` breaks ties toward the lowest index,
            # which would fill the budget with the oldest tokens instead.
            scores = np.arange(n, dtype=np.float64) * (
                self.PREFILL_FALLBACK_EPSILON / max(n, 1)
            )

        result = select_heavy_tokens(
            scores,
            heavy_budget=min(self.config.heavy_budget, self.cache.capacity),
            sink_tokens=self.config.sink_tokens,
            recent_tokens=self.config.recent_protect,
        )

        self.cache.clear()
        self._slot_scores.fill(0.0)
        for position in result.kept_positions:
            pos = int(position)
            slot = self.cache.append(keys[pos], values[pos], pos, is_heavy=True)
            self._slot_scores[slot] = float(scores[pos])
        self.stats.retained_after_prefill = len(self.cache)
        self._generated_count = 0
        self.eviction_log = []

    # ------------------------------------------------------------------
    # Decoding stage: step-wise static-dynamic pruning
    # ------------------------------------------------------------------
    def decode_step(
        self,
        query: np.ndarray,
        key: np.ndarray,
        value: np.ndarray,
        position: int,
    ) -> np.ndarray:
        self._check_step_shapes(query, key, value)
        query = np.asarray(query, dtype=np.float64)
        key = np.asarray(key, dtype=np.float64)
        value = np.asarray(value, dtype=np.float64)

        evicted_position = self._insert_generated(key, value, int(position))

        keys = self.cache.keys()
        values = self.cache.values()
        positions = self.cache.token_positions()
        n = keys.shape[0]

        k = self.config.effective_top_k(n)
        selection = self.selector.select(query, keys, k)
        selected = selection.selected_indices

        output = sparse_attention_output(
            query, keys, values, selected, scale=self.scale
        )

        self._accumulate_step_scores(selection)

        self.stats.record(
            StepRecord(
                position=int(position),
                cache_size=n,
                num_attended=int(selected.size),
                evicted_position=evicted_position,
                selected_positions=positions[selected],
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
        """Vectorized hybrid decode for a whole policy group: select, then attend.

        Per member only the cheap scalar bookkeeping remains (insert /
        static-evict into the slot cache, already vectorized internally);
        the heavy math runs once for the group, in the current-domain CIM
        mode's order — exact attention over the selected rows only:

        1. read K of every member's cached rows (one padded gather);
        2. score all members at once — the selector's similarity GEMM is
           one ``[S, h, T]`` tensor (for the CAM selector the quantise-and-
           match runs across all member score tables, with each member's
           per-call normalisation and sense-noise draw preserved) — and
           pick each member's top-k with the tie-exact
           :func:`~repro.core.attention.top_k_rows`, padded to the group's
           largest ``k``;
        3. read V for the ``[S, k_max]`` selected rows only;
        4. softmax and ``probs @ V`` over the selected columns of the
           exact scores.

        The charge-accumulation update still uses the exact scores of all
        ``T`` cached rows.

        Returns ``None`` (before touching any state) for selector types the
        batched match does not know — such groups run the per-sequence
        loop.
        """
        selector_type = type(self.selector)
        if selector_type not in (ExactTopKSelector, CAMApproximateSelector):
            return None
        if any(type(policy.selector) is not selector_type for policy in group):
            return None

        queries = np.asarray(queries, dtype=np.float64)
        victims = self._group_choose_victims(group, positions)
        evicted: List[Optional[int]] = []
        for row, (policy, key, value, position) in enumerate(
            zip(group, keys, values, positions)
        ):
            evicted.append(
                policy._insert_generated(
                    np.asarray(key, dtype=np.float64),
                    np.asarray(value, dtype=np.float64),
                    int(position),
                    victim_position=None if victims is None else victims[row],
                )
            )
        tables = [policy.cache.block_table for policy in group]
        slot_lists = [policy.cache.occupied_slots() for policy in group]
        position_arrays = [policy.cache.token_positions() for policy in group]
        addresses, gathered_k, valid = read_group_keys(tables, slot_lists)
        lengths = addresses.lengths
        keys64 = np.asarray(gathered_k, dtype=np.float64)

        # Exact similarity of every member at once: one [S, h, T] GEMM,
        # head-mean-reduced to the per-token score tables.
        exact_raw = np.einsum("sthd,shd->sht", keys64, queries)
        exact_mean = exact_raw.mean(axis=1)  # [S, T]
        if selector_type is CAMApproximateSelector:
            # Quantisation is normalised per call (each member's own key
            # statistics), then the CAM match is one batched GEMM.
            quant_q = np.stack(
                [
                    policy.selector.quantize_query(queries[row])
                    for row, policy in enumerate(group)
                ]
            )
            quant_k = np.zeros_like(keys64)
            for row, policy in enumerate(group):
                size = int(lengths[row])
                quant_k[row, :size] = policy.selector.quantize_keys(
                    keys64[row, :size]
                )
            match_mean = np.einsum("sthd,shd->sht", quant_k, quant_q).mean(
                axis=1
            )

        # Per-member ranking scores as one [S, T] table.  For the exact
        # selector without a private scale this *is* the exact score table;
        # CAM rows get each member's sense-noise draw added in place.
        plain_exact = selector_type is ExactTopKSelector and all(
            policy.selector.scale is None for policy in group
        )
        if selector_type is CAMApproximateSelector:
            for row, policy in enumerate(group):
                config = policy.selector.config
                if config.sense_noise_sigma > 0.0:
                    size = int(lengths[row])
                    match_mean[row, :size] += policy.selector._rng.normal(
                        0.0, config.sense_noise_sigma, size=size
                    )
            rank_mat = match_mean
        elif plain_exact:
            rank_mat = exact_mean
        else:
            rank_mat = None

        top_ks = np.asarray(
            [
                policy.config.effective_top_k(int(size))
                for policy, size in zip(group, lengths)
            ],
            dtype=np.int64,
        )
        k_max = int(top_ks.max())
        if rank_mat is not None:
            selected = top_k_rows(rank_mat, valid, k_max)
        else:
            selected = np.zeros((len(group), k_max), dtype=np.int64)
        selections: List[SelectionResult] = []
        for row, policy in enumerate(group):
            size = int(lengths[row])
            top_k = int(top_ks[row])
            exact_scores = exact_mean[row, :size]
            if rank_mat is not None:
                selection = SelectionResult(
                    selected_indices=selected[row, :top_k],
                    scores=rank_mat[row, :size],
                    exact_scores=exact_scores,
                )
            else:
                # Mixed-scale exact selectors in one group: rank each
                # member with its own selector semantics.  A private scale
                # multiplies the per-head scores *before* the head mean
                # (the serial rounding order); scale-less members rank the
                # plain head-mean scores.
                if policy.selector.scale is None:
                    scores = exact_scores
                else:
                    scores = (
                        exact_raw[row, :, :size] * float(policy.selector.scale)
                    ).mean(axis=0)
                selection = SelectionResult(
                    selected_indices=top_k_indices(scores, top_k),
                    scores=scores,
                    exact_scores=scores.copy(),
                )
                selected[row, :top_k] = selection.selected_indices
            selections.append(selection)

        scales = np.asarray([policy.scale for policy in group], dtype=np.float64)
        outputs = attend_selected(
            queries,
            np.take_along_axis(exact_raw, selected[:, None, :], axis=2),
            addresses,
            selected,
            top_ks,
            scales,
        )

        # Charge-accumulation update, batched: the softmax-normalised step
        # scores of every member come from one masked [S, T] pass over the
        # already-computed exact score tables (valid whenever the selector
        # reports plain head-mean exact scores — always for CAM, and for
        # the exact selector unless it carries its own scale).
        step_scores = None
        batched_accumulate = selector_type is CAMApproximateSelector or all(
            policy.selector.scale is None for policy in group
        )
        if batched_accumulate and any(
            policy.config.use_softmax_scores for policy in group
        ):
            masked = np.where(valid, exact_mean * scales[:, None], -np.inf)
            weights = np.exp(masked - masked.max(axis=1, keepdims=True))
            sums = np.maximum(weights.sum(axis=1, keepdims=True), 1e-12)
            step_scores = weights / sums

        for row, (policy, position, victim, selection) in enumerate(
            zip(group, positions, evicted, selections)
        ):
            if step_scores is not None and policy.config.use_softmax_scores:
                slots = slot_lists[row]
                if policy.config.score_decay != 1.0:
                    policy._slot_scores[slots] *= policy.config.score_decay
                policy._slot_scores[slots] += step_scores[row, : int(lengths[row])]
            else:
                policy._accumulate_step_scores(selection)
            policy.stats.record(
                StepRecord(
                    position=int(position),
                    cache_size=int(lengths[row]),
                    num_attended=selection.k,
                    evicted_position=victim,
                    selected_positions=position_arrays[row][
                        selection.selected_indices
                    ],
                )
            )
        return outputs

    def cached_positions(self) -> np.ndarray:
        return self.cache.token_positions()

    def accumulated_score(self, position: int) -> float:
        """Accumulated attention score of a cached token position."""
        slot = self.cache.slot_of_position(int(position))
        if slot is None:
            return 0.0
        return float(self._slot_scores[slot])

    def accumulated_table(self) -> Dict[int, float]:
        """Copy of the accumulated-score table (position -> score)."""
        slots = self.cache.occupied_slots()
        positions = self.cache.token_positions()
        return {
            int(pos): float(self._slot_scores[slot])
            for pos, slot in zip(positions, slots)
        }

    def reset(self) -> None:
        super().reset()
        self.cache.clear()
        self._slot_scores.fill(0.0)
        self._generated_count = 0
        self._prefill_length = 0
        self.eviction_log = []

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _insert_generated(
        self,
        key: np.ndarray,
        value: np.ndarray,
        position: int,
        victim_position: Optional[int] = None,
    ) -> Optional[int]:
        """Write the new token's KV pair, statically evicting if the cache is full.

        ``victim_position`` short-circuits the victim search with a
        precomputed choice (the batched group-decode path selects every
        member's victim in one masked reduction); it must equal what
        :meth:`_choose_eviction_victim` would return.
        """
        self._generated_count += 1
        if not self.cache.is_full:
            slot = self.cache.append(key, value, position, is_heavy=False)
            self._slot_scores[slot] = 0.0
            return None

        if victim_position is None:
            victim_position = self._choose_eviction_victim(position)
        victim_slot = self.cache.slot_of_position(victim_position)
        assert victim_slot is not None
        victim_score = float(self._slot_scores[victim_slot])
        self.cache.replace(victim_slot, key, value, position, is_heavy=False)
        self._slot_scores[victim_slot] = 0.0
        self.eviction_log.append(
            EvictionEvent(
                step=self._generated_count,
                evicted_position=victim_position,
                evicted_score=victim_score,
                incoming_position=position,
            )
        )
        return victim_position

    @staticmethod
    def _group_choose_victims(
        group: Sequence["UniCAIMPolicy"], positions: Sequence[int]
    ) -> Optional[List[Optional[int]]]:
        """Every member's static-eviction victim in one masked reduction.

        A full slot cache has every slot occupied, so its in-slot-order
        position and accumulated-score arrays stack directly into
        ``[S, capacity]`` matrices; the serial rule — lowest accumulated
        score among unprotected tokens, ties toward the earliest position
        — becomes a masked min plus a tie-break min (comparisons only, so
        the choice is bit-identical to :meth:`_choose_eviction_victim`).
        Returns ``None`` (per-member fallback) for heterogeneous
        capacities; members with free slots get a ``None`` victim.
        """
        full_rows = [
            row for row, policy in enumerate(group) if policy.cache.is_full
        ]
        if len(full_rows) < 2:
            return None
        if len({group[row].cache.capacity for row in full_rows}) != 1:
            return None
        # Full caches: occupied slots are 0..capacity-1, so the cached
        # in-slot-order views stack without any per-member gather.
        pos_mat = np.stack(
            [group[row].cache.token_positions() for row in full_rows]
        )
        score_mat = np.stack([group[row]._slot_scores for row in full_rows])
        sinks = np.asarray(
            [group[row].config.sink_tokens for row in full_rows]
        )[:, None]
        recents = np.asarray(
            [group[row].config.recent_protect for row in full_rows]
        )[:, None]
        incoming = np.asarray([int(positions[row]) for row in full_rows])[
            :, None
        ]
        protected = (pos_mat < sinks) | (
            (recents > 0) & (pos_mat >= incoming - recents)
        )
        candidates = ~protected
        all_protected = ~candidates.any(axis=1)
        candidates[all_protected] = True
        masked_scores = np.where(candidates, score_mat, np.inf)
        best = masked_scores.min(axis=1, keepdims=True)
        tie_positions = np.where(
            masked_scores == best, pos_mat, np.iinfo(np.int64).max
        )
        victim_positions = tie_positions.min(axis=1)
        victims: List[Optional[int]] = [None] * len(group)
        for index, row in enumerate(full_rows):
            victims[row] = int(victim_positions[index])
        return victims

    def _choose_eviction_victim(self, incoming_position: int) -> int:
        """Token position with the lowest accumulated score, honouring protections.

        Fully vectorized: the protection rules become boolean masks over
        the cached-position array (the seed built Python sets and lists).
        """
        positions = self.cache.token_positions()
        slots = self.cache.occupied_slots()

        protected = np.zeros(positions.shape, dtype=bool)
        if self.config.sink_tokens > 0:
            protected |= positions < self.config.sink_tokens
        if self.config.recent_protect > 0:
            protected |= positions >= incoming_position - self.config.recent_protect

        candidates = ~protected
        if not candidates.any():
            candidates = np.ones(positions.shape, dtype=bool)

        cand_positions = positions[candidates]
        cand_scores = self._slot_scores[slots[candidates]]
        # Lowest score wins; ties break toward the earliest position.
        order = np.lexsort((cand_positions, cand_scores))
        return int(cand_positions[order[0]])

    def _accumulate_step_scores(self, selection: SelectionResult) -> None:
        """Add this step's similarity scores to the accumulated table.

        The charge-domain CIM accumulates the (approximate) similarity of
        every row in the same cycle as the CAM comparison, so the table is
        updated for every cached token, not only the selected ones.  The
        step scores are aligned with the occupied-slot order the selector
        saw, so the whole update is a single vectorized scatter.
        """
        if self.config.use_softmax_scores:
            scores = np.asarray(selection.exact_scores, dtype=np.float64)
            scores = scores * self.scale
            shifted = scores - scores.max()
            weights = np.exp(shifted)
            step_scores = weights / max(float(weights.sum()), 1e-12)
        else:
            step_scores = np.asarray(selection.scores, dtype=np.float64)

        slots = self.cache.occupied_slots()
        decay = self.config.score_decay
        if decay != 1.0:
            self._slot_scores[slots] *= decay
        self._slot_scores[slots] += step_scores


def make_policy(
    mode: str,
    num_heads: int,
    head_dim: int,
    config: Optional[PruningConfig] = None,
    cam_selector: Optional[CAMApproximateSelector] = None,
) -> UniCAIMPolicy:
    """Convenience factory for the two flavours of the UniCAIM policy.

    ``mode`` is ``"exact"`` (algorithmic reference) or ``"cam"`` (hardware
    behavioural selection with quantised scores).
    """
    if mode == "exact":
        selector: TopKSelector = ExactTopKSelector()
    elif mode == "cam":
        selector = cam_selector or CAMApproximateSelector()
    else:
        raise ValueError(f"unknown UniCAIM policy mode: {mode!r}")
    return UniCAIMPolicy(
        num_heads=num_heads,
        head_dim=head_dim,
        config=config,
        selector=selector,
    )


__all__ = ["UniCAIMPolicy", "EvictionEvent", "make_policy"]
