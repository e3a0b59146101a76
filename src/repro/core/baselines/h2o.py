"""H2O-style heavy-hitter KV cache eviction.

H2O (Zhang et al., 2023 — the paper's ref. [7]) keeps a fixed budget of
"heavy hitter" tokens, chosen by accumulated softmax attention probability,
plus a window of recent tokens.  Eviction is *static*: once a token is
dropped it can never be attended to again, but unlike StreamingLLM the
choice of which token to drop is content-aware.  At every step all cached
tokens participate in attention (no dynamic top-k).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from ..attention import attention_output, attention_scores, head_mean_scores, softmax
from ..group_decode import batched_group_attention, gather_group_kv
from ..kv_pool import PagedKVPool, put_group
from ..policy import KVCachePolicy, SpeculationState, StepRecord
from ..static_pruning import PrefillNeed


class H2OPolicy(KVCachePolicy):
    """Heavy-hitter oracle eviction with a recent-token window.

    Parameters
    ----------
    heavy_budget:
        Number of heavy-hitter slots (chosen by accumulated attention
        probability).
    recent_budget:
        Number of most recent tokens that are always retained.
    """

    def __init__(
        self,
        num_heads: int,
        head_dim: int,
        heavy_budget: int = 256,
        recent_budget: int = 64,
        scale: Optional[float] = None,
    ) -> None:
        super().__init__(num_heads, head_dim, scale)
        if heavy_budget < 1:
            raise ValueError("heavy_budget must be >= 1")
        if recent_budget < 1:
            raise ValueError("recent_budget must be >= 1")
        self.heavy_budget = int(heavy_budget)
        self.recent_budget = int(recent_budget)
        self._store = self._make_store()
        self._accumulated: Dict[int, float] = {}

    def _on_pool_attached(self, pool: PagedKVPool) -> None:
        self._store = self._make_store()

    @classmethod
    def from_budget(
        cls,
        num_heads: int,
        head_dim: int,
        budget: int,
        recent_fraction: float = 0.25,
        scale: Optional[float] = None,
    ) -> "H2OPolicy":
        """Split a total budget into heavy and recent portions (H2O default 50/50 or 75/25)."""
        if budget < 2:
            raise ValueError("budget must be >= 2")
        recent = max(1, int(round(budget * recent_fraction)))
        heavy = max(1, budget - recent)
        return cls(num_heads, head_dim, heavy_budget=heavy, recent_budget=recent, scale=scale)

    @property
    def total_budget(self) -> int:
        return self.heavy_budget + self.recent_budget

    # ------------------------------------------------------------------
    @property
    def prefill_need(self) -> PrefillNeed:
        """Accumulated softmax probability mass over every prompt query."""
        return PrefillNeed(softmax=True)

    def _prefill_from_scores(
        self,
        keys: np.ndarray,
        values: np.ndarray,
        token_scores: Optional[np.ndarray],
    ) -> None:
        self._check_prefill_shapes(keys, values)
        keys = np.asarray(keys, dtype=np.float64)
        values = np.asarray(values, dtype=np.float64)
        n = keys.shape[0]
        self.stats.prefill_tokens = n

        if token_scores is not None:
            scores = np.asarray(token_scores, dtype=np.float64)
        else:
            scores = np.zeros(n, dtype=np.float64)

        # Decide evictions *before* touching storage: bulk-appending the
        # whole prompt and then shrinking would allocate
        # ceil(n / page_size) pool pages that a partially emptied store
        # never returns, blowing past the total_budget+1 page reservation
        # the serving engine admits this policy under.
        kept_list = list(range(n))
        excess = n - self.total_budget
        if excess > 0:
            # Scores are fixed during the shrink, so evicting one
            # _choose_victim pick at a time removes positions in one
            # sorted order: non-recent ones by (score, position), then —
            # once none is left — recent ones by the same key.
            positions = np.arange(n)
            recent = positions >= n - self.recent_budget
            order = np.lexsort((positions, scores, recent))
            kept_list = np.sort(order[excess:]).tolist()
        self._accumulated = {pos: float(scores[pos]) for pos in kept_list}
        self._store.clear()
        self._store.bulk_append(kept_list, keys[kept_list], values[kept_list])
        self.stats.retained_after_prefill = len(self._store)

    def decode_step(
        self,
        query: np.ndarray,
        key: np.ndarray,
        value: np.ndarray,
        position: int,
    ) -> np.ndarray:
        self._check_step_shapes(query, key, value)
        query = np.asarray(query, dtype=np.float64)
        position = int(position)
        self._store.put(
            position,
            np.asarray(key, dtype=np.float64),
            np.asarray(value, dtype=np.float64),
        )
        self._accumulated.setdefault(position, 0.0)

        positions = sorted(self._store.positions())
        keys, values = self._store.gather(positions)

        raw = head_mean_scores(attention_scores(query, keys, scale=self.scale))
        probs = softmax(raw)
        for idx, pos in enumerate(positions):
            self._accumulated[pos] += float(probs[idx])

        output = attention_output(query, keys, values, scale=self.scale)

        evicted = self._shrink_to_budget(current_position=position)

        self.stats.record(
            StepRecord(
                position=position,
                cache_size=len(self._store),
                num_attended=len(positions),
                evicted_position=evicted,
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
        """Vectorized heavy-hitter decode for a whole policy group.

        One padded gather and one batched masked attention serve every
        member; the per-step score accumulation becomes a per-member
        vector add over the group's ``[S, T]`` softmax matrix, and the
        accumulated-score eviction becomes **one masked argmin over the
        group** (recent/padded entries masked to ``+inf``; rows are
        position-sorted, so argmin's first-minimum tie-break reproduces
        the serial earliest-position rule).
        """
        count = len(group)
        put_group(
            [policy._store for policy in group],
            positions,
            np.asarray(keys, dtype=np.float64),
            np.asarray(values, dtype=np.float64),
        )
        order_lists: List[List[int]] = []
        for policy, position in zip(group, positions):
            policy._accumulated.setdefault(int(position), 0.0)
            # Insertions arrive in ascending position order (sorted prefill
            # + monotone decode), so the store's insertion order normally
            # *is* position order; Timsort degrades gracefully otherwise.
            order_lists.append(sorted(policy._store.positions()))
        tables = [policy._store.block_table for policy in group]
        slot_lists = [
            policy._store.slots_of(order)
            for policy, order in zip(group, order_lists)
        ]
        gathered_k, gathered_v, lengths, valid = gather_group_kv(
            tables, slot_lists
        )
        scales = np.asarray([policy.scale for policy in group], dtype=np.float64)
        outputs, raw = batched_group_attention(
            np.asarray(queries, dtype=np.float64),
            gathered_k,
            gathered_v,
            valid,
            scales=scales,
        )

        # Accumulated-score update: head-mean scaled scores -> per-row
        # masked softmax -> one vector add per member.
        mean_scores = (raw * scales[:, None, None]).mean(axis=1)  # [S, T]
        probs = softmax(np.where(valid, mean_scores, -np.inf), axis=-1)
        t_max = int(valid.shape[1])
        pos_mat = np.full((count, t_max), np.iinfo(np.int64).max, dtype=np.int64)
        acc_mat = np.full((count, t_max), np.inf)
        for row, (policy, order) in enumerate(zip(group, order_lists)):
            size = len(order)
            accumulated = np.fromiter(
                map(policy._accumulated.__getitem__, order),
                dtype=np.float64,
                count=size,
            )
            accumulated += probs[row, :size]
            policy._accumulated.update(zip(order, accumulated.tolist()))
            pos_mat[row, :size] = order
            acc_mat[row, :size] = accumulated

        # Eviction: one masked argmin over the group's score tables.
        current = np.asarray([int(p) for p in positions])[:, None]
        recent = np.asarray([policy.recent_budget for policy in group])[:, None]
        candidates = valid & (pos_mat < current - recent + 1)
        all_recent = ~candidates.any(axis=1)
        candidates[all_recent] = valid[all_recent]
        victim_idx = np.argmin(np.where(candidates, acc_mat, np.inf), axis=1)
        evicted: List[Optional[int]] = []
        for row, policy in enumerate(group):
            victim: Optional[int] = None
            if len(policy._store) > policy.total_budget:
                victim = int(pos_mat[row, victim_idx[row]])
                policy._store.drop(victim)
                policy._accumulated.pop(victim, None)
                if len(policy._store) > policy.total_budget:
                    # Defensive: one insert can only overshoot by one, but
                    # keep the serial shrink semantics exact regardless.
                    more = policy._shrink_to_budget(int(positions[row]))
                    if more is not None:
                        victim = more
            evicted.append(victim)

        for policy, position, size, victim in zip(
            group, positions, lengths, evicted
        ):
            policy.stats.record(
                StepRecord(
                    position=int(position),
                    cache_size=len(policy._store),
                    num_attended=int(size),
                    evicted_position=victim,
                )
            )
        return outputs

    def supports_speculation(
        self, prompt_len: int, spec_end_len: int, final_len: int
    ) -> bool:
        """Same condition as :meth:`exact_resume_by_reprefill`: while the
        whole generation stays within ``heavy_budget + recent_budget`` H2O
        never evicts and the accumulated-score table is never *consulted*,
        so the per-row score deltas of a draft chunk can be staged and
        applied exactly for the kept rows (in serial summation order) and
        discarded for rejected ones.  Past the budget the scores decide an
        eviction mid-speculation, which cannot be rolled back."""
        return final_len <= self.heavy_budget + self.recent_budget

    def begin_speculation(
        self,
        queries: np.ndarray,
        keys: np.ndarray,
        values: np.ndarray,
        start_position: int,
    ) -> np.ndarray:
        queries = np.asarray(queries, dtype=np.float64)
        k = queries.shape[0]
        base = sorted(self._store.positions())
        staged = self._stage_speculative_rows(
            self._store, np.asarray(keys), np.asarray(values), start_position
        )
        all_k, all_v = self._store.gather(base + staged)
        outputs = np.empty((k, self.num_heads, self.head_dim), dtype=np.float64)
        records = []
        score_updates = []
        n0 = len(base)
        for i in range(k):
            n = n0 + i + 1
            order = base + staged[: i + 1]
            raw = head_mean_scores(
                attention_scores(queries[i], all_k[:n], scale=self.scale)
            )
            probs = softmax(raw)
            score_updates.append((order, probs))
            outputs[i] = attention_output(
                queries[i], all_k[:n], all_v[:n], scale=self.scale
            )
            records.append(
                StepRecord(position=staged[i], cache_size=n, num_attended=n)
            )
        self._spec = SpeculationState(staged, records, extra=score_updates)
        return outputs

    def commit_speculation(self, kept: int) -> int:
        spec = self._spec
        if spec is None:
            return 0
        for i in range(kept):
            # Replays the serial decode_step's mutation sequence exactly:
            # setdefault the new position, then one float add per attended
            # position in gather order.
            self._accumulated.setdefault(spec.positions[i], 0.0)
            order, probs = spec.extra[i]
            for idx, pos in enumerate(order):
                self._accumulated[pos] += float(probs[idx])
            self.stats.record(spec.records[i])
        return self._rollback_speculative_rows(self._store, kept)

    def cached_positions(self) -> np.ndarray:
        return np.asarray(sorted(self._store.positions()), dtype=np.int64)

    def exact_resume_by_reprefill(
        self, prompt_len: int, resumed_len: int, final_len: int
    ) -> bool:
        """Conditional on the *final* length: while the whole generation
        stays within ``heavy_budget + recent_budget`` H2O never evicts,
        every decode step attends to the complete cache (dense), and the
        accumulated-score table is never consulted.  Past the budget the
        scores decide evictions — and a re-prefill accumulates them in a
        different floating-point summation order (one matrix reduction)
        than step-by-step decode does, so eviction choices could drift by
        an ulp.  Those sequences replay instead."""
        return final_len <= self.heavy_budget + self.recent_budget

    def release_kv(self) -> None:
        self._store.release()
        self._accumulated = {}

    def decode_page_demand(self) -> int:
        return self._store.append_page_demand()

    def kv_pages_held(self) -> int:
        return self._store.pages_held()

    def kv_shared_pages(self) -> int:
        return self._store.shared_page_count()

    def kv_resident_bytes(self) -> int:
        return self._store.resident_bytes()

    def max_cached_tokens(self, prompt_len: int, max_new_tokens: int) -> int:
        # +1 for the insert-then-shrink transient of every decode step.
        return min(
            super().max_cached_tokens(prompt_len, max_new_tokens),
            self.total_budget + 1,
        )

    def reset(self) -> None:
        super().reset()
        self._store.clear()
        self._accumulated = {}

    # ------------------------------------------------------------------
    def _choose_victim(self, positions, current_position: int) -> int:
        """Lowest-accumulated-score non-recent position (H2O's rule).

        Falls back to the full candidate set when every cached token is
        recent; ties break toward the earliest position.
        """
        recent_threshold = current_position - self.recent_budget + 1
        candidates = [p for p in positions if p < recent_threshold]
        if not candidates:
            candidates = list(positions)
        return min(candidates, key=lambda p: (self._accumulated.get(p, 0.0), p))

    def _shrink_to_budget(self, current_position: int) -> Optional[int]:
        """Evict lowest-accumulated-score non-recent tokens until within budget.

        Returns the last evicted position (or ``None``).
        """
        last_evicted: Optional[int] = None
        while len(self._store) > self.total_budget:
            victim = self._choose_victim(
                self._store.positions(), current_position
            )
            self._store.drop(victim)
            self._accumulated.pop(victim, None)
            last_evicted = victim
        return last_evicted


__all__ = ["H2OPolicy"]
