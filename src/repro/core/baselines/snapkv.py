"""SnapKV-style prefill-only KV cache compression.

SnapKV (Li et al., 2024 — the paper's ref. [8]) observes that the final
span of the prompt ("observation window") predicts which earlier tokens the
generation will attend to.  It compresses the prompt KV cache *once*, at
the end of prefill, by keeping the tokens that receive the most attention
from the observation-window queries (after a smoothing pool over
neighbouring positions), plus the observation window itself.  During
decoding nothing further is evicted: the cache grows with every generated
token and all cached tokens are attended to.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from ..attention import attention_output
from ..group_decode import batched_group_attention, gather_group_kv
from ..kv_pool import PagedKVPool, put_group
from ..policy import KVCachePolicy, StepRecord
from ..static_pruning import PrefillNeed


def pool_scores(scores: np.ndarray, kernel_size: int = 5) -> np.ndarray:
    """Average-pool importance scores over neighbouring token positions.

    SnapKV applies a 1-D pooling over the per-token attention mass so that
    clusters of important tokens are kept together instead of isolated
    spikes.  A simple same-length moving average reproduces that behaviour.
    """
    scores = np.asarray(scores, dtype=np.float64)
    if scores.ndim != 1:
        raise ValueError("scores must be 1-D")
    if kernel_size < 1:
        raise ValueError("kernel_size must be >= 1")
    if kernel_size == 1 or scores.size == 0:
        return scores.copy()
    kernel = np.ones(kernel_size, dtype=np.float64) / kernel_size
    padded = np.pad(scores, (kernel_size // 2, kernel_size - 1 - kernel_size // 2), mode="edge")
    return np.convolve(padded, kernel, mode="valid")


class SnapKVPolicy(KVCachePolicy):
    """Observation-window prefill compression, no decode-time eviction.

    Parameters
    ----------
    prompt_budget:
        Number of prompt tokens retained after compression (includes the
        observation window).
    observation_window:
        Number of final prompt queries used to score earlier tokens.
    pool_kernel:
        Width of the smoothing pool applied to the scores.
    """

    def __init__(
        self,
        num_heads: int,
        head_dim: int,
        prompt_budget: int = 512,
        observation_window: int = 32,
        pool_kernel: int = 5,
        scale: Optional[float] = None,
    ) -> None:
        super().__init__(num_heads, head_dim, scale)
        if prompt_budget < 1:
            raise ValueError("prompt_budget must be >= 1")
        if observation_window < 1:
            raise ValueError("observation_window must be >= 1")
        if pool_kernel < 1:
            raise ValueError("pool_kernel must be >= 1")
        self.prompt_budget = int(prompt_budget)
        self.observation_window = int(observation_window)
        self.pool_kernel = int(pool_kernel)
        self._store = self._make_store()
        self._kept_prompt_positions: List[int] = []

    def _on_pool_attached(self, pool: PagedKVPool) -> None:
        self._store = self._make_store()

    @classmethod
    def from_budget(
        cls,
        num_heads: int,
        head_dim: int,
        budget: int,
        observation_window: int = 32,
        scale: Optional[float] = None,
    ) -> "SnapKVPolicy":
        window = min(observation_window, max(1, budget // 4))
        return cls(
            num_heads,
            head_dim,
            prompt_budget=budget,
            observation_window=window,
            scale=scale,
        )

    # ------------------------------------------------------------------
    @property
    def prefill_need(self) -> PrefillNeed:
        """Softmax column sums over the observation window's queries only."""
        return PrefillNeed(softmax=True, window=self.observation_window)

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

        window = min(self.observation_window, n)
        window_positions = list(range(n - window, n))

        if self.prompt_budget >= n:
            kept = list(range(n))
        else:
            if token_scores is not None:
                scores = np.asarray(token_scores, dtype=np.float64)
            else:
                scores = np.zeros(n, dtype=np.float64)
            pooled = pool_scores(scores, self.pool_kernel)
            # Observation window is always kept; fill the rest of the budget
            # with the highest pooled scores outside the window.
            remaining_budget = max(0, self.prompt_budget - window)
            candidates = np.arange(n - window, dtype=np.int64)
            cand_scores = pooled[candidates]
            order = np.lexsort((candidates, -cand_scores))
            chosen = candidates[order[:remaining_budget]]
            kept = sorted(set(window_positions) | set(int(p) for p in chosen))

        self._store.clear()
        kept = list(kept)
        self._store.bulk_append(kept, keys[kept], values[kept])
        self._kept_prompt_positions = list(kept)
        self.stats.retained_after_prefill = len(kept)

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

        positions = sorted(self._store.positions())
        keys, values = self._store.gather(positions)
        output = attention_output(query, keys, values, scale=self.scale)

        self.stats.record(
            StepRecord(
                position=position,
                cache_size=len(positions),
                num_attended=len(positions),
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
        """Vectorized decode: SnapKV never evicts after prefill, so the
        span is one padded gather (position-sorted per member, matching the
        serial read order) plus one batched masked attention call."""
        put_group(
            [policy._store for policy in group],
            positions,
            np.asarray(keys, dtype=np.float64),
            np.asarray(values, dtype=np.float64),
        )
        order_lists: List[List[int]] = []
        slot_lists: List[np.ndarray] = []
        for policy in group:
            store = policy._store
            stored = store.positions()
            as_array = np.asarray(stored, dtype=np.int64)
            ascending = bool((np.diff(as_array) > 0).all())
            if store.insertion_slots_are_sequential and ascending:
                # Prefill inserts sorted and decode positions only grow,
                # so insertion order *is* position order and the
                # never-recycled store maps it onto slots 0..n-1.
                order_lists.append(stored)
                slot_lists.append(np.arange(len(stored), dtype=np.int64))
            else:
                order = sorted(stored)
                order_lists.append(order)
                slot_lists.append(store.slots_of(order))
        tables = [policy._store.block_table for policy in group]
        gathered_k, gathered_v, lengths, valid = gather_group_kv(
            tables, slot_lists
        )
        scales = np.asarray([policy.scale for policy in group], dtype=np.float64)
        outputs, _ = batched_group_attention(
            np.asarray(queries, dtype=np.float64),
            gathered_k,
            gathered_v,
            valid,
            scales=scales,
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
        """Always: SnapKV prunes only at prefill — decode appends and
        attends densely, so draft rows never perturb earlier state."""
        return True

    def begin_speculation(
        self,
        queries: np.ndarray,
        keys: np.ndarray,
        values: np.ndarray,
        start_position: int,
    ) -> np.ndarray:
        # Serial decode gathers ascending positions; staged positions are
        # strictly larger than everything stored, so the sorted base plus
        # the staged tail reproduces each row's serial gather order.
        base = sorted(self._store.positions())
        return self._dense_speculation(
            self._store, base, queries, keys, values, start_position
        )

    def commit_speculation(self, kept: int) -> int:
        spec = self._spec
        if spec is None:
            return 0
        for record in spec.records[:kept]:
            self.stats.record(record)
        return self._rollback_speculative_rows(self._store, kept)

    def cached_positions(self) -> np.ndarray:
        return np.asarray(sorted(self._store.positions()), dtype=np.int64)

    def kept_prompt_positions(self) -> np.ndarray:
        return np.asarray(self._kept_prompt_positions, dtype=np.int64)

    def exact_resume_by_reprefill(
        self, prompt_len: int, resumed_len: int, final_len: int
    ) -> bool:
        """SnapKV prunes once, at prefill.  While the resumed prompt
        (original prompt + generated so far) is still within the retention
        budget, neither the original prefill nor the resume prefill prunes
        anything and decode attends to the full cache — dense-equivalent.
        Over budget the resume prefill would re-score a *different*
        observation window (the last tokens of the longer pseudo-prompt),
        so those sequences replay instead."""
        return resumed_len <= self.prompt_budget

    def release_kv(self) -> None:
        self._store.release()

    def decode_page_demand(self) -> int:
        return self._store.append_page_demand()

    def kv_pages_held(self) -> int:
        return self._store.pages_held()

    def kv_shared_pages(self) -> int:
        return self._store.shared_page_count()

    def kv_resident_bytes(self) -> int:
        return self._store.resident_bytes()

    def max_cached_tokens(self, prompt_len: int, max_new_tokens: int) -> int:
        prompt_kept = min(
            int(prompt_len),
            max(self.observation_window, self.prompt_budget),
        )
        return min(
            super().max_cached_tokens(prompt_len, max_new_tokens),
            prompt_kept + int(max_new_tokens),
        )

    def reset(self) -> None:
        super().reset()
        self._store.clear()
        self._kept_prompt_positions = []


__all__ = ["SnapKVPolicy", "pool_scores"]
