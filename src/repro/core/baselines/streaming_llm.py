"""StreamingLLM-style fixed-pattern KV cache pruning.

StreamingLLM (Xiao et al., 2023 — the paper's ref. [19]) keeps a small
number of initial "attention sink" tokens plus a sliding window of the most
recent tokens, regardless of content.  It is the canonical *static,
fixed-pattern* policy: cheap and memory-bounded, but it permanently loses
any information that falls outside the window, which is exactly the failure
mode the paper's Fig. 13 comparison highlights.

K/V rows live in a :class:`~repro.core.kv_pool.PagedKVStore` (slots are
recycled as the window slides, so the store never outgrows
``sink_tokens + window`` rows — at most a handful of pool pages).
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List, Optional, Sequence

import numpy as np

from ..attention import attention_output
from ..group_decode import batched_group_attention, gather_group_kv
from ..kv_pool import PagedKVPool, SharedKVPages, put_group
from ..policy import KVCachePolicy, StepRecord


class StreamingLLMPolicy(KVCachePolicy):
    """Attention sinks + sliding recency window.

    Parameters
    ----------
    num_heads, head_dim:
        Attention geometry.
    sink_tokens:
        Number of initial prompt tokens always retained (the attention
        sinks; StreamingLLM uses 4).
    window:
        Number of most recent tokens retained.  The total cache size is
        bounded by ``sink_tokens + window``.
    """

    def __init__(
        self,
        num_heads: int,
        head_dim: int,
        sink_tokens: int = 4,
        window: int = 512,
        scale: Optional[float] = None,
    ) -> None:
        super().__init__(num_heads, head_dim, scale)
        if sink_tokens < 0:
            raise ValueError("sink_tokens must be >= 0")
        if window < 1:
            raise ValueError("window must be >= 1")
        self.sink_tokens = int(sink_tokens)
        self.window = int(window)
        self._store = self._make_store()
        self._sink_positions: List[int] = []
        self._window_positions: Deque[int] = deque()

    @classmethod
    def from_budget(
        cls,
        num_heads: int,
        head_dim: int,
        budget: int,
        sink_tokens: int = 4,
        scale: Optional[float] = None,
    ) -> "StreamingLLMPolicy":
        """Build a policy whose total retained tokens equal ``budget``."""
        if budget < 2:
            raise ValueError("budget must be >= 2")
        sinks = min(sink_tokens, budget - 1)
        return cls(
            num_heads,
            head_dim,
            sink_tokens=sinks,
            window=budget - sinks,
            scale=scale,
        )

    def _on_pool_attached(self, pool: PagedKVPool) -> None:
        self._store = self._make_store()

    # ------------------------------------------------------------------
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

        sinks = min(self.sink_tokens, n)
        self._sink_positions = list(range(sinks))
        window_start = max(sinks, n - self.window)
        self._window_positions = deque(range(window_start, n))

        kept = self._sink_positions + list(self._window_positions)
        self._store.clear()
        self._store.bulk_append(kept, keys[kept], values[kept])
        self.stats.retained_after_prefill = len(kept)

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
        """Truly incremental: the sink/window selection is position-only, so
        the window slides per chunk.

        Tokens that fall out of the window are dropped *before* the chunk's
        new rows are stored, and rows already outside the final window are
        never stored at all — the store therefore never holds more than
        ``sink_tokens + window`` rows, matching the one-shot prefill's page
        footprint (and the admission reservation) at every chunk boundary.
        """
        if start < 0:
            raise ValueError("start must be >= 0")
        self._check_prefill_shapes(keys, values)
        keys = np.asarray(keys, dtype=np.float64)
        values = np.asarray(values, dtype=np.float64)
        n = keys.shape[0]
        if start == 0:
            self._store.clear()
            self._sink_positions = []
            self._window_positions = deque()

        sinks = min(self.sink_tokens, n)
        window_start = max(sinks, n - self.window)
        while self._window_positions and self._window_positions[0] < window_start:
            self._store.drop(self._window_positions.popleft())
        new_sinks = list(range(start, sinks))
        new_window = list(range(max(start, window_start), n))
        self._sink_positions.extend(new_sinks)
        self._window_positions.extend(new_window)
        if new_sinks or new_window:
            rows = new_sinks + new_window
            put_group([self._store] * len(rows), rows, keys[rows], values[rows])

        if final:
            self.stats.prefill_tokens = n
            self.stats.retained_after_prefill = len(
                self._sink_positions
            ) + len(self._window_positions)
            self.stats.prefill_reused_tokens = int(reused_tokens)

    def decode_step(
        self,
        query: np.ndarray,
        key: np.ndarray,
        value: np.ndarray,
        position: int,
    ) -> np.ndarray:
        self._check_step_shapes(query, key, value)
        query = np.asarray(query, dtype=np.float64)
        evicted: Optional[int] = None
        if len(self._window_positions) == self.window:
            evicted = self._window_positions.popleft()
            self._store.drop(evicted)
        self._window_positions.append(int(position))
        self._store.put(
            int(position),
            np.asarray(key, dtype=np.float64),
            np.asarray(value, dtype=np.float64),
        )

        order = self._sink_positions + list(self._window_positions)
        keys, values = self._store.gather(order)
        output = attention_output(query, keys, values, scale=self.scale)

        self.stats.record(
            StepRecord(
                position=int(position),
                cache_size=len(order),
                num_attended=len(order),
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
        """Vectorized sink+window decode for a whole policy group.

        The drop-then-put window slide is pure index arithmetic per member
        (evict the window head iff the window is at capacity, append the
        new position); the expensive parts — the K/V reads and the masked
        softmax attention — collapse into one padded group gather and one
        batched attention call over ``[S, T_max]``.
        """
        evicted: List[Optional[int]] = []
        order_lists: List[List[int]] = []
        for policy, position in zip(group, positions):
            victim: Optional[int] = None
            if len(policy._window_positions) == policy.window:
                victim = policy._window_positions.popleft()
                policy._store.drop(victim)
            policy._window_positions.append(int(position))
            evicted.append(victim)
            order_lists.append(
                policy._sink_positions + list(policy._window_positions)
            )
        put_group(
            [policy._store for policy in group],
            positions,
            np.asarray(keys, dtype=np.float64),
            np.asarray(values, dtype=np.float64),
        )
        tables = [policy._store.block_table for policy in group]
        slot_lists = [
            policy._store.slots_of(order)
            for policy, order in zip(group, order_lists)
        ]
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
        for policy, position, size, victim in zip(
            group, positions, lengths, evicted
        ):
            policy.stats.record(
                StepRecord(
                    position=int(position),
                    cache_size=int(size),
                    num_attended=int(size),
                    evicted_position=victim,
                )
            )
        return outputs

    def supports_speculation(
        self, prompt_len: int, spec_end_len: int, final_len: int
    ) -> bool:
        """Exact iff the window cannot slide during the draft chunk: while
        every token up to ``spec_end_len`` fits inside sinks + window, each
        staged step is a pure append attending to the complete cache, so
        rollback is a tail truncation and the deferred window appends
        commit per kept row.  A slide mid-chunk would ``drop`` a window
        head that a rejected draft can never restore, so those lengths
        fall back to one-token decode."""
        return spec_end_len <= len(self._sink_positions) + self.window

    def begin_speculation(
        self,
        queries: np.ndarray,
        keys: np.ndarray,
        values: np.ndarray,
        start_position: int,
    ) -> np.ndarray:
        base = self._sink_positions + list(self._window_positions)
        return self._dense_speculation(
            self._store, base, queries, keys, values, start_position
        )

    def commit_speculation(self, kept: int) -> int:
        spec = self._spec
        if spec is None:
            return 0
        for position, record in zip(spec.positions[:kept], spec.records[:kept]):
            self._window_positions.append(position)
            self.stats.record(record)
        return self._rollback_speculative_rows(self._store, kept)

    def cached_positions(self) -> np.ndarray:
        positions = self._sink_positions + list(self._window_positions)
        return np.asarray(positions, dtype=np.int64)

    def exact_resume_by_reprefill(
        self, prompt_len: int, resumed_len: int, final_len: int
    ) -> bool:
        """Exact iff nothing was evicted before the preemption point: with
        all ``resumed_len`` tokens inside sinks + window, every decode step
        attended to the complete cache (dense), which is precisely what a
        re-prefill recomputes.  Retention is pure position arithmetic, so
        there is no score state that could drift; once a token has slid
        out of the window the generated tokens' hidden states depend on
        truncated attention and the sequence must replay instead."""
        return resumed_len <= self.sink_tokens + self.window

    def release_kv(self) -> None:
        self._store.release()
        self._sink_positions = []
        self._window_positions = deque()

    def decode_page_demand(self) -> int:
        return self._store.append_page_demand()

    def kv_pages_held(self) -> int:
        return self._store.pages_held()

    def kv_shared_pages(self) -> int:
        return self._store.shared_page_count()

    def kv_resident_bytes(self) -> int:
        return self._store.resident_bytes()

    def max_cached_tokens(self, prompt_len: int, max_new_tokens: int) -> int:
        return min(
            super().max_cached_tokens(prompt_len, max_new_tokens),
            self.sink_tokens + self.window,
        )

    def reset(self) -> None:
        super().reset()
        self._store.clear()
        self._sink_positions = []
        self._window_positions = deque()


__all__ = ["StreamingLLMPolicy"]
