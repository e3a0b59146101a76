"""Quest-style dynamic-only query-aware sparse attention.

Quest (Tang et al., 2024 — the paper's ref. [6]) keeps the *entire* KV cache
resident but, at every decoding step, estimates which pages of the cache the
current query will attend to and computes exact attention only over the
selected pages.  It is the canonical *dynamic-only* policy: computation is
reduced but the memory footprint is not, which is the other half of the
trade-off the paper's hybrid scheme closes.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..attention import (
    head_mean_scores,
    sparse_attention_output,
    top_k_indices,
    top_k_rows,
)
from ..group_decode import attend_selected, read_group_keys
from ..policy import (
    KVCachePolicy,
    SpeculationState,
    StepRecord,
    WholePromptStoreMixin,
)


class QuestPolicy(WholePromptStoreMixin, KVCachePolicy):
    """Page-based dynamic top-k selection over an unpruned cache.

    Parameters
    ----------
    page_size:
        Number of consecutive tokens per page.  Page importance is scored
        with the per-page element-wise min/max key bounds as in Quest; pages
        are selected, then every token of every selected page is attended.
        Bounds are computed on the fly from gathered keys, so under a
        quantised storage codec they are bounds over the *dequantised*
        rows — exactly the rows attention later reads, keeping selection
        and attention mutually consistent at any precision.
    num_pages:
        Number of pages selected per step.
    """

    def __init__(
        self,
        num_heads: int,
        head_dim: int,
        page_size: int = 16,
        num_pages: int = 8,
        scale: Optional[float] = None,
    ) -> None:
        super().__init__(num_heads, head_dim, scale)
        if page_size < 1:
            raise ValueError("page_size must be >= 1")
        if num_pages < 1:
            raise ValueError("num_pages must be >= 1")
        self.page_size = int(page_size)
        self.num_pages = int(num_pages)
        self._store = self._make_store()
        self._positions: List[int] = []

    @classmethod
    def from_budget(
        cls,
        num_heads: int,
        head_dim: int,
        budget: int,
        page_size: int = 16,
        scale: Optional[float] = None,
    ) -> "QuestPolicy":
        """Select enough pages to cover roughly ``budget`` tokens per step."""
        pages = max(1, budget // page_size)
        return cls(
            num_heads,
            head_dim,
            page_size=page_size,
            num_pages=pages,
            scale=scale,
        )

    def exact_resume_by_reprefill(
        self, prompt_len: int, resumed_len: int, final_len: int
    ) -> bool:
        """Quest's page selection is stateless (a fresh top-pages pick per
        step from the stored K/V), so resume is exact whenever every
        pre-preemption decode step covered *all* pages — i.e. the cache at
        ``resumed_len`` tokens still fits within ``num_pages`` selected
        pages, making the selection the identity and the attention dense.
        Once selection truncates, generated tokens' hidden states depend
        on sparse attention and the sequence must replay."""
        return math.ceil(resumed_len / self.page_size) <= self.num_pages

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
        self._store.put(
            int(position),
            np.asarray(key, dtype=np.float64),
            np.asarray(value, dtype=np.float64),
        )
        self._positions.append(int(position))

        keys, values = self._store.gather(self._positions)
        n = keys.shape[0]

        selected = self._select_page_tokens(query, keys)
        output = sparse_attention_output(
            query, keys, values, selected, scale=self.scale
        )

        self.stats.record(
            StepRecord(
                position=int(position),
                cache_size=n,
                num_attended=int(selected.size),
                selected_positions=np.asarray(
                    [self._positions[i] for i in selected], dtype=np.int64
                ),
            )
        )
        return output

    def supports_speculation(
        self, prompt_len: int, spec_end_len: int, final_len: int
    ) -> bool:
        """Always: Quest keeps every row and re-picks pages statelessly
        per step from the stored K/V, so the per-row selection over each
        staged prefix reproduces the serial step exactly and rollback is a
        pure tail truncation of the append-only store."""
        return True

    def begin_speculation(
        self,
        queries: np.ndarray,
        keys: np.ndarray,
        values: np.ndarray,
        start_position: int,
    ) -> np.ndarray:
        queries = np.asarray(queries, dtype=np.float64)
        k = queries.shape[0]
        base = list(self._positions)
        staged = self._stage_speculative_rows(
            self._store, np.asarray(keys), np.asarray(values), start_position
        )
        all_k, all_v = self._store.gather(base + staged)
        outputs = np.empty((k, self.num_heads, self.head_dim), dtype=np.float64)
        records = []
        n0 = len(base)
        for i in range(k):
            n = n0 + i + 1
            order = base + staged[: i + 1]
            selected = self._select_page_tokens(queries[i], all_k[:n])
            outputs[i] = sparse_attention_output(
                queries[i], all_k[:n], all_v[:n], selected, scale=self.scale
            )
            records.append(
                StepRecord(
                    position=staged[i],
                    cache_size=n,
                    num_attended=int(selected.size),
                    selected_positions=np.asarray(
                        [order[j] for j in selected], dtype=np.int64
                    ),
                )
            )
        self._spec = SpeculationState(staged, records)
        return outputs

    def commit_speculation(self, kept: int) -> int:
        spec = self._spec
        if spec is None:
            return 0
        for position, record in zip(spec.positions[:kept], spec.records[:kept]):
            self._positions.append(position)
            self.stats.record(record)
        return self._rollback_speculative_rows(self._store, kept)

    def decode_step_group(
        self,
        queries: np.ndarray,
        keys: np.ndarray,
        values: np.ndarray,
        positions: Sequence[int],
        group: Sequence["KVCachePolicy"],
    ) -> Optional[np.ndarray]:
        """Vectorized query-aware decode for a whole policy group: select, then attend.

        1. K of every member's stored rows is read once (one padded
           gather).
        2. When the group shares a page size, the Quest bounding-box
           criticality of **all** members' pages is one ``[S, pages]``
           score tensor (element-wise min/max page bounds over the padded
           keys, then the upper-bound reduction), and every member's top
           pages come from one tie-exact
           :func:`~repro.core.attention.top_k_rows` call (ragged page
           budgets masked), plus its newest page.
        3. V is read for the selected tokens only, padded to the group's
           largest pick.
        4. Softmax attention runs over those ``[S, k_max]`` rows.
        """
        queries = np.asarray(queries, dtype=np.float64)
        addresses, gathered_k, valid = read_group_keys(
            *self._group_insert(keys, values, positions, group)
        )
        lengths = addresses.lengths
        keys64 = np.asarray(gathered_k, dtype=np.float64)

        page_sizes = {policy.page_size for policy in group}
        if len(page_sizes) == 1:
            chosen = self._group_pick_tokens(
                queries, keys64, lengths, valid, page_sizes.pop(), group
            )
        else:
            # Heterogeneous page sizes: per-member page ranking on the
            # member's slice (the reads and attention stay batched).
            chosen = np.zeros_like(valid)
            for row, policy in enumerate(group):
                size = int(lengths[row])
                chosen[
                    row,
                    policy._select_page_tokens(queries[row], keys64[row, :size]),
                ] = True

        # Chosen token columns per member, ascending, padded to the
        # largest pick.
        counts = chosen.sum(axis=1)
        selected = np.zeros((len(group), int(counts.max())), dtype=np.int64)
        rows, cols = np.nonzero(chosen)
        selected[rows, (np.cumsum(chosen, axis=1) - 1)[rows, cols]] = cols

        selected_keys = np.take_along_axis(
            keys64, selected[:, :, None, None], axis=1
        )
        scales = np.asarray([policy.scale for policy in group], dtype=np.float64)
        outputs = attend_selected(
            queries,
            np.einsum("skhd,shd->shk", selected_keys, queries),
            addresses,
            selected,
            counts,
            scales,
        )
        for row, (policy, position) in enumerate(zip(group, positions)):
            count = int(counts[row])
            stored = np.asarray(policy._positions, dtype=np.int64)
            policy.stats.record(
                StepRecord(
                    position=int(position),
                    cache_size=int(lengths[row]),
                    num_attended=count,
                    selected_positions=stored[selected[row, :count]],
                )
            )
        return outputs

    def _group_pick_tokens(
        self,
        queries: np.ndarray,
        keys: np.ndarray,
        lengths: np.ndarray,
        valid: np.ndarray,
        page_size: int,
        group: Sequence["QuestPolicy"],
    ) -> np.ndarray:
        """Every member's selected tokens as one ``[S, T]`` boolean table.

        Per member exactly :meth:`_select_page_tokens`: every page when
        its pages fit the budget, else its ``num_pages`` best pages
        (descending score, ties toward the earlier page) plus its newest.
        """
        page_scores = self._group_page_scores(
            queries, keys, lengths, valid, page_size
        )
        count, num_pages = page_scores.shape
        member_pages = -(-lengths // page_size)
        budgets = np.asarray([policy.num_pages for policy in group])
        page_valid = np.arange(num_pages)[None, :] < member_pages[:, None]
        top = top_k_rows(
            page_scores, page_valid, min(int(budgets.max()), num_pages)
        )
        in_budget = np.arange(top.shape[1])[None, :] < budgets[:, None]
        chosen = np.zeros((count, num_pages), dtype=bool)
        chosen[np.nonzero(in_budget)[0], top[in_budget]] = True
        chosen[np.arange(count), member_pages - 1] = True
        dense = member_pages <= budgets
        chosen[dense] = page_valid[dense]
        token_pages = np.arange(valid.shape[1]) // page_size
        return chosen[:, token_pages] & valid

    def _group_page_scores(
        self,
        queries: np.ndarray,
        keys: np.ndarray,
        lengths: np.ndarray,
        valid: np.ndarray,
        page_size: int,
    ) -> np.ndarray:
        """Quest upper-bound criticality of every member's pages at once.

        Padded key rows are masked to ``+/-inf`` so partial pages keep the
        exact per-member min/max bounds; fully padded pages produce
        non-finite garbage that the caller never reads (every member picks
        only among its own ``ceil(n / page_size)`` real pages).
        """
        count, t_max = valid.shape
        num_pages = math.ceil(t_max / page_size)
        pad = num_pages * page_size - t_max
        row_mask = valid[:, :, None, None]
        kmin = np.where(row_mask, keys, np.inf)
        kmax = np.where(row_mask, keys, -np.inf)
        if pad:
            tail_shape = (count, pad) + keys.shape[2:]
            kmin = np.concatenate(
                [kmin, np.full(tail_shape, np.inf)], axis=1
            )
            kmax = np.concatenate(
                [kmax, np.full(tail_shape, -np.inf)], axis=1
            )
        bound_shape = (count, num_pages, page_size) + keys.shape[2:]
        mins = kmin.reshape(bound_shape).min(axis=2)  # [S, P, h, d]
        maxs = kmax.reshape(bound_shape).max(axis=2)
        with np.errstate(invalid="ignore"):
            upper = np.maximum(
                queries[:, None] * mins, queries[:, None] * maxs
            )
            return upper.sum(axis=-1).mean(axis=-1)  # [S, P]

    # ------------------------------------------------------------------
    def _page_bounds(self, keys: np.ndarray) -> Tuple[np.ndarray, np.ndarray, List[np.ndarray]]:
        """Per-page element-wise min/max key bounds and the member indices."""
        n = keys.shape[0]
        page_indices: List[np.ndarray] = []
        mins = []
        maxs = []
        for start in range(0, n, self.page_size):
            members = np.arange(start, min(start + self.page_size, n))
            page_indices.append(members)
            mins.append(keys[members].min(axis=0))
            maxs.append(keys[members].max(axis=0))
        return np.stack(mins, axis=0), np.stack(maxs, axis=0), page_indices

    def _select_page_tokens(self, query: np.ndarray, keys: np.ndarray) -> np.ndarray:
        """Select token indices from the top pages by Quest's upper-bound score."""
        mins, maxs, page_indices = self._page_bounds(keys)
        num_pages = len(page_indices)
        if num_pages <= self.num_pages:
            return np.arange(keys.shape[0], dtype=np.int64)

        # Quest criticality: upper bound of q . k over the page's bounding
        # box is sum over dims of max(q_i * min_i, q_i * max_i).
        upper_per_dim = np.maximum(
            query[None, ...] * mins, query[None, ...] * maxs
        )  # [pages, h, d]
        page_scores = head_mean_scores(
            upper_per_dim.sum(axis=-1).transpose(1, 0)
        )
        chosen_pages = top_k_indices(page_scores, self.num_pages)
        # Always include the newest page so the current token attends to itself.
        chosen = set(int(p) for p in chosen_pages)
        chosen.add(num_pages - 1)
        selected = np.concatenate([page_indices[p] for p in sorted(chosen)])
        return np.sort(selected).astype(np.int64)


__all__ = ["QuestPolicy"]
