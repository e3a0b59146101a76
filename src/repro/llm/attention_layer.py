"""Multi-head self-attention layer with pluggable KV cache policies.

The layer has two execution paths:

* :meth:`MultiHeadSelfAttention.prefill_chunk` (and its one-prompt,
  one-chunk form :meth:`~MultiHeadSelfAttention.prefill`) — exact causal
  attention over prompt rows through :func:`causal_prefill`, which also
  streams the column sums a policy's prefill-time pruning reads (one-shot
  static pruning for UniCAIM, observation-window compression for SnapKV,
  ...) out of the probabilities it computes.
* :meth:`MultiHeadSelfAttention.decode` — one token at a time; the policy
  owns the cached keys/values and performs the (possibly sparse) attention.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from ..core.group_decode import GroupDecodeStats, run_group_decode
from ..core.policy import KVCachePolicy
from ..core.static_pruning import ColumnSums

#: Query rows per block of :func:`causal_prefill`.  Its temporaries are
#: ``[h, PREFILL_ROW_BLOCK + 1, n]`` however long the chunk is, so even a
#: whole long prompt in one chunk never builds an ``[h, n, n]`` array.
PREFILL_ROW_BLOCK = 256

# ``_FUTURE[i, j]``: in a block's trailing square, query row ``i`` does not
# see key ``j``.
_FUTURE = np.triu(np.ones((PREFILL_ROW_BLOCK, PREFILL_ROW_BLOCK), dtype=bool), k=1)


def causal_prefill(
    queries: np.ndarray,
    keys: np.ndarray,
    values: np.ndarray,
    start: int,
    scale: float,
    out: Optional[np.ndarray] = None,
    sums: Optional[ColumnSums] = None,
) -> None:
    """Exact causal attention of one prompt's query rows, in row blocks.

    ``queries`` is ``[m, h, d]``, the rows at prompt positions ``start ..
    start + m - 1``; ``keys``/``values`` hold at least the prompt's first
    ``start + m`` rows (``[>= start + m, h, d]``).  Each block of
    :data:`PREFILL_ROW_BLOCK` rows computes its scaled scores against the
    keys it can see with one ``np.matmul`` per head, masks the future,
    softmaxes in place and writes ``probs @ V`` into ``out`` (``[m, h,
    d]``; ``None`` skips it — a replay that only rebuilds ``sums``).  If
    ``sums`` is given, the block's rows are folded into it — the raw
    scaled scores (masked entries zero) or the probabilities, as its need
    says — and the block is dropped.

    The serial reference and the serving engine's whole-prompt prefill
    make the same call, so they agree bit for bit.  A chunk or prefix-hit
    boundary changes the BLAS tiling of the rows after it, which can move
    their results in the last bits; their column sums are still added
    row by row in position order.
    """
    m, num_heads, _ = queries.shape
    q_h = queries.transpose(1, 0, 2)  # [h, m, d]
    k_h = keys.transpose(1, 2, 0)  # [h, d, N]
    v_h = values.transpose(1, 0, 2)  # [h, N, d]
    raw = sums is not None and not sums.need.softmax
    # One workspace for every block: a fresh array per block would keep
    # two blocks alive across each iteration's rebinding.
    workspace = np.empty(
        num_heads * (min(m, PREFILL_ROW_BLOCK) + 1) * (start + m)
    )
    for r0 in range(0, m, PREFILL_ROW_BLOCK):
        r1 = min(m, r0 + PREFILL_ROW_BLOCK)
        rows = r1 - r0
        n = start + r1  # keys visible to the block's last row
        # Index 0 is ColumnSums.fold's spare row; query rows follow.
        block = workspace[: num_heads * (rows + 1) * n].reshape(
            num_heads, rows + 1, n
        )
        scores = block[:, 1:, :]
        np.matmul(q_h[:, r0:r1], k_h[:, :, :n], out=scores)
        scores *= scale
        # Only the trailing [rows, rows] square holds keys in the future
        # of some row of the block.
        future = _FUTURE[:rows, :rows]
        square = scores[:, :, n - rows:]
        if raw:
            np.copyto(square, 0.0, where=future)
            sums.fold(block, start + r0)
        np.copyto(square, -np.inf, where=future)
        scores -= scores.max(axis=-1, keepdims=True)
        np.exp(scores, out=scores)
        scores /= scores.sum(axis=-1, keepdims=True)
        if out is not None:
            np.matmul(scores, v_h[:, :n], out=out[r0:r1].transpose(1, 0, 2))
        if sums is not None and not raw:
            sums.fold(block, start + r0)


@dataclass(eq=False)
class LayerPrefill:
    """One layer's prompt-sized prefill buffers.

    ``keys``, ``values`` and ``queries`` are ``[N, h, d]`` for the whole
    ``N``-token prompt; chunk iterations write their rows in place, after
    any rows already there (earlier chunks, a reused prefix).  ``sums`` is
    the ``[h, N]`` column-sum accumulator the layer's policy needs
    (:attr:`~repro.core.policy.KVCachePolicy.prefill_need`), created at the
    first chunk; ``None`` when the policy reads no scores.
    """

    keys: np.ndarray
    values: np.ndarray
    queries: np.ndarray
    sums: Optional[ColumnSums] = None

    @classmethod
    def allocate(cls, total_tokens: int, num_heads: int, head_dim: int) -> "LayerPrefill":
        if total_tokens < 1:
            raise ValueError("total_tokens must be >= 1")
        shape = (int(total_tokens), int(num_heads), int(head_dim))
        return cls(np.zeros(shape), np.zeros(shape), np.zeros(shape))


class MultiHeadSelfAttention:
    """Self-attention with separate Q/K/V/O projections per head.

    Weights
    -------
    ``w_q``, ``w_k``, ``w_v`` have shape ``[heads, model_dim, head_dim]`` and
    ``w_o`` has shape ``[heads, head_dim, model_dim]``.  Biases are omitted —
    neither the random test model nor the hand-constructed induction model
    needs them.
    """

    def __init__(
        self,
        model_dim: int,
        num_heads: int,
        head_dim: int,
        w_q: Optional[np.ndarray] = None,
        w_k: Optional[np.ndarray] = None,
        w_v: Optional[np.ndarray] = None,
        w_o: Optional[np.ndarray] = None,
        seed: int = 0,
    ) -> None:
        if model_dim < 1 or num_heads < 1 or head_dim < 1:
            raise ValueError("model_dim, num_heads and head_dim must be >= 1")
        self.model_dim = int(model_dim)
        self.num_heads = int(num_heads)
        self.head_dim = int(head_dim)
        self.scale = 1.0 / float(head_dim) ** 0.5

        rng = np.random.default_rng(seed)
        shape_in = (num_heads, model_dim, head_dim)
        shape_out = (num_heads, head_dim, model_dim)
        std = 1.0 / np.sqrt(model_dim)
        self.w_q = self._init_weight(w_q, shape_in, rng, std)
        self.w_k = self._init_weight(w_k, shape_in, rng, std)
        self.w_v = self._init_weight(w_v, shape_in, rng, std)
        self.w_o = self._init_weight(w_o, shape_out, rng, 1.0 / np.sqrt(head_dim))
        # Packed 2-D copies of the projection weights for the batched decode
        # path: one BLAS GEMM per step instead of per-head einsums.  Built
        # lazily so models that never batch pay nothing.
        self._w_qkv_packed: Optional[np.ndarray] = None
        self._w_o_packed: Optional[np.ndarray] = None

    @staticmethod
    def _init_weight(
        given: Optional[np.ndarray],
        shape: Tuple[int, int, int],
        rng: np.random.Generator,
        std: float,
    ) -> np.ndarray:
        if given is not None:
            arr = np.asarray(given, dtype=np.float64)
            if arr.shape != shape:
                raise ValueError(f"weight must have shape {shape}, got {arr.shape}")
            return arr.copy()
        return rng.normal(0.0, std, size=shape)

    # ------------------------------------------------------------------
    def project_qkv(self, x: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Project hidden states ``[n, model_dim]`` to per-head q/k/v ``[n, h, d]``."""
        x = np.asarray(x, dtype=np.float64)
        single = x.ndim == 1
        if single:
            x = x[None, :]
        q = np.einsum("nm,hmd->nhd", x, self.w_q)
        k = np.einsum("nm,hmd->nhd", x, self.w_k)
        v = np.einsum("nm,hmd->nhd", x, self.w_v)
        if single:
            return q[0], k[0], v[0]
        return q, k, v

    def output_projection(self, head_outputs: np.ndarray) -> np.ndarray:
        """Combine per-head outputs ``[..., h, d]`` into ``[..., model_dim]``."""
        return np.einsum("...hd,hdm->...m", head_outputs, self.w_o)

    def _packed_weights(self) -> Tuple[np.ndarray, np.ndarray]:
        """2-D GEMM-friendly views of the Q/K/V and output weights.

        ``w_qkv_packed`` is ``[model_dim, 3 * heads * head_dim]`` (Q, K, V
        concatenated); ``w_o_packed`` is ``[heads * head_dim, model_dim]``.
        The contraction over ``model_dim`` is element-for-element the same
        as the per-head einsum, but a single BLAS call serves the whole
        batch.
        """
        if self._w_qkv_packed is None:
            hd = self.num_heads * self.head_dim
            packed = np.empty((self.model_dim, 3 * hd), dtype=np.float64)
            for i, w in enumerate((self.w_q, self.w_k, self.w_v)):
                # [h, m, d] -> [m, h, d] -> [m, h*d]
                packed[:, i * hd:(i + 1) * hd] = (
                    w.transpose(1, 0, 2).reshape(self.model_dim, hd)
                )
            self._w_qkv_packed = packed
            # [h, d, m] -> [h*d, m]
            self._w_o_packed = self.w_o.reshape(hd, self.model_dim).copy()
        return self._w_qkv_packed, self._w_o_packed

    # ------------------------------------------------------------------
    def prefill(
        self,
        x: np.ndarray,
        policy: Optional[KVCachePolicy] = None,
    ) -> Tuple[np.ndarray, Optional[ColumnSums]]:
        """Causal self-attention over a whole prompt — the serial reference.

        The one-prompt, one-chunk case of :meth:`prefill_chunk`, so the
        reference and the serving engine share every operation.  Returns
        ``(output [n, model_dim], sums)``; if a policy is given it is fed
        the prompt's keys and values, and ``sums`` is the column-sum
        accumulator its static stage read (``None`` without a need).
        """
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != self.model_dim:
            raise ValueError(f"x must be [n, {self.model_dim}]")
        n = x.shape[0]
        layer = LayerPrefill.allocate(n, self.num_heads, self.head_dim)
        output = self.prefill_chunk(
            x, [(0, n)], [0], [layer], [policy], [(0, True, 0, None)]
        )
        return output, layer.sums

    def prefill_chunk(
        self,
        x: np.ndarray,
        segments: Sequence[Tuple[int, int]],
        positions: Sequence[int],
        layers: Sequence[LayerPrefill],
        policies: Sequence[Optional[KVCachePolicy]],
        extends: Sequence[tuple],
    ) -> np.ndarray:
        """Padding-free causal attention over one *chunk* of several prompts.

        This is the iteration primitive of chunked prefill: ``x`` holds the
        (normed) hidden states of every sequence's chunk tokens,
        concatenated with no padding; ``segments[b] = (start, length)`` is
        sequence ``b``'s row range.  The Q/K/V projection is one packed
        GEMM over all rows, and the output projection one packed GEMM over
        all head outputs; only the per-sequence causal attention
        (:func:`causal_prefill`) is looped, because every sequence has its
        own key set.

        ``positions[b] = p`` is the prompt position of sequence ``b``'s
        first chunk token and ``layers[b]`` its :class:`LayerPrefill`,
        whose first ``p`` rows hold the prior — earlier chunks of the same
        prompt and/or a prefix restored from
        :mod:`repro.serving.prefix_cache`.  The chunk's Q/K/V rows are
        written after them in place and its queries attend against all
        ``p + length`` keys.  A whole-prompt prefill is the one-chunk
        special case (``p = 0``).

        At the first chunk the layer creates the column-sum accumulator
        the sequence's policy needs; a reused prefix's rows are replayed
        into it from their cached queries and keys through the same
        kernel (their attention output is not recomputed).

        ``extends[b]`` is ``(fed, final, reused_tokens, prefix_pages)``
        describing how to feed sequence ``b``'s policy: the cumulative
        ``(keys, values)`` rows are handed to
        :meth:`~repro.core.policy.KVCachePolicy.prefill_extend` with
        ``start=fed`` (rows already fed by earlier chunks), so incremental
        backends commit just the new rows while deferred backends wait for
        ``final``, where they receive the accumulated token scores.
        ``prefix_pages`` carries the shared pool pages of a reused prefix
        (:class:`~repro.core.kv_pool.SharedKVPages`) for zero-copy
        adoption on the first chunk.

        Returns the attention output ``[total, model_dim]``.
        """
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != self.model_dim:
            raise ValueError(f"x must be [total, {self.model_dim}]")
        if not (
            len(segments) == len(positions) == len(layers) == len(policies)
            == len(extends)
        ):
            raise ValueError(
                "segments, positions, layers, policies and extends must agree "
                "on batch size"
            )
        total = x.shape[0]
        hd = self.num_heads * self.head_dim
        w_qkv, w_o = self._packed_weights()
        qkv = (x @ w_qkv).reshape(total, 3, self.num_heads, self.head_dim)

        head_out = np.empty((total, self.num_heads, self.head_dim))
        for b, ((start, length), p, layer, policy) in enumerate(
            zip(segments, positions, layers, policies)
        ):
            if length < 1:
                raise ValueError("every segment must cover at least one token")
            rows = slice(start, start + length)
            n = p + length
            if n > layer.keys.shape[0]:
                raise ValueError("chunk extends past the prompt buffers")
            layer.queries[p:n] = qkv[rows, 0]
            layer.keys[p:n] = qkv[rows, 1]
            layer.values[p:n] = qkv[rows, 2]

            need = None if policy is None else policy.prefill_need
            if need is not None and layer.sums is None:
                layer.sums = ColumnSums(
                    need, self.num_heads, layer.keys.shape[0]
                )
            sums = layer.sums
            if sums is not None and sums.rows < p:
                causal_prefill(
                    layer.queries[sums.rows:p], layer.keys, layer.values,
                    sums.rows, self.scale, sums=sums,
                )
            causal_prefill(
                layer.queries[p:n], layer.keys, layer.values, p, self.scale,
                out=head_out[rows], sums=sums,
            )

            if policy is not None:
                fed, final, reused, pages = extends[b]
                policy.prefill_extend(
                    layer.keys[:n],
                    layer.values[:n],
                    token_scores=(
                        sums.token_scores() if final and sums is not None else None
                    ),
                    start=fed,
                    final=final,
                    reused_tokens=reused,
                    prefix_pages=pages,
                )

        return head_out.reshape(total, hd) @ w_o

    def decode(
        self,
        x_t: np.ndarray,
        position: int,
        policy: KVCachePolicy,
    ) -> np.ndarray:
        """One decoding step through the policy-managed KV cache."""
        x_t = np.asarray(x_t, dtype=np.float64)
        if x_t.shape != (self.model_dim,):
            raise ValueError(f"x_t must be [{self.model_dim}]")
        q, k, v = self.project_qkv(x_t)
        head_out = policy.decode_step(q, k, v, position)
        return self.output_projection(head_out)

    def decode_group(
        self,
        x: np.ndarray,
        positions: Sequence[int],
        policies: Sequence[KVCachePolicy],
        groups: Sequence[Tuple[str, int, int]],
        telemetry: Optional[GroupDecodeStats] = None,
    ) -> np.ndarray:
        """One decoding step for ``B`` independent sequences at once.

        The Q/K/V and output projections are one packed GEMM each across
        the whole step; each sequence owns its own KV cache, and the
        cache-side middle runs as one
        :meth:`~repro.core.policy.KVCachePolicy.decode_step_group` call per
        policy-homogeneous span of ``groups`` (spans ``(key, start,
        length)`` over the batch order).  Spans whose policy lacks a vectorized
        override — and singleton spans, where batching buys nothing — fall
        back to the per-sequence loop, so arbitrary policy subclasses keep
        working.  Dispatch counts land in ``telemetry``.
        """
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != self.model_dim:
            raise ValueError(f"x must be [batch, {self.model_dim}]")
        if not (x.shape[0] == len(positions) == len(policies)):
            raise ValueError("x, positions and policies must agree on batch size")
        batch = x.shape[0]
        hd = self.num_heads * self.head_dim
        w_qkv, w_o = self._packed_weights()
        qkv = (x @ w_qkv).reshape(batch, 3, self.num_heads, self.head_dim)
        head_out = run_group_decode(
            qkv[:, 0],
            qkv[:, 1],
            qkv[:, 2],
            positions,
            policies,
            spans=groups,
            telemetry=telemetry,
        )
        return head_out.reshape(batch, hd) @ w_o

    def verify_chunk(
        self,
        x: np.ndarray,
        segments: Sequence[Tuple[int, int]],
        policies: Sequence[KVCachePolicy],
        start_positions: Sequence[int],
    ) -> np.ndarray:
        """Speculative-verify attention over per-sequence draft chunks.

        ``x`` packs every sequence's k-token verify chunk with no padding
        (``segments[b] = (start, length)``, the :meth:`prefill_chunk` row
        convention); sequence ``b``'s rows occupy logical positions
        ``start_positions[b] ..``.  The Q/K/V projection is one packed GEMM
        over all rows and the output projection one packed GEMM over all
        head outputs — the same two GEMMs :meth:`decode_group` amortizes
        over a batch, here amortized over ``k`` draft tokens per sequence
        as well.  The per-sequence middle hands each chunk to
        :meth:`~repro.core.policy.KVCachePolicy.begin_speculation`, which
        *stages* the rows: K/V land in (fresh or CoW-split) pool pages and
        row ``i`` attends exactly as the serial step at its position would,
        but nothing observable commits until the engine accepts a prefix
        and calls ``commit_speculation``.
        """
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != self.model_dim:
            raise ValueError(f"x must be [total, {self.model_dim}]")
        if not (len(segments) == len(policies) == len(start_positions)):
            raise ValueError(
                "segments, policies and start_positions must agree on "
                "batch size"
            )
        total = x.shape[0]
        hd = self.num_heads * self.head_dim
        w_qkv, w_o = self._packed_weights()
        qkv = (x @ w_qkv).reshape(total, 3, self.num_heads, self.head_dim)
        head_out = np.empty((total, self.num_heads, self.head_dim))
        for (start, length), _policy in zip(segments, policies):
            if length < 1:
                raise ValueError("every segment must cover at least one token")
        for (start, length), policy, position in zip(
            segments, policies, start_positions
        ):
            rows = slice(start, start + length)
            head_out[rows] = policy.begin_speculation(
                qkv[rows, 0], qkv[rows, 1], qkv[rows, 2], int(position)
            )
        return head_out.reshape(total, hd) @ w_o

    # ------------------------------------------------------------------
    def parameter_count(self) -> int:
        return int(
            self.w_q.size + self.w_k.size + self.w_v.size + self.w_o.size
        )


__all__ = [
    "LayerPrefill",
    "MultiHeadSelfAttention",
    "PREFILL_ROW_BLOCK",
    "causal_prefill",
]
