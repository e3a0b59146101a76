"""Multi-head self-attention layer with pluggable KV cache policies.

The layer has two execution paths:

* :meth:`MultiHeadSelfAttention.prefill` — full causal attention over the
  prompt, computed densely.  The per-head raw attention scores are handed
  to the KV cache policy so it can apply its prefill-time pruning
  (one-shot static pruning for UniCAIM, observation-window compression for
  SnapKV, ...).
* :meth:`MultiHeadSelfAttention.decode` — one token at a time; the policy
  owns the cached keys/values and performs the (possibly sparse) attention.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from ..core.attention import merge_heads, softmax
from ..core.group_decode import GroupDecodeStats, run_group_decode
from ..core.policy import KVCachePolicy


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
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Dense causal self-attention over the prompt.

        Returns ``(output [n, model_dim], raw_scores [h, n, n])`` and, if a
        policy is given, calls its ``prefill`` with the keys, values and the
        scaled raw scores.
        """
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != self.model_dim:
            raise ValueError(f"x must be [n, {self.model_dim}]")
        n = x.shape[0]
        q, k, v = self.project_qkv(x)

        # [h, n(query), n(key)]
        scores = np.einsum("qhd,khd->hqk", q, k) * self.scale
        causal = np.tril(np.ones((n, n), dtype=bool))
        masked = np.where(causal[None, :, :], scores, -np.inf)
        probs = softmax(masked, axis=-1)
        head_out = np.einsum("hqk,khd->qhd", probs, v)
        output = self.output_projection(head_out)

        if policy is not None:
            policy.prefill(k, v, attention_matrix=scores)
        return output, scores

    def prefill_chunk(
        self,
        x: np.ndarray,
        segments: Sequence[Tuple[int, int]],
        priors: Sequence[Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]]],
        policies: Sequence[Optional[KVCachePolicy]],
        extends: Sequence[tuple],
        buffers: Optional[Sequence[Optional[tuple]]] = None,
    ) -> Tuple[np.ndarray, list]:
        """Padding-free causal attention over one *chunk* of several prompts.

        This is the iteration primitive of chunked prefill: ``x`` holds the
        (normed) hidden states of every sequence's chunk tokens,
        concatenated with no padding; ``segments[b] = (start, length)`` is
        sequence ``b``'s row range.  The Q/K/V projection is one packed
        GEMM over all rows, and the output projection one packed GEMM over
        all head outputs; only the per-sequence causal attention blocks are
        looped, because every sequence has its own key set.

        ``priors[b]`` optionally supplies ``(keys [p, h, d], values
        [p, h, d], scores [h, p, p])`` covering the ``p`` prompt tokens
        *before* this chunk — earlier chunks of the same prompt and/or a
        prefix restored from :mod:`repro.serving.prefix_cache`; the chunk's
        queries attend against the prior keys concatenated with their own.
        A whole-prompt prefill is the one-chunk special case (``p = 0``).

        ``extends[b]`` is ``(fed, final, reused_tokens, prefix_pages)``
        describing how to feed sequence ``b``'s policy: the
        cumulative ``(k_full, v_full, scores)`` tensors are handed to
        :meth:`~repro.core.policy.KVCachePolicy.prefill_extend` with
        ``start=fed`` (rows already fed by earlier chunks), so incremental
        backends commit just the new rows while deferred backends wait for
        ``final``.  ``prefix_pages`` carries the shared pool pages of a
        reused prefix (:class:`~repro.core.kv_pool.SharedKVPages`) for
        zero-copy adoption on the first chunk.

        ``buffers[b]``, when given, is the sequence's full-prompt-sized
        ``(k_buf [N, h, d], v_buf [N, h, d], s_buf [h, N, N])``
        accumulation arrays (see
        :meth:`~repro.llm.model.PrefillState.preallocate`) whose first
        ``p`` rows/blocks already hold the prior; the chunk's keys, values
        and score rows are written *in place* and the returned tensors are
        growing views — no per-chunk re-copy of the accumulated state.

        The reused/prior score block is restored as-is and the causally
        masked queries-of-the-past block is left at zero (no downstream
        consumer sees masked entries), so chaining chunks reproduces the
        one-shot score matrix.

        Returns ``(output [total, model_dim], captured)`` where
        ``captured[b] = (keys [n, h, d], values [n, h, d], scores [h, n, n])``
        covers every prompt token processed so far — the next chunk's prior,
        and (at the final chunk) the prefix-cache insertion payload.
        """
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != self.model_dim:
            raise ValueError(f"x must be [total, {self.model_dim}]")
        if not (len(segments) == len(priors) == len(policies) == len(extends)):
            raise ValueError(
                "segments, priors, policies and extends must agree on batch "
                "size"
            )
        if buffers is not None and len(buffers) != len(segments):
            raise ValueError("buffers must match the batch size")
        total = x.shape[0]
        hd = self.num_heads * self.head_dim
        w_qkv, w_o = self._packed_weights()
        qkv = (x @ w_qkv).reshape(total, 3, self.num_heads, self.head_dim)

        head_out = np.empty((total, self.num_heads, self.head_dim))
        captured = []
        for b, ((start, length), prior, policy) in enumerate(
            zip(segments, priors, policies)
        ):
            if length < 1:
                raise ValueError("every segment must cover at least one token")
            rows = slice(start, start + length)
            q = qkv[rows, 0]
            if prior is None:
                p = 0
            else:
                prior_k, prior_v, prior_scores = prior
                p = prior_k.shape[0]
            n = p + length
            buffer = buffers[b] if buffers is not None else None

            # Scaled raw scores [h, n, n]: prior block restored, chunk
            # query rows computed fresh.  The remaining block (prior
            # queries x chunk keys) is causally masked everywhere it is
            # consumed, so it stays zero.
            if buffer is not None:
                # In-place accumulation: the prior already occupies the
                # buffers' first p rows/blocks (written by earlier chunks
                # or the prefix seed); only this chunk's rows are copied.
                k_buf, v_buf, s_buf = buffer
                if n > k_buf.shape[0]:
                    raise ValueError(
                        "chunk extends past the preallocated prompt buffers"
                    )
                k_buf[p:n] = qkv[rows, 1]
                v_buf[p:n] = qkv[rows, 2]
                k_full, v_full = k_buf[:n], v_buf[:n]
                scores = s_buf[:, :n, :n]
                chunk_scores = s_buf[:, p:n, :n]
                np.einsum("qhd,khd->hqk", q, k_full, out=chunk_scores)
                chunk_scores *= self.scale
            else:
                if p == 0:
                    k_full, v_full = qkv[rows, 1], qkv[rows, 2]
                else:
                    k_full = np.concatenate([prior_k, qkv[rows, 1]], axis=0)
                    v_full = np.concatenate([prior_v, qkv[rows, 2]], axis=0)
                scores = np.zeros((self.num_heads, n, n))
                if p:
                    scores[:, :p, :p] = prior_scores
                scores[:, p:, :] = (
                    np.einsum("qhd,khd->hqk", q, k_full) * self.scale
                )

            # Chunk query i sits at position p + i and sees keys <= p + i.
            visible = np.tril(np.ones((length, n), dtype=bool), k=p)
            masked = np.where(visible[None, :, :], scores[:, p:, :], -np.inf)
            probs = softmax(masked, axis=-1)
            head_out[rows] = np.einsum("hqk,khd->qhd", probs, v_full)

            if policy is not None:
                fed, final, reused, pages = extends[b]
                policy.prefill_extend(
                    k_full,
                    v_full,
                    attention_matrix=scores,
                    start=fed,
                    final=final,
                    reused_tokens=reused,
                    prefix_pages=pages,
                )
            captured.append((k_full, v_full, scores))

        output = head_out.reshape(total, hd) @ w_o
        return output, captured

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


__all__ = ["MultiHeadSelfAttention"]
