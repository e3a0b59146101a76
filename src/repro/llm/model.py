"""The numpy transformer language model used as the evaluation substrate.

:class:`TransformerLM` supports three execution modes:

* ``forward_full`` — dense causal attention over a whole sequence (no KV
  cache policy involved); used for reference outputs in tests.
* ``prefill`` / ``decode_step`` — the serial autoregressive path where each
  layer's KV cache is owned by a :class:`~repro.core.policy.KVCachePolicy`,
  so the same model can be evaluated under any pruning scheme.  It is the
  oracle the batched path is tested against.
* ``prefill_chunk_batched`` / ``decode_steps_batched`` /
  ``verify_steps_batched`` — the batched serving primitives: one packed
  prefill chunk per in-flight prompt, one group-vectorized decode step per
  active sequence, one speculative verify chunk per drafting sequence.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from ..core.group_decode import GroupDecodeStats, group_spans_for
from ..core.kv_pool import KVPoolGroup, SharedKVPages
from ..core.policy import FullCachePolicy, KVCachePolicy
from .attention_layer import LayerPrefill, MultiHeadSelfAttention
from .block import TransformerBlock
from .config import ModelConfig
from .mlp import MLP
from .ops import near_orthogonal_vectors
from .positional import sinusoidal_encoding

PolicyFactory = Callable[[int, int], KVCachePolicy]
"""Factory signature: ``factory(num_heads, head_dim) -> policy`` (one per layer)."""

PositionEncoder = Callable[[np.ndarray], np.ndarray]
"""Maps integer positions ``[n]`` to additive encodings ``[n, model_dim]``."""


@dataclass(eq=False)
class PrefillState:
    """Accumulated state of one partially prefilled prompt.

    ``layers[l]`` is layer ``l``'s :class:`~repro.llm.attention_layer.LayerPrefill`:
    prompt-sized ``[N, h, d]`` key, value and query buffers whose first
    ``processed`` rows are filled, plus the ``[h, N]`` column-sum
    accumulator its policy's static stage reads
    (:class:`~repro.core.static_pruning.ColumnSums`).  Chunk iterations
    write their rows in place and fold their attention probabilities into
    the sums as they compute them, so absorbing an ``N``-token prompt
    copies each row once and the whole state is O(N): no ``[h, N, N]``
    score matrix is ever kept.  Pruning policies must see the *unpruned*
    prompt rows at their final-chunk selection, so the state cannot be
    rebuilt from a policy's (possibly pruned) pool pages.

    ``fed`` counts the rows already handed to the policies via
    ``prefill_extend``; ``reused_tokens``/``prefix_pages`` describe a
    prefix restored from the serving layer's prefix cache (``prefix_pages``
    is consumed by the first chunk's policy feed, which is where zero-copy
    page adoption happens).
    """

    layers: List[LayerPrefill]
    processed: int = 0
    fed: int = 0
    reused_tokens: int = 0
    prefix_pages: Optional[List[Optional["SharedKVPages"]]] = None

    @property
    def total_tokens(self) -> int:
        """The prompt length the buffers are sized to."""
        return int(self.layers[0].keys.shape[0])

    def prompt_rows(self) -> List[Tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """Per-layer ``(keys, values, queries)`` of the processed rows — the
        prefix-cache insertion payload once the prompt is complete."""
        n = self.processed
        return [
            (layer.keys[:n], layer.values[:n], layer.queries[:n])
            for layer in self.layers
        ]

    @classmethod
    def preallocate(
        cls,
        num_layers: int,
        total_tokens: int,
        num_heads: int,
        head_dim: int,
        prefix: Optional[Sequence[tuple]] = None,
    ) -> "PrefillState":
        """An empty (or prefix-seeded) state sized to the whole prompt.

        ``total_tokens`` must be the prompt's full length.  ``prefix``
        optionally gives per-layer ``(keys, values, queries[, pages])``
        rows of a reused prefix, copied into the buffers once, here; later
        chunks append after it.
        """
        layers = [
            LayerPrefill.allocate(total_tokens, num_heads, head_dim)
            for _ in range(num_layers)
        ]
        p = 0
        pages: List[Optional["SharedKVPages"]] = [None] * num_layers
        if prefix is not None:
            if len(prefix) != num_layers:
                raise ValueError("one prefix state per layer is required")
            p = int(prefix[0][0].shape[0])
            if p >= total_tokens:
                raise ValueError("prefix must be strictly shorter than the prompt")
            for index, (layer, entry) in enumerate(zip(layers, prefix)):
                layer.keys[:p] = entry[0]
                layer.values[:p] = entry[1]
                layer.queries[:p] = entry[2]
                if len(entry) > 3:
                    pages[index] = entry[3]
        return cls(
            layers=layers,
            processed=p,
            fed=0,
            reused_tokens=p,
            prefix_pages=pages if any(pg is not None for pg in pages) else None,
        )


def default_position_encoder(model_dim: int) -> PositionEncoder:
    """Standard sinusoidal encoding spread over the full residual width."""
    dim = model_dim if model_dim % 2 == 0 else model_dim - 1

    def encode(positions: np.ndarray) -> np.ndarray:
        positions = np.asarray(positions, dtype=np.float64)
        enc = np.zeros(positions.shape + (model_dim,), dtype=np.float64)
        if dim >= 2:
            enc[..., :dim] = sinusoidal_encoding(positions, dim)
        return enc

    return encode


class TransformerLM:
    """Decoder-only transformer with pluggable KV cache policies."""

    def __init__(
        self,
        config: ModelConfig,
        embedding: Optional[np.ndarray] = None,
        unembedding: Optional[np.ndarray] = None,
        blocks: Optional[List[TransformerBlock]] = None,
        position_encoder: Optional[PositionEncoder] = None,
    ) -> None:
        self.config = config
        rng = np.random.default_rng(config.seed)

        if embedding is None:
            embedding = near_orthogonal_vectors(
                config.vocab_size, config.model_dim, seed=config.seed
            )
        self.embedding = np.asarray(embedding, dtype=np.float64)
        if self.embedding.shape != (config.vocab_size, config.model_dim):
            raise ValueError("embedding must have shape [vocab, model_dim]")

        if unembedding is None:
            unembedding = self.embedding.T.copy()
        self.unembedding = np.asarray(unembedding, dtype=np.float64)
        if self.unembedding.shape != (config.model_dim, config.vocab_size):
            raise ValueError("unembedding must have shape [model_dim, vocab]")

        if blocks is None:
            blocks = [
                TransformerBlock(
                    MultiHeadSelfAttention(
                        config.model_dim,
                        config.num_heads,
                        config.head_dim,
                        seed=config.seed + 101 * (layer + 1),
                    ),
                    MLP(
                        config.model_dim,
                        config.mlp_hidden_dim,
                        seed=config.seed + 211 * (layer + 1),
                    ),
                    use_layernorm=config.use_layernorm,
                )
                for layer in range(config.num_layers)
            ]
        if len(blocks) != config.num_layers:
            raise ValueError("number of blocks must equal config.num_layers")
        self.blocks = blocks

        self.position_encoder = position_encoder or default_position_encoder(
            config.model_dim
        )
        self._rng = rng

    # ------------------------------------------------------------------
    # Embedding / unembedding
    # ------------------------------------------------------------------
    def embed(self, token_ids: Sequence[int], positions: Sequence[int]) -> np.ndarray:
        """Token embeddings plus positional encodings, shape ``[n, model_dim]``."""
        ids = np.asarray(list(token_ids), dtype=np.int64)
        pos = np.asarray(list(positions), dtype=np.int64)
        if ids.shape != pos.shape:
            raise ValueError("token_ids and positions must have the same length")
        if ids.size and (ids.min() < 0 or ids.max() >= self.config.vocab_size):
            raise ValueError("token id out of range")
        return self.embedding[ids] + self.position_encoder(pos)

    def logits_from_hidden(self, hidden: np.ndarray) -> np.ndarray:
        """Unembed hidden states into vocabulary logits."""
        return np.asarray(hidden, dtype=np.float64) @ self.unembedding

    # ------------------------------------------------------------------
    # Dense reference path
    # ------------------------------------------------------------------
    def forward_full(self, token_ids: Sequence[int]) -> np.ndarray:
        """Dense forward pass over a full sequence; returns logits ``[n, vocab]``."""
        n = len(token_ids)
        x = self.embed(token_ids, range(n))
        for block in self.blocks:
            x, _ = block.prefill(x, policy=None)
        return self.logits_from_hidden(x)

    # ------------------------------------------------------------------
    # Policy-managed autoregressive path
    # ------------------------------------------------------------------
    def make_policies(
        self,
        factory: Optional[PolicyFactory] = None,
        kv_pools: Optional[KVPoolGroup] = None,
    ) -> List[KVCachePolicy]:
        """Instantiate one policy per layer from ``factory`` (default: full cache).

        ``kv_pools``, when given, binds layer ``i``'s policy to the shared
        per-layer page arena ``kv_pools.layer(i)`` (see
        :mod:`repro.core.kv_pool`): its K/V rows are then gathered through a
        block table over pool pages shared with every other sequence of the
        serving engine, instead of a private dense array.
        """
        if factory is None:
            factory = lambda heads, dim: FullCachePolicy(heads, dim)  # noqa: E731
        if kv_pools is not None and kv_pools.num_layers != self.config.num_layers:
            raise ValueError(
                "kv_pools must have one pool per transformer layer"
            )
        policies = [
            factory(self.config.num_heads, self.config.head_dim)
            for _ in range(self.config.num_layers)
        ]
        if kv_pools is not None:
            for layer, policy in enumerate(policies):
                policy.attach_pool(kv_pools.layer(layer))
        return policies

    def prefill(
        self,
        prompt_ids: Sequence[int],
        policies: List[KVCachePolicy],
    ) -> np.ndarray:
        """Run the prompt through every layer, filling each policy's cache.

        Returns the logits for the next-token prediction at the final prompt
        position, shape ``[vocab]``.
        """
        if len(policies) != self.config.num_layers:
            raise ValueError("one policy per layer is required")
        n = len(prompt_ids)
        if n < 1:
            raise ValueError("prompt must contain at least one token")
        x = self.embed(prompt_ids, range(n))
        for block, policy in zip(self.blocks, policies):
            x, _ = block.prefill(x, policy)
        logits = self.logits_from_hidden(x[-1])
        return logits

    def prefill_chunk_batched(
        self,
        chunks: Sequence[Sequence[int]],
        states: Sequence[Optional[PrefillState]],
        policies_per_sequence: Sequence[Optional[List[KVCachePolicy]]],
        finals: Sequence[bool],
    ) -> Tuple[List[Optional[np.ndarray]], List[PrefillState]]:
        """Run one chunk iteration for ``B`` independent in-flight prefills.

        ``chunks[b]`` is sequence ``b``'s next span of prompt token ids;
        ``states[b]`` is its accumulated :class:`PrefillState`, sized to
        the whole prompt, and ``finals[b]`` marks the chunk that completes
        the prompt.  ``states[b] = None`` is allowed for a final chunk only:
        the chunk is then the whole prompt and its state is built here.
        All chunks' tokens are embedded and pushed through every layer as
        one packed ragged batch — one packed Q/K/V GEMM and one packed
        output GEMM over the scheduled chunk rows — while each sequence's
        chunk queries attend against its own accumulated prior K/V.
        Policies are fed incrementally via ``prefill_extend`` (final-chunk
        semantics are identical to the serial :meth:`prefill` for every
        backend).

        Returns ``(logits, states)``: ``logits[b]`` is the next-token
        distribution ``[vocab]`` for final chunks (``None`` otherwise — the
        unembedding of intermediate rows is never needed), and
        ``states[b]`` the state to carry into the next iteration (advanced
        in place).  At the final chunk
        :meth:`PrefillState.prompt_rows` is the prefix-cache insertion
        payload.
        """
        batch = len(chunks)
        if not (batch == len(states) == len(policies_per_sequence) == len(finals)):
            raise ValueError(
                "chunks, states, policies_per_sequence and finals must agree "
                "on batch size"
            )
        if batch == 0:
            return [], []
        for policies in policies_per_sequence:
            if policies is not None and len(policies) != self.config.num_layers:
                raise ValueError("one policy per layer is required")

        config = self.config
        chunk_lists = [[int(t) for t in chunk] for chunk in chunks]
        states = list(states)
        segments: List[tuple] = []
        tokens: List[int] = []
        positions: List[int] = []
        for b, chunk in enumerate(chunk_lists):
            if len(chunk) < 1:
                raise ValueError("every chunk must contain at least one token")
            if states[b] is None:
                if not finals[b]:
                    raise ValueError(
                        "a prompt prefilled over several chunks needs a "
                        "PrefillState sized to the whole prompt"
                    )
                states[b] = PrefillState.preallocate(
                    config.num_layers, len(chunk), config.num_heads,
                    config.head_dim,
                )
            state = states[b]
            end = state.processed + len(chunk)
            if end > state.total_tokens or (finals[b] and end != state.total_tokens):
                raise ValueError("chunks must add up to the prompt the state is sized to")
            start = len(tokens)
            tokens.extend(chunk)
            positions.extend(range(state.processed, end))
            segments.append((start, len(chunk)))

        x = self.embed(tokens, positions)
        starts = [state.processed for state in states]
        for layer, block in enumerate(self.blocks):
            layer_policies = [
                None if p is None else p[layer] for p in policies_per_sequence
            ]
            layer_extends = []
            for b, state in enumerate(states):
                pages = None
                if state.prefix_pages is not None and state.fed == 0:
                    pages = state.prefix_pages[layer]
                layer_extends.append(
                    (state.fed, bool(finals[b]), state.reused_tokens, pages)
                )
            x = block.prefill_chunk(
                x, segments, starts,
                [state.layers[layer] for state in states],
                layer_policies, layer_extends,
            )

        logits: List[Optional[np.ndarray]] = [None] * batch
        final_rows = []
        final_indices = []
        for b, (state, (start, length)) in enumerate(zip(states, segments)):
            state.processed += length
            state.fed = state.processed
            state.prefix_pages = None  # consumed by this chunk's policy feed
            if finals[b]:
                final_rows.append(x[start + length - 1])
                final_indices.append(b)
        if final_rows:
            final_logits = self.logits_from_hidden(np.stack(final_rows))
            for row, b in enumerate(final_indices):
                logits[b] = final_logits[row]
        return logits, states

    def decode_step(
        self,
        token_id: int,
        position: int,
        policies: List[KVCachePolicy],
    ) -> np.ndarray:
        """Process one generated token; returns next-token logits ``[vocab]``."""
        if len(policies) != self.config.num_layers:
            raise ValueError("one policy per layer is required")
        x_t = self.embed([token_id], [position])[0]
        for block, policy in zip(self.blocks, policies):
            x_t = block.decode(x_t, position, policy)
        return self.logits_from_hidden(x_t)

    def decode_steps_batched(
        self,
        token_ids: Sequence[int],
        positions: Sequence[int],
        policies_per_sequence: Sequence[List[KVCachePolicy]],
        telemetry: Optional[GroupDecodeStats] = None,
    ) -> np.ndarray:
        """Decode one token for each of ``B`` *independent* sequences.

        Every sequence owns its own per-layer policy list (its KV caches);
        the embedding, Q/K/V projections, MLP and unembedding are computed
        as single batched operations across all sequences, which is what
        makes multi-sequence serving faster than ``B`` serial
        :meth:`decode_step` calls.  Each policy's cached K/V rows are
        gathered through its block table over (possibly shared) pool pages
        — see :mod:`repro.core.kv_pool`.  Returns logits ``[B, vocab]``.

        The batch is partitioned into policy-homogeneous spans
        ``(key, start, length)`` — contiguous same-policy runs, see
        :func:`~repro.core.group_decode.group_spans_for`; the serving
        scheduler orders its decode slots so these are its decode groups —
        and each span's selector/eviction/attention math runs as **one**
        vectorized :meth:`~repro.core.policy.KVCachePolicy.decode_step_group`
        call per layer instead of ``S`` per-sequence ``decode_step`` calls.
        Policies without a vectorized override (and singleton spans) fall
        back to per-sequence ``decode_step`` calls; dispatch counts
        accumulate in ``telemetry``.

        A batch of one is routed through :meth:`decode_step` so that
        single-sequence generation is bit-for-bit the serial path.
        """
        batch = len(token_ids)
        if not (batch == len(positions) == len(policies_per_sequence)):
            raise ValueError(
                "token_ids, positions and policies_per_sequence must agree "
                "on batch size"
            )
        if batch == 0:
            return np.empty((0, self.config.vocab_size), dtype=np.float64)
        for policies in policies_per_sequence:
            if len(policies) != self.config.num_layers:
                raise ValueError("one policy per layer is required")
        if batch == 1:
            logits = self.decode_step(
                int(token_ids[0]), int(positions[0]), policies_per_sequence[0]
            )
            return logits[None, :]
        spans = group_spans_for(policies_per_sequence)
        x = self.embed(token_ids, positions)  # [B, model_dim]
        for layer, block in enumerate(self.blocks):
            layer_policies = [p[layer] for p in policies_per_sequence]
            x = block.decode_group(x, positions, layer_policies, spans, telemetry)
        return self.logits_from_hidden(x)

    def verify_steps_batched(
        self,
        token_chunks: Sequence[Sequence[int]],
        start_positions: Sequence[int],
        policies_per_sequence: Sequence[List[KVCachePolicy]],
    ) -> List[np.ndarray]:
        """Verify per-sequence draft chunks in **one** batched forward.

        The speculative-decode verify primitive: sequence ``b`` feeds
        ``token_chunks[b]`` — its last committed token followed by its
        draft tokens — at positions ``start_positions[b] ..``.  All chunks
        are packed padding-free into one embedding call, one packed Q/K/V
        GEMM + output GEMM per layer (:meth:`TransformerBlock.verify_chunk`)
        and one packed unembedding, so k draft tokens cost roughly one
        engine-step forward instead of k.  Each layer policy *stages* its
        chunk rows via ``begin_speculation``; the caller inspects the
        returned logits (``logits[b][i]`` = next-token logits after feeding
        chunk token ``i``), accepts the longest matching prefix, and
        settles every policy with ``commit_speculation(kept)`` — which this
        method deliberately does **not** do, so a caller that dies mid-scan
        can still roll everything back.

        Returns one ``[len(token_chunks[b]), vocab]`` logits array per
        sequence.
        """
        batch = len(token_chunks)
        if not (batch == len(start_positions) == len(policies_per_sequence)):
            raise ValueError(
                "token_chunks, start_positions and policies_per_sequence "
                "must agree on batch size"
            )
        for policies in policies_per_sequence:
            if len(policies) != self.config.num_layers:
                raise ValueError("one policy per layer is required")
        segments: List[Tuple[int, int]] = []
        tokens: List[int] = []
        positions: List[int] = []
        start = 0
        for chunk, pos0 in zip(token_chunks, start_positions):
            length = len(chunk)
            if length < 1:
                raise ValueError("every verify chunk needs at least one token")
            segments.append((start, length))
            tokens.extend(int(t) for t in chunk)
            positions.extend(range(int(pos0), int(pos0) + length))
            start += length
        x = self.embed(tokens, positions)  # [total, model_dim]
        for layer, block in enumerate(self.blocks):
            layer_policies = [p[layer] for p in policies_per_sequence]
            x = block.verify_chunk(x, segments, layer_policies, start_positions)
        logits = self.logits_from_hidden(x)
        return [logits[s : s + length] for s, length in segments]

    # ------------------------------------------------------------------
    def parameter_count(self) -> int:
        total = int(self.embedding.size + self.unembedding.size)
        for block in self.blocks:
            total += block.parameter_count()
        return total


__all__ = [
    "PrefillState",
    "TransformerLM",
    "PolicyFactory",
    "default_position_encoder",
]
