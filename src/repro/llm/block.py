"""Transformer block: (optional) pre-layernorm, attention, MLP, residuals."""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from ..core.policy import KVCachePolicy
from ..core.static_pruning import ColumnSums
from .attention_layer import MultiHeadSelfAttention
from .mlp import MLP
from .ops import layer_norm


class TransformerBlock:
    """One pre-norm transformer block with residual connections."""

    def __init__(
        self,
        attention: MultiHeadSelfAttention,
        mlp: MLP,
        use_layernorm: bool = True,
    ) -> None:
        if attention.model_dim != mlp.model_dim:
            raise ValueError("attention and mlp must share model_dim")
        self.attention = attention
        self.mlp = mlp
        self.use_layernorm = bool(use_layernorm)
        self.model_dim = attention.model_dim

    def _norm(self, x: np.ndarray) -> np.ndarray:
        if self.use_layernorm:
            return layer_norm(x)
        return np.asarray(x, dtype=np.float64)

    def prefill(
        self,
        x: np.ndarray,
        policy: Optional[KVCachePolicy] = None,
    ) -> Tuple[np.ndarray, Optional[ColumnSums]]:
        """Process the whole prompt; returns (hidden states, the column sums
        the policy's static stage read — ``None`` without a need)."""
        attn_in = self._norm(x)
        attn_out, sums = self.attention.prefill(attn_in, policy)
        x = np.asarray(x, dtype=np.float64) + attn_out
        x = x + self.mlp.forward(self._norm(x))
        return x, sums

    def prefill_chunk(
        self,
        x: np.ndarray,
        segments,
        positions,
        layers,
        policies,
        extends,
    ) -> np.ndarray:
        """Process one prefill chunk of several prompts (padding-free).

        Layernorm and the MLP broadcast over the packed chunk rows; the
        attention layer writes each sequence's chunk rows into its
        prompt-sized buffers ``layers[b]`` at prompt position
        ``positions[b]``, attends the chunk queries against everything
        before them (see :meth:`MultiHeadSelfAttention.prefill_chunk`) and
        feeds each policy incrementally through ``prefill_extend`` as
        ``extends`` describes.  Returns the packed hidden states of the
        chunk rows.
        """
        attn_in = self._norm(x)
        attn_out = self.attention.prefill_chunk(
            attn_in, segments, positions, layers, policies, extends
        )
        x = np.asarray(x, dtype=np.float64) + attn_out
        x = x + self.mlp.forward(self._norm(x))
        return x

    def decode(
        self,
        x_t: np.ndarray,
        position: int,
        policy: KVCachePolicy,
    ) -> np.ndarray:
        """Process one generated token through the policy-managed cache."""
        attn_in = self._norm(x_t)
        attn_out = self.attention.decode(attn_in, position, policy)
        x_t = np.asarray(x_t, dtype=np.float64) + attn_out
        x_t = x_t + self.mlp.forward(self._norm(x_t))
        return x_t

    def decode_group(
        self,
        x: np.ndarray,
        positions: Sequence[int],
        policies: Sequence[KVCachePolicy],
        groups,
        telemetry=None,
    ) -> np.ndarray:
        """Process one generated token per sequence, ``[B, model_dim]`` in/out.

        Layernorm and the MLP broadcast over the batch axis; the attention
        layer batches its projections and executes each policy-homogeneous
        span of ``groups`` as one vectorized ``decode_step_group`` call (see
        :meth:`MultiHeadSelfAttention.decode_group`).
        """
        attn_in = self._norm(x)
        attn_out = self.attention.decode_group(
            attn_in, positions, policies, groups, telemetry
        )
        x = np.asarray(x, dtype=np.float64) + attn_out
        x = x + self.mlp.forward(self._norm(x))
        return x

    def verify_chunk(
        self,
        x: np.ndarray,
        segments,
        policies: Sequence[KVCachePolicy],
        start_positions: Sequence[int],
    ) -> np.ndarray:
        """Speculative-verify pass over packed per-sequence draft chunks.

        Layernorm and the MLP broadcast over the packed rows exactly as in
        :meth:`decode_group`; the attention layer stages each sequence's
        chunk through its policy's ``begin_speculation`` (see
        :meth:`MultiHeadSelfAttention.verify_chunk`).
        """
        attn_in = self._norm(x)
        attn_out = self.attention.verify_chunk(
            attn_in, segments, policies, start_positions
        )
        x = np.asarray(x, dtype=np.float64) + attn_out
        x = x + self.mlp.forward(self._norm(x))
        return x

    def parameter_count(self) -> int:
        return self.attention.parameter_count() + self.mlp.parameter_count()


__all__ = ["TransformerBlock"]
