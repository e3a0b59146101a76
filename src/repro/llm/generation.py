"""Autoregressive generation loop over a policy-managed KV cache.

:func:`greedy_generate` routes through the batched serving engine
(:mod:`repro.serving`) as a batch of one; :func:`greedy_generate_serial`
keeps the original single-sequence loop over standalone policies as the
reference the engine is tested against.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from ..core.policy import KVCachePolicy, PolicyStats
from ..serving.engine import BatchedEngine, ServingRequest
from .model import PolicyFactory, TransformerLM


@dataclass
class GenerationResult:
    """Output of :func:`greedy_generate`.

    Attributes
    ----------
    token_ids:
        The generated token ids (prompt excluded).
    prompt_length:
        Number of prompt tokens.
    policy_stats:
        Per-layer policy statistics (cache sizes, evictions, ...).
    logits_history:
        Optional per-step logits (kept only when requested).
    """

    token_ids: List[int]
    prompt_length: int
    policy_stats: List[PolicyStats] = field(default_factory=list)
    logits_history: Optional[List[np.ndarray]] = None

    @property
    def num_generated(self) -> int:
        return len(self.token_ids)


def greedy_generate(
    model: TransformerLM,
    prompt_ids: Sequence[int],
    max_new_tokens: int,
    policy_factory: Optional[PolicyFactory] = None,
    stop_ids: Optional[Sequence[int]] = None,
    keep_logits: bool = False,
) -> GenerationResult:
    """Greedy decoding with a fresh policy per layer.

    Parameters
    ----------
    model:
        The transformer language model.
    prompt_ids:
        Prompt token ids (must be non-empty).
    max_new_tokens:
        Maximum number of tokens to generate.
    policy_factory:
        ``factory(num_heads, head_dim) -> KVCachePolicy``; defaults to the
        full-cache policy.
    stop_ids:
        Token ids that terminate generation (the stop token itself is not
        included in the output).
    keep_logits:
        Keep the per-step logits for analysis.
    """
    # A fresh engine's prefix cache could never hit; skip building it.
    engine = BatchedEngine(
        model, policy_factory, max_batch_size=1, prefix_caching=False
    )
    engine.submit(
        ServingRequest(
            prompt_ids=prompt_ids,
            max_new_tokens=max_new_tokens,
            stop_ids=stop_ids,
            keep_logits=keep_logits,
        )
    )
    response = engine.run()[0]
    return GenerationResult(
        token_ids=response.token_ids,
        prompt_length=response.prompt_length,
        policy_stats=response.policy_stats,
        logits_history=response.logits_history if keep_logits else None,
    )


def greedy_generate_serial(
    model: TransformerLM,
    prompt_ids: Sequence[int],
    max_new_tokens: int,
    policy_factory: Optional[PolicyFactory] = None,
    stop_ids: Optional[Sequence[int]] = None,
    keep_logits: bool = False,
) -> GenerationResult:
    """The original strictly-serial decode loop (reference implementation).

    Kept as the ground truth the batched engine is verified against:
    ``BatchedEngine`` must produce identical token ids for the same model,
    prompts and policy configuration at any batch size.
    """
    prompt_ids = list(int(t) for t in prompt_ids)
    if not prompt_ids:
        raise ValueError("prompt_ids must not be empty")
    if max_new_tokens < 0:
        raise ValueError("max_new_tokens must be >= 0")
    stop_set = set(int(t) for t in stop_ids) if stop_ids else set()

    policies: List[KVCachePolicy] = model.make_policies(policy_factory)
    logits = model.prefill(prompt_ids, policies)

    generated: List[int] = []
    logits_history: List[np.ndarray] = []
    position = len(prompt_ids)

    for step in range(max_new_tokens):
        next_id = int(np.argmax(logits))
        if next_id in stop_set:
            break
        generated.append(next_id)
        if keep_logits:
            logits_history.append(np.asarray(logits, dtype=np.float64))
        if step + 1 >= max_new_tokens:
            # The budget is spent: decoding the final emitted token would
            # only produce logits that are immediately discarded.
            break
        logits = model.decode_step(next_id, position, policies)
        position += 1

    return GenerationResult(
        token_ids=generated,
        prompt_length=len(prompt_ids),
        policy_stats=[policy.stats for policy in policies],
        logits_history=logits_history if keep_logits else None,
    )


def generate_text(
    model: TransformerLM,
    tokenizer,
    prompt: str,
    max_new_tokens: int,
    policy_factory: Optional[PolicyFactory] = None,
    stop_tokens: Optional[Sequence[str]] = None,
) -> str:
    """Convenience wrapper: prompt text in, generated text out."""
    prompt_ids = tokenizer.encode(prompt)
    stop_ids = None
    if stop_tokens:
        stop_ids = [tokenizer.token_to_id(tok) for tok in stop_tokens]
    result = greedy_generate(
        model,
        prompt_ids,
        max_new_tokens,
        policy_factory=policy_factory,
        stop_ids=stop_ids,
    )
    return tokenizer.decode(result.token_ids)


__all__ = [
    "GenerationResult",
    "greedy_generate",
    "greedy_generate_serial",
    "generate_text",
]
