"""Accuracy-evaluation harness (paper Fig. 13).

The harness runs the hand-constructed induction model over a synthetic QA
dataset under different KV cache policies and cache-size ratios, and reports
the mean token-level F1 of the generated answers — the application-level
experiment of the paper, with the LLM and datasets replaced by their
synthetic substitutes (see DESIGN.md for the substitution argument).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from ..core.kv_pool import KVPoolGroup

from ..core.baselines import H2OPolicy, QuestPolicy, SnapKVPolicy, StreamingLLMPolicy
from ..core.config import PruningConfig
from ..core.dynamic_pruning import CAMApproximateSelector, CAMSelectorConfig
from ..core.hybrid import UniCAIMPolicy
from ..core.policy import FullCachePolicy, KVCachePolicy
from ..llm.generation import greedy_generate
from ..llm.induction import build_induction_model
from ..llm.model import PolicyFactory, TransformerLM
from ..llm.tokenizer import WordTokenizer
from ..serving import BatchedEngine, ServingRequest, ServingResponse
from .datasets import QADataset, QAExample
from .metrics import mean_metric, token_f1

DEFAULT_EVAL_BATCH_SIZE = 8
"""Sequences decoded concurrently when evaluating a dataset."""

POLICY_NAMES = ("full", "unicaim", "unicaim_cam", "snapkv", "streaming_llm", "h2o", "quest")


def build_policy_factory(
    name: str,
    prompt_length: int,
    cache_ratio: float,
    top_k_ratio: float = 0.25,
    seed: int = 0,
) -> PolicyFactory:
    """Create a per-layer policy factory for one (policy, cache ratio) point.

    ``cache_ratio`` is the fraction of the prompt's KV cache the policy may
    retain (the x-axis of Fig. 13); ``top_k_ratio`` is the fraction of the
    retained cache the dynamic policies attend to per step.
    """
    if name not in POLICY_NAMES:
        raise ValueError(f"unknown policy {name!r}; expected one of {POLICY_NAMES}")
    if not 0.0 < cache_ratio <= 1.0:
        raise ValueError("cache_ratio must be in (0, 1]")
    budget = max(8, int(round(prompt_length * cache_ratio)))

    if name == "full":
        return lambda heads, dim: FullCachePolicy(heads, dim)

    if name in ("unicaim", "unicaim_cam"):
        reserved = max(2, min(64, budget // 8))
        heavy = max(2, budget - reserved)
        top_k = max(4, int(round(budget * top_k_ratio)))
        config = PruningConfig(
            heavy_budget=heavy,
            reserved_budget=reserved,
            top_k=top_k,
            sink_tokens=2,
            recent_protect=4,
        )
        if name == "unicaim":
            return lambda heads, dim: UniCAIMPolicy(heads, dim, config=config)
        selector_config = CAMSelectorConfig(key_bits=3, query_bits=2, seed=seed)
        return lambda heads, dim: UniCAIMPolicy(
            heads, dim, config=config, selector=CAMApproximateSelector(selector_config)
        )

    if name == "snapkv":
        return lambda heads, dim: SnapKVPolicy.from_budget(
            heads, dim, budget=budget, observation_window=16
        )

    if name == "streaming_llm":
        return lambda heads, dim: StreamingLLMPolicy.from_budget(
            heads, dim, budget=budget, sink_tokens=4
        )

    if name == "h2o":
        return lambda heads, dim: H2OPolicy.from_budget(heads, dim, budget=budget)

    # Quest keeps the whole cache and only limits per-step attention.
    return lambda heads, dim: QuestPolicy.from_budget(
        heads, dim, budget=max(16, int(round(budget * top_k_ratio))), page_size=16
    )


@dataclass
class ExampleResult:
    """Per-example outcome of one policy evaluation."""

    example: QAExample
    prediction: str
    f1: float
    retained_after_prefill: int
    mean_attended: float


@dataclass
class PolicyEvaluation:
    """Aggregate accuracy of one policy at one cache ratio."""

    policy: str
    cache_ratio: float
    mean_f1: float
    results: List[ExampleResult] = field(default_factory=list)

    @property
    def num_examples(self) -> int:
        return len(self.results)


SALIENT_PREFIXES = ("key_", "bridge_", "val_")
"""Vocabulary prefixes of the fact tokens marked as salient for the model's
salience head (the synthetic stand-in for semantic importance)."""


def salient_token_ids(tokenizer: WordTokenizer) -> List[int]:
    """Ids of the fact-related words in a dataset tokenizer's vocabulary."""
    ids = []
    for token_id, word in enumerate(tokenizer.vocabulary()):
        if word.startswith(SALIENT_PREFIXES):
            ids.append(token_id)
    return ids


def build_task_model(tokenizer: WordTokenizer, seed: int = 0) -> TransformerLM:
    """The induction model sized for a dataset's vocabulary."""
    return build_induction_model(
        tokenizer.vocab_size,
        salient_token_ids=salient_token_ids(tokenizer),
        seed=seed,
    )


def evaluate_example(
    model: TransformerLM,
    tokenizer: WordTokenizer,
    example: QAExample,
    policy_factory: PolicyFactory,
) -> ExampleResult:
    """Generate the answer for one example under one policy and score it."""
    prompt_ids = tokenizer.encode(example.prompt)
    result = greedy_generate(
        model,
        prompt_ids,
        max_new_tokens=example.answer_length,
        policy_factory=policy_factory,
    )
    return _build_example_result(
        tokenizer, example, result.token_ids, result.policy_stats
    )


def _build_example_result(
    tokenizer: WordTokenizer,
    example: QAExample,
    token_ids: Sequence[int],
    policy_stats: Sequence,
) -> ExampleResult:
    """Score one generation (serial or batched) against its reference."""
    prediction = tokenizer.decode(list(token_ids))
    stats = policy_stats[-1] if policy_stats else None
    return ExampleResult(
        example=example,
        prediction=prediction,
        f1=token_f1(prediction, example.answer),
        retained_after_prefill=stats.retained_after_prefill if stats else 0,
        mean_attended=stats.mean_attended if stats else 0.0,
    )


def _result_from_response(
    tokenizer: WordTokenizer, example: QAExample, response: ServingResponse
) -> ExampleResult:
    return _build_example_result(
        tokenizer, example, response.token_ids, response.policy_stats
    )


def _eval_kv_pools(
    model: TransformerLM,
    examples: Sequence[QAExample],
    kv_dtype: Optional[str],
) -> KVPoolGroup:
    """Paged arenas for an accuracy run at a given storage precision.

    Fixed per-layer pools with enough pages for every example's worst case
    at once, so admission never interferes with the accuracy measurement
    and ``kv_dtype`` isolates *storage precision* as the only variable:
    ``None``/``"fp64"`` stores full-precision float64 rows,
    ``"int8"``/``"int4"`` quantised ones.
    """
    page_size = 32
    pages = sum(
        math.ceil((ex.prompt_length + ex.answer_length + 2) / page_size) + 1
        for ex in examples
    )
    return KVPoolGroup(
        num_layers=model.config.num_layers,
        page_size=page_size,
        num_heads=model.config.num_heads,
        head_dim=model.config.head_dim,
        num_pages=pages + 8,
        codec=kv_dtype,
    )


def evaluate_policy(
    model: TransformerLM,
    dataset: QADataset,
    policy_name: str,
    cache_ratio: float,
    max_examples: Optional[int] = None,
    seed: int = 0,
    batch_size: int = DEFAULT_EVAL_BATCH_SIZE,
    prefix_caching: bool = True,
    kv_dtype: Optional[str] = None,
) -> PolicyEvaluation:
    """Mean F1 of ``policy_name`` at ``cache_ratio`` over a dataset.

    All examples are admitted through the batched serving engine's
    prefix-grouped batched prefill and decoded ``batch_size`` sequences at a
    time (continuously admitted); each example carries its own policy stack
    sized for its prompt length.  ``batch_size=1`` reproduces the strictly
    serial evaluation order.

    ``kv_dtype`` selects the KV *storage* precision of the run's paged
    arenas (:func:`_eval_kv_pools`, sized so admission never limits the
    run): ``None``/``"fp64"`` stores full-precision rows,
    ``"int8"``/``"int4"`` quantised ones, measuring the accuracy cost of
    storage quantisation alone.

    ``prefix_caching`` (default on) lets examples that share a prompt prefix
    reuse each other's prefill K/V and query rows — generated
    tokens are unchanged, only redundant prefill work is skipped.
    """
    examples = dataset.examples
    if max_examples is not None:
        examples = examples[:max_examples]
    engine = BatchedEngine(
        model,
        max_batch_size=batch_size,
        prefix_caching=prefix_caching,
        kv_pools=_eval_kv_pools(model, examples, kv_dtype),
    )
    submitted = []
    for example in examples:
        factory = build_policy_factory(
            policy_name, example.prompt_length, cache_ratio, seed=seed
        )
        request_id = engine.submit(
            ServingRequest(
                prompt_ids=dataset.tokenizer.encode(example.prompt),
                max_new_tokens=example.answer_length,
                policy_factory=factory,
            )
        )
        submitted.append((request_id, example))
    responses = {response.request_id: response for response in engine.run()}
    errors = [
        f"{rid}: {responses[rid].error}"
        for rid, _ in submitted
        if responses[rid].finish_reason == "error"
    ]
    if errors:
        # An admission failure must not be silently scored as F1=0 — that
        # would depress sweep results with no indication anything failed.
        raise RuntimeError(
            f"{len(errors)} example(s) failed during admission: "
            + "; ".join(errors)
        )
    results = [
        _result_from_response(dataset.tokenizer, example, responses[request_id])
        for request_id, example in submitted
    ]
    return PolicyEvaluation(
        policy=policy_name,
        cache_ratio=cache_ratio,
        mean_f1=mean_metric(result.f1 for result in results),
        results=results,
    )


def cache_ratio_sweep(
    dataset: QADataset,
    policy_names: Sequence[str],
    cache_ratios: Sequence[float],
    max_examples: Optional[int] = None,
    seed: int = 0,
    model: Optional[TransformerLM] = None,
    kv_dtype: Optional[str] = None,
) -> Dict[str, List[PolicyEvaluation]]:
    """The Fig. 13 experiment: F1 versus KV cache ratio for several policies.

    ``kv_dtype`` sweeps the same grid at a different KV *storage*
    precision (``"int8"``/``"int4"``), for fp64-vs-quantised accuracy
    comparisons at matched policies and ratios.
    """
    model = model or build_task_model(dataset.tokenizer, seed=seed)
    sweep: Dict[str, List[PolicyEvaluation]] = {}
    for name in policy_names:
        evaluations = []
        for ratio in cache_ratios:
            evaluations.append(
                evaluate_policy(
                    model,
                    dataset,
                    name,
                    ratio,
                    max_examples=max_examples,
                    seed=seed,
                    kv_dtype=kv_dtype,
                )
            )
        sweep[name] = evaluations
    return sweep


def sweep_to_table(sweep: Dict[str, List[PolicyEvaluation]]) -> str:
    """Human-readable F1-vs-ratio table for benchmark output."""
    if not sweep:
        return "(empty sweep)"
    ratios = [evaluation.cache_ratio for evaluation in next(iter(sweep.values()))]
    header = "policy          " + "  ".join(f"{ratio:>6.0%}" for ratio in ratios)
    lines = [header, "-" * len(header)]
    for name, evaluations in sweep.items():
        cells = "  ".join(f"{evaluation.mean_f1:6.3f}" for evaluation in evaluations)
        lines.append(f"{name:<16}{cells}")
    return "\n".join(lines)


__all__ = [
    "POLICY_NAMES",
    "build_policy_factory",
    "build_task_model",
    "ExampleResult",
    "PolicyEvaluation",
    "evaluate_example",
    "evaluate_policy",
    "cache_ratio_sweep",
    "sweep_to_table",
]
