"""Time-to-first-token: batched padding-free prefill + shared-prefix reuse.

The serving workload this PR targets: many requests arriving together whose
prompts share a long common prefix (a system prompt / shared document) plus
a short per-user suffix.  PR 1's engine prefilled every admitted request
from scratch, one at a time, so time-to-first-token (TTFT) grew with the
*total* prompt tokens of the batch.  The admission pipeline now (a) packs
the batch into one padding-free prefill (one Q/K/V GEMM per layer across
all prompts' tokens) and (b) computes the shared prefix once, restoring it
for the other requests from the engine's ``PrefixCache``.

The acceptance bar is a >= 2x lower mean TTFT than per-request prefill on a
16-request shared-prefix workload; the report also states the prefill-GEMM
FLOP savings implied by the reused token count.
"""

import time

import numpy as np
from conftest import perf_gate, write_report

from repro.core.config import PruningConfig
from repro.core.hybrid import UniCAIMPolicy
from repro.llm.config import ModelConfig
from repro.llm.model import TransformerLM
from repro.serving import BatchedEngine, ServingRequest

NUM_REQUESTS = 16
SHARED_PREFIX_LEN = 192
UNIQUE_SUFFIX_LEN = 8


def serving_model() -> TransformerLM:
    """Same memory-bound serving substrate as ``bench_serving_throughput``."""
    config = ModelConfig(
        vocab_size=32768,
        model_dim=512,
        num_heads=8,
        head_dim=64,
        num_layers=1,
        mlp_hidden_dim=0,
        seed=0,
    )
    return TransformerLM(config)


def policy_factory(heads: int, dim: int) -> UniCAIMPolicy:
    return UniCAIMPolicy(
        heads,
        dim,
        config=PruningConfig(
            heavy_budget=96, reserved_budget=16, top_k=24,
            sink_tokens=2, recent_protect=4,
        ),
    )


def shared_prefix_prompts(vocab_size: int) -> list:
    rng = np.random.default_rng(2)
    shared = list(map(int, rng.integers(0, vocab_size, size=SHARED_PREFIX_LEN)))
    return [
        shared + list(map(int, rng.integers(0, vocab_size, size=UNIQUE_SUFFIX_LEN)))
        for _ in range(NUM_REQUESTS)
    ]


def measure_mean_ttft(
    model: TransformerLM, prompts, max_batch_size=NUM_REQUESTS, **engine_kwargs
):
    """Mean seconds from run start until each request's first token.

    Every request generates exactly one token, so a request's completion
    time *is* its TTFT.
    """
    engine = BatchedEngine(
        model,
        policy_factory=policy_factory,
        max_batch_size=max_batch_size,
        **engine_kwargs,
    )
    for prompt in prompts:
        engine.submit(ServingRequest(prompt_ids=prompt, max_new_tokens=1))
    ttft = {}
    start = time.perf_counter()
    while engine.has_work:
        for response in engine.step():
            ttft[response.request_id] = time.perf_counter() - start
    assert len(ttft) == NUM_REQUESTS
    assert all(r.finish_reason == "length" for r in engine.run())
    return sum(ttft.values()) / len(ttft), engine


def prefill_gemm_flops(model: TransformerLM, tokens: int) -> int:
    """Multiply-add FLOPs of the per-token prefill GEMMs for ``tokens`` rows
    (Q/K/V + output projections and the unembedding; attention excluded)."""
    cfg = model.config
    hd = cfg.num_heads * cfg.head_dim
    per_token_layer = 2 * cfg.model_dim * (3 * hd) + 2 * hd * cfg.model_dim
    return tokens * (cfg.num_layers * per_token_layer + 2 * cfg.model_dim * cfg.vocab_size)


def test_batched_prefix_prefill_halves_ttft(benchmark, results_dir):
    model = serving_model()
    prompts = shared_prefix_prompts(model.config.vocab_size)

    def run():
        baseline, _ = measure_mean_ttft(
            model, prompts, max_batch_size=1, prefix_caching=False
        )
        batched, engine = measure_mean_ttft(model, prompts)
        return baseline, batched, engine

    baseline_s, batched_s, engine = benchmark.pedantic(run, rounds=1, iterations=1)
    speedup = baseline_s / batched_s
    cache_stats = engine.prefix_cache.stats
    total_tokens = sum(len(p) for p in prompts)
    computed_tokens = total_tokens - cache_stats.tokens_reused
    flop_savings = 1.0 - prefill_gemm_flops(model, computed_tokens) / prefill_gemm_flops(
        model, total_tokens
    )
    lines = [
        "Prefill time-to-first-token — "
        f"{NUM_REQUESTS} requests, {SHARED_PREFIX_LEN}-token shared prefix "
        f"+ {UNIQUE_SUFFIX_LEN}-token unique suffix",
        f"one request at a time          : {baseline_s * 1e3:8.1f} ms mean TTFT",
        f"batched + prefix reuse         : {batched_s * 1e3:8.1f} ms mean TTFT",
        f"speedup                        : {speedup:8.2f}x",
        f"prefix cache                   : {cache_stats.hits}/{cache_stats.lookups} hits, "
        f"{cache_stats.tokens_reused}/{total_tokens} prompt tokens reused",
        f"prefill GEMM FLOP savings      : {flop_savings:8.1%}",
    ]
    write_report(results_dir, "prefill_ttft", "\n".join(lines))
    print("\n".join(lines))
    assert cache_stats.tokens_reused > 0
    perf_gate(
        speedup >= 2.0,
        f"mean TTFT speedup {speedup:.2f}x below the 2x floor",
    )
