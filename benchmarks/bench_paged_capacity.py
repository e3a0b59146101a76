"""Paged-KV capacity: max concurrent sequences at a fixed byte budget.

The point of the paged KV pool is the "heavy traffic" axis of the ROADMAP:
at a fixed amount of KV memory, how many sequences can be *in flight at
once*?

* **Dense layout** (pre-paging engine): every sequence owns a per-layer
  K/V array sized for its whole lifetime (prompt + generated tokens), so
  capacity is ``budget // bytes_per_sequence`` regardless of how much the
  sequences have in common.
* **Paged layout**: sequences draw fixed-size pages from one shared
  per-layer arena, and a shared prompt prefix — cached once by the
  :class:`~repro.serving.prefix_cache.PrefixCache` — is *adopted* by every
  sharer (refcounted pages, copy-on-write on divergence).  Only each
  sequence's unique suffix and generated tokens consume fresh pages, so a
  shared-prefix workload packs several times more concurrent sequences
  into the same bytes.

The benchmark runs a 16-request shared-prefix workload (full-cache policy,
the memory-heavy baseline) through a paged engine whose per-layer arenas
are sized to a budget that fits ~4 dense sequences, with no batch-size cap
(``max_batch_size=None`` — concurrency is bounded by page availability
alone).  It reports the observed peak concurrency against the dense
capacity and asserts the ≥ 2x multiplier.  The capacity numbers are counts
of reserved/allocated pages — deterministic, so the floor is a hard
assertion (no wall-clock noise).
"""

import numpy as np
from conftest import write_report

from repro.core.kv_pool import KVPoolGroup
from repro.llm.config import ModelConfig
from repro.llm.generation import greedy_generate_serial
from repro.llm.model import TransformerLM
from repro.serving import BatchedEngine, ServingRequest

NUM_REQUESTS = 16
SHARED_PREFIX = 96
SUFFIX_LEN = 8
NEW_TOKENS = 32
PAGE_SIZE = 16
DENSE_BUDGET_SEQUENCES = 4  # arena sized to hold exactly this many dense seqs


def capacity_model() -> TransformerLM:
    config = ModelConfig(
        vocab_size=1024,
        model_dim=64,
        num_heads=4,
        head_dim=16,
        num_layers=2,
        mlp_hidden_dim=0,
        seed=0,
    )
    return TransformerLM(config)


def shared_prefix_prompts(model: TransformerLM):
    rng = np.random.default_rng(11)
    vocab = model.config.vocab_size
    shared = list(map(int, rng.integers(0, vocab, size=SHARED_PREFIX)))
    return [
        shared + list(map(int, rng.integers(0, vocab, size=SUFFIX_LEN)))
        for _ in range(NUM_REQUESTS)
    ]


def dense_bytes_per_sequence(model: TransformerLM) -> int:
    """Lifetime K/V bytes of one sequence in the dense per-sequence layout.

    One float64 K row and one V row per token per layer — exactly what the
    pre-paging full-cache policy allocated for prompt + generated tokens.
    """
    config = model.config
    tokens = SHARED_PREFIX + SUFFIX_LEN + NEW_TOKENS
    row_bytes = 2 * config.num_heads * config.head_dim * 8
    return config.num_layers * tokens * row_bytes


def run_paged(model: TransformerLM, budget_bytes: int, codec=None):
    pools = KVPoolGroup.from_byte_budget(
        num_layers=model.config.num_layers,
        page_size=PAGE_SIZE,
        num_heads=model.config.num_heads,
        head_dim=model.config.head_dim,
        total_bytes=budget_bytes,
        codec=codec,
    )
    engine = BatchedEngine(model, kv_pools=pools, max_batch_size=None)
    for prompt in shared_prefix_prompts(model):
        engine.submit(ServingRequest(prompt_ids=prompt, max_new_tokens=NEW_TOKENS))
    responses = engine.run()
    assert all(r.finish_reason == "length" for r in responses), [
        (r.request_id, r.finish_reason, r.error) for r in responses
    ]
    assert all(r.num_generated == NEW_TOKENS for r in responses)
    return engine, responses


def test_paged_capacity_multiplier_at_least_2x(results_dir):
    model = capacity_model()
    per_seq = dense_bytes_per_sequence(model)
    budget = DENSE_BUDGET_SEQUENCES * per_seq
    dense_capacity = budget // per_seq

    engine, _ = run_paged(model, budget)
    stats = engine.stats()
    peak = stats["peak_active"]
    multiplier = peak / dense_capacity
    pool = stats["kv_pool"]

    lines = [
        "Paged KV capacity — max concurrent sequences at a fixed byte budget",
        f"workload: {NUM_REQUESTS} requests, {SHARED_PREFIX}-token shared "
        f"prefix + {SUFFIX_LEN}-token suffix, {NEW_TOKENS} new tokens, "
        "full-cache policy",
        f"budget: {budget} bytes of KV arena "
        f"({DENSE_BUDGET_SEQUENCES} dense sequences' worth)",
        "",
        f"{'layout':>8}  {'max concurrent':>14}",
        f"{'dense':>8}  {dense_capacity:>14d}",
        f"{'paged':>8}  {peak:>14d}",
        f"capacity multiplier: {multiplier:.2f}x",
        "",
        "pool telemetry: "
        f"peak pages {pool['peak_pages_in_use']} / {pool['pages_total']}, "
        f"CoW splits {pool['cow_splits']}, "
        f"prefix pages adopted {pool['prefix_pages_adopted']}",
        f"admission: {stats['admission']}",
    ]
    write_report(results_dir, "paged_capacity", "\n".join(lines))
    print("\n".join(lines))

    # Deterministic counting property, not wall-clock: hard floor.
    assert multiplier >= 2.0, (
        f"paged capacity multiplier {multiplier:.2f}x below the 2x floor"
    )
    assert pool["prefix_pages_adopted"] > 0


def test_int8_capacity_at_least_2x_fp64_at_same_budget(results_dir):
    """Quantised pages: ≥2x the fp64 concurrency from the same bytes.

    Both lanes run the identical workload against arenas built from the
    *same* byte budget — tightened to two dense sequences' worth so the
    fp64 lane is genuinely page-bound — differing only in storage codec.
    int8 rows cost 20 bytes instead of 128 (scales included), so the
    budget affords ~6.4x the pages; the observed concurrency multiplier
    is what the ROADMAP gate cares about.  Deterministic page counting,
    hard assertion.
    """
    model = capacity_model()
    budget = 2 * dense_bytes_per_sequence(model)

    fp_engine, _ = run_paged(model, budget)
    int8_engine, _ = run_paged(model, budget, codec="int8")
    fp_stats = fp_engine.stats()
    int8_stats = int8_engine.stats()
    fp_peak = fp_stats["peak_active"]
    int8_peak = int8_stats["peak_active"]
    multiplier = int8_peak / fp_peak
    fp_pool = fp_stats["kv_pool"]
    int8_pool = int8_stats["kv_pool"]

    lines = [
        "Quantized KV capacity — int8 vs fp64 arenas at the same byte budget",
        f"workload: {NUM_REQUESTS} requests, {SHARED_PREFIX}-token shared "
        f"prefix + {SUFFIX_LEN}-token suffix, {NEW_TOKENS} new tokens, "
        "full-cache policy",
        f"budget: {budget} bytes of KV arena (2 dense sequences' worth)",
        "",
        f"{'codec':>6}  {'bytes/token':>11}  {'pages':>6}  {'max concurrent':>14}",
        f"{fp_pool['codec']:>6}  {fp_pool['bytes_per_token']:>11.1f}  "
        f"{fp_pool['pages_total']:>6d}  {fp_peak:>14d}",
        f"{int8_pool['codec']:>6}  {int8_pool['bytes_per_token']:>11.1f}  "
        f"{int8_pool['pages_total']:>6d}  {int8_peak:>14d}",
        f"capacity multiplier: {multiplier:.2f}x",
        "",
        "int8 pool telemetry: "
        f"peak pages {int8_pool['peak_pages_in_use']} / {int8_pool['pages_total']}, "
        f"CoW splits {int8_pool['cow_splits']}, "
        f"prefix pages adopted {int8_pool['prefix_pages_adopted']}",
    ]
    write_report(results_dir, "quantized_capacity", "\n".join(lines))
    print("\n".join(lines))

    assert multiplier >= 2.0, (
        f"int8 capacity multiplier {multiplier:.2f}x below the 2x floor "
        f"(fp64 peak {fp_peak}, int8 peak {int8_peak})"
    )
    assert int8_pool["codec"] == "int8"
    assert int8_pool["bytes_per_token"] < fp_pool["bytes_per_token"] / 4


def test_paged_engine_matches_serial_tokens_on_capacity_workload(results_dir):
    """The capacity win must not change a single generated token: the
    page-bounded engine emits what the serial oracle does."""
    model = capacity_model()
    prompts = shared_prefix_prompts(model)
    _, paged = run_paged(
        model, DENSE_BUDGET_SEQUENCES * dense_bytes_per_sequence(model)
    )
    for prompt, response in zip(prompts, paged, strict=True):
        serial = greedy_generate_serial(model, prompt, NEW_TOKENS)
        assert response.token_ids == serial.token_ids
