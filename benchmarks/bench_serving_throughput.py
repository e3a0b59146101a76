"""Serving throughput: batched engine scaling and policy per-step cost.

Two measurements back the serving work:

1. **Batch scaling** — tokens/sec of :class:`repro.serving.BatchedEngine`
   decoding 16 requests at batch sizes {1, 4, 16}.  Batch 1 is the seed's
   serial loop (one request after another); larger batches amortise the
   per-token model math (the float64 unembedding GEMV is memory-bound one
   sequence at a time, and turns into a compute-bound GEMM when batched —
   the classic reason serving systems batch).  The acceptance bar is
   batch-16 >= 4x batch-1.

2. **Vectorized policy vs seed** — per-step cost of
   :class:`~repro.core.hybrid.UniCAIMPolicy.decode_step` at the paper's
   circuit-default capacity (H=512, M=64 -> 576 slots) against a replica
   of the seed implementation (dict score table updated in a Python loop,
   linear ``np.nonzero`` slot scans, fancy-indexed cache copies on every
   read).
"""

import time

import numpy as np
import pytest
from conftest import perf_gate, write_report

from repro.core.config import PruningConfig
from repro.core.hybrid import UniCAIMPolicy
from repro.core.policy import StepRecord
from repro.core.attention import sparse_attention_output
from repro.llm.config import ModelConfig
from repro.llm.model import TransformerLM
from repro.serving import BatchedEngine, ServingRequest

BATCH_SIZES = (1, 4, 16)
NUM_REQUESTS = 16
PROMPT_LEN = 8
NEW_TOKENS = 64


def serving_model() -> TransformerLM:
    """Attention-only model with a large vocabulary.

    The 32k x 512 float64 unembedding (~134 MB) makes the per-token GEMV
    memory-bound, which is representative of real LLM serving and is the
    cost batching amortises.
    """
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
            heavy_budget=24, reserved_budget=8, top_k=8,
            sink_tokens=2, recent_protect=4,
        ),
    )


def measure_throughput(model: TransformerLM) -> dict:
    rng = np.random.default_rng(1)
    prompts = [
        list(map(int, rng.integers(0, model.config.vocab_size, size=PROMPT_LEN)))
        for _ in range(NUM_REQUESTS)
    ]
    tokens_per_second = {}
    for batch_size in BATCH_SIZES:
        engine = BatchedEngine(
            model, policy_factory=policy_factory, max_batch_size=batch_size
        )
        for prompt in prompts:
            engine.submit(
                ServingRequest(prompt_ids=prompt, max_new_tokens=NEW_TOKENS)
            )
        start = time.perf_counter()
        responses = engine.run()
        elapsed = time.perf_counter() - start
        generated = sum(r.num_generated for r in responses)
        assert generated == NUM_REQUESTS * NEW_TOKENS
        tokens_per_second[batch_size] = generated / elapsed
    # Telemetry of the largest batch's engine (its default arenas).
    tokens_per_second["stats"] = engine.stats()
    return tokens_per_second


def test_batch16_throughput_at_least_4x_batch1(benchmark, results_dir):
    model = serving_model()
    tokens_per_second = benchmark.pedantic(
        measure_throughput, args=(model,), rounds=1, iterations=1
    )
    speedup_16 = tokens_per_second[16] / tokens_per_second[1]
    lines = [
        "Serving throughput — UniCAIM policy, "
        f"{NUM_REQUESTS} requests x {NEW_TOKENS} new tokens",
        f"{'batch':>6}  {'tokens/s':>10}  {'vs batch-1':>10}",
    ]
    for batch_size in BATCH_SIZES:
        ratio = tokens_per_second[batch_size] / tokens_per_second[1]
        lines.append(
            f"{batch_size:>6}  {tokens_per_second[batch_size]:>10.1f}  {ratio:>9.2f}x"
        )
    stats = tokens_per_second["stats"]
    pool = stats["kv_pool"]
    lines += [
        "",
        "Engine telemetry (batch 16, default per-layer arenas):",
        f"  pages in use {pool['pages_in_use']} / {pool['pages_total']}"
        f"  (peak {pool['peak_pages_in_use']}), "
        f"bytes in use {pool['bytes_in_use']}",
        f"  page allocs {pool['page_allocs']}, frees {pool['page_frees']}, "
        f"CoW splits {pool['cow_splits']}, "
        f"prefix pages adopted {pool['prefix_pages_adopted']}",
        f"  storage codec {pool['codec']}, "
        f"{pool['bytes_per_token']} B/token, "
        f"fp-page fraction {pool['fp_page_fraction']:.2f}",
        f"  admission: {stats['admission']}",
    ]
    write_report(results_dir, "serving_throughput", "\n".join(lines))
    print("\n".join(lines))
    perf_gate(
        tokens_per_second[4] > tokens_per_second[1],
        "batch-4 throughput did not beat batch-1",
    )
    perf_gate(
        speedup_16 >= 4.0,
        f"batch-16 speedup {speedup_16:.2f}x below the 4x floor",
    )


# ----------------------------------------------------------------------
# Vectorized policy vs a replica of the seed implementation
# ----------------------------------------------------------------------
class SeedReferencePolicy(UniCAIMPolicy):
    """Perf replica of the seed ``UniCAIMPolicy`` hot path.

    Reproduces the seed's per-step data structures and access patterns:
    a ``Dict[int, float]`` accumulated-score table updated entry by entry
    in a Python loop, an O(capacity) ``np.nonzero`` scan for every
    position -> slot lookup, Python set/list comprehensions in the
    eviction-victim choice, and a fresh fancy-indexed copy of the cache
    arrays on every read.  Results are identical; only the cost differs.
    """

    def prefill(self, keys, values, attention_matrix=None):
        super().prefill(keys, values, attention_matrix)
        self._accumulated = self.accumulated_table()

    def _scan_slot_of_position(self, token_position):
        matches = np.nonzero(
            self.cache._occupied
            & (self.cache._token_positions == token_position)
        )[0]
        if matches.size == 0:
            return None
        return int(matches[0])

    def _gather(self):
        slots = np.nonzero(self.cache._occupied)[0]
        keys, values, positions = self.cache.gather(slots)
        return (
            np.asarray(keys, dtype=np.float64),
            np.asarray(values, dtype=np.float64),
            positions,
        )

    def decode_step(self, query, key, value, position):
        query = np.asarray(query, dtype=np.float64)
        key = np.asarray(key, dtype=np.float64)
        value = np.asarray(value, dtype=np.float64)
        evicted_position = self._seed_insert(key, value, int(position))

        keys, values, positions = self._gather()
        n = keys.shape[0]
        k = self.config.effective_top_k(n)
        selection = self.selector.select(query, keys, k)
        selected = selection.selected_indices
        output = sparse_attention_output(query, keys, values, selected, scale=self.scale)

        # Seed accumulation: dict updated in a Python loop.
        if self.config.use_softmax_scores:
            scores = np.asarray(selection.exact_scores, dtype=np.float64) * self.scale
            shifted = scores - scores.max()
            weights = np.exp(shifted)
            step_scores = weights / max(float(weights.sum()), 1e-12)
        else:
            step_scores = np.asarray(selection.scores, dtype=np.float64)
        decay = self.config.score_decay
        for idx, pos in enumerate(positions):
            pos = int(pos)
            previous = self._accumulated.get(pos, 0.0)
            self._accumulated[pos] = previous * decay + float(step_scores[idx])

        self.stats.record(
            StepRecord(
                position=int(position),
                cache_size=n,
                num_attended=int(selected.size),
                evicted_position=evicted_position,
                selected_positions=positions[selected],
            )
        )
        return output

    def _seed_insert(self, key, value, position):
        self._generated_count += 1
        if not self.cache.is_full:
            self.cache.append(key, value, position, is_heavy=False)
            self._accumulated.setdefault(position, 0.0)
            return None
        victim_position = self._seed_choose_victim(position)
        victim_slot = self._scan_slot_of_position(victim_position)
        self.cache.replace(victim_slot, key, value, position, is_heavy=False)
        self._accumulated.pop(victim_position, None)
        self._accumulated.setdefault(position, 0.0)
        return victim_position

    def _seed_choose_victim(self, incoming_position):
        _, _, positions = self._gather()
        protected = set()
        if self.config.sink_tokens > 0:
            protected.update(
                int(p) for p in positions if p < self.config.sink_tokens
            )
        if self.config.recent_protect > 0:
            threshold = incoming_position - self.config.recent_protect
            protected.update(int(p) for p in positions if p >= threshold)
        candidates = [int(p) for p in positions if int(p) not in protected]
        if not candidates:
            candidates = [int(p) for p in positions]
        scores = np.asarray(
            [self._accumulated.get(p, 0.0) for p in candidates], dtype=np.float64
        )
        order = np.lexsort((np.asarray(candidates), scores))
        return int(candidates[order[0]])


HEADS, HEAD_DIM = 1, 128  # paper circuit geometry: d=128 per head group
WARMUP_STEPS = 80
TIMED_STEPS = 200


def time_policy_steps(policy: UniCAIMPolicy) -> float:
    """Mean decode-step time (us) at the paper's 576-slot capacity."""
    rng = np.random.default_rng(5)
    config = policy.config
    n = config.cache_capacity + 64
    keys = rng.normal(size=(n, HEADS, HEAD_DIM))
    values = rng.normal(size=(n, HEADS, HEAD_DIM))
    attn = rng.normal(size=(HEADS, n, n))
    policy.prefill(keys, values, attn)
    position = n
    for _ in range(WARMUP_STEPS):  # fill the M reserved slots
        policy.decode_step(
            rng.normal(size=(HEADS, HEAD_DIM)),
            rng.normal(size=(HEADS, HEAD_DIM)),
            rng.normal(size=(HEADS, HEAD_DIM)),
            position,
        )
        position += 1
    queries = rng.normal(size=(TIMED_STEPS, HEADS, HEAD_DIM))
    new_keys = rng.normal(size=(TIMED_STEPS, HEADS, HEAD_DIM))
    new_values = rng.normal(size=(TIMED_STEPS, HEADS, HEAD_DIM))
    start = time.perf_counter()
    for step in range(TIMED_STEPS):
        policy.decode_step(queries[step], new_keys[step], new_values[step], position)
        position += 1
    return (time.perf_counter() - start) / TIMED_STEPS * 1e6


def test_vectorized_policy_faster_than_seed_at_capacity_576(benchmark, results_dir):
    config = PruningConfig.paper_circuit_default()  # H=512, M=64 -> 576 slots
    vectorized = UniCAIMPolicy(HEADS, HEAD_DIM, config=config)
    seed_replica = SeedReferencePolicy(HEADS, HEAD_DIM, config=config)

    def run():
        return (
            time_policy_steps(vectorized),
            time_policy_steps(seed_replica),
        )

    vec_us, seed_us = benchmark.pedantic(run, rounds=1, iterations=1)
    lines = [
        "UniCAIMPolicy.decode_step at capacity 576 (paper circuit default)",
        f"seed-replica : {seed_us:8.1f} us/step",
        f"vectorized   : {vec_us:8.1f} us/step",
        f"speedup      : {seed_us / vec_us:8.2f}x",
    ]
    write_report(results_dir, "serving_policy_step_cost", "\n".join(lines))
    print("\n".join(lines))
    assert vec_us < seed_us
