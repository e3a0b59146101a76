"""Per-step decode cost: group-vectorized vs per-sequence policy loop.

The decode hot path at batch 16: every engine step used to dispatch one
``decode_step`` per sequence — B python calls each re-doing its own slot
resolution, gather, score GEMV, masked softmax and bookkeeping on tiny
arrays.  The group-vectorized path executes each policy-homogeneous span
as **one** ``decode_step_group`` call per layer: one padded multi-sequence
gather through the shared page arena, one batched score GEMM, one
masked-argmin eviction / tie-exact top-k selection and one batched
attention (over the selected rows only, for the top-k policies) for the
whole span — per-step dispatch cost is O(groups), not O(batch).

Measured: mean wall-clock per decode step (best of ``REPEATS`` runs per
path, to shrug off noisy-neighbour spikes) over a warm batch of 16
same-policy sequences on the evaluation-harness-shaped substrate — the
induction-model geometry (2 layers, 2 heads, no MLP) and the short
budget-pruned prompts of the synthetic QA workload, stored in a shared
paged KV arena as the serving engine runs it.  Generated tokens are
asserted identical between the two paths.  Acceptance: the vectorized
path is >= 2x cheaper per step for the paper's UniCAIM policy (hard-gated
locally, ``REPRO_PERF_SOFT=1`` on shared CI runners); the other policy
rows are reported for visibility.
"""

import time

import numpy as np
from conftest import perf_gate, write_report

from repro.core.kv_pool import KVPoolGroup
from repro.eval.harness import POLICY_NAMES, build_policy_factory
from repro.llm.config import ModelConfig
from repro.llm.model import TransformerLM

BATCH = 16
PROMPT_LEN = 32
CACHE_RATIO = 0.75
DECODE_STEPS = 40
REPEATS = 3
GATED_POLICY = "unicaim"
SPEEDUP_FLOOR = 2.0
HEADS, HEAD_DIM, LAYERS = 2, 16, 2


def harness_model() -> TransformerLM:
    """Eval-harness-shaped substrate: the induction-model geometry."""
    config = ModelConfig(
        vocab_size=256,
        model_dim=HEADS * HEAD_DIM,
        num_heads=HEADS,
        head_dim=HEAD_DIM,
        num_layers=LAYERS,
        mlp_hidden_dim=0,
        use_layernorm=False,
        seed=0,
    )
    return TransformerLM(config)


def build_batch(model, policy_name):
    """Prefill a fresh batch of identical-policy sequences on a shared
    paged arena (the serving engine's storage layout)."""
    rng = np.random.default_rng(11)
    factory = build_policy_factory(
        policy_name, prompt_length=PROMPT_LEN, cache_ratio=CACHE_RATIO
    )
    pools = KVPoolGroup(
        LAYERS, page_size=16, num_heads=HEADS, head_dim=HEAD_DIM,
        num_pages=2048,
    )
    prompts = [
        list(map(int, rng.integers(0, model.config.vocab_size, size=PROMPT_LEN)))
        for _ in range(BATCH)
    ]
    stacks = [model.make_policies(factory, kv_pools=pools) for _ in range(BATCH)]
    logits, _ = model.prefill_batched(prompts, stacks)
    tokens = [int(np.argmax(row)) for row in logits]
    return stacks, tokens


def time_decode(model, policy_name, vectorize):
    """Mean seconds per decode step and the generated token trace."""
    stacks, tokens = build_batch(model, policy_name)
    positions = [PROMPT_LEN] * BATCH
    trace = []
    start = time.perf_counter()
    for _ in range(DECODE_STEPS):
        logits = model.decode_steps_batched(
            tokens, positions, stacks, vectorize=vectorize
        )
        tokens = [int(np.argmax(row)) for row in logits]
        positions = [p + 1 for p in positions]
        trace.append(list(tokens))
    elapsed = time.perf_counter() - start
    return elapsed / DECODE_STEPS, trace


def best_of(model, policy_name, vectorize):
    costs, traces = zip(
        *(time_decode(model, policy_name, vectorize) for _ in range(REPEATS))
    )
    for trace in traces[1:]:
        assert trace == traces[0], f"{policy_name}: non-deterministic decode"
    return min(costs), traces[0]


def test_group_decode_step_cost(benchmark, results_dir):
    model = harness_model()

    def run():
        rows = {}
        for name in POLICY_NAMES:
            loop_cost, loop_trace = best_of(model, name, vectorize=False)
            group_cost, group_trace = best_of(model, name, vectorize=True)
            assert group_trace == loop_trace, (
                f"{name}: grouped decode diverged from the per-sequence loop"
            )
            rows[name] = (loop_cost, group_cost)
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    lines = [
        f"Group-vectorized decode — per-step decode cost, batch {BATCH}, "
        f"{PROMPT_LEN}-token prompts, cache ratio {CACHE_RATIO:.0%}, "
        f"{DECODE_STEPS} steps, best of {REPEATS} runs",
        f"{'policy':<16}{'per-seq loop':>14}{'grouped':>12}{'speedup':>10}",
    ]
    for name, (loop_cost, group_cost) in rows.items():
        lines.append(
            f"{name:<16}{loop_cost * 1e3:>11.2f} ms{group_cost * 1e3:>9.2f} ms"
            f"{loop_cost / group_cost:>9.2f}x"
        )
    report = "\n".join(lines)
    write_report(results_dir, "group_decode_step_cost", report)
    print(report)

    loop_cost, group_cost = rows[GATED_POLICY]
    speedup = loop_cost / group_cost
    perf_gate(
        speedup >= SPEEDUP_FLOOR,
        f"grouped decode speedup {speedup:.2f}x below the "
        f"{SPEEDUP_FLOOR:.0f}x floor for the {GATED_POLICY} policy",
    )
