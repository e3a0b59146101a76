"""Prefill memory is O(N): no ``[h, N, N]`` array on any prefill path.

The static stage reads one column sum per prompt token, so neither the
serial reference nor the serving engine (whole-prompt or chunked) may
hold a score matrix.  A whole 2048-token prompt goes through each path
under ``tracemalloc`` (numpy reports its buffers to it); the peak must stay
far under the bytes of a single ``[h, N, N]`` float64 block.  Prefix-cache
entries are O(N) too: their bytes double when the prompt doubles.
"""

import tracemalloc

import numpy as np
import pytest

from repro.core.baselines import SnapKVPolicy
from repro.core.config import PruningConfig
from repro.core.hybrid import UniCAIMPolicy
from repro.core.kv_pool import KVPoolGroup
from repro.llm.config import ModelConfig
from repro.llm.model import TransformerLM
from repro.serving import BatchedEngine, PrefixCache, ServingRequest

N = 2048
HEADS, HEAD_DIM, LAYERS = 1, 8, 2
# One float64 [h, N, N] score block is 32 MiB here; the row-blocked kernel
# needs about 4 MiB (one [h, 257, N] block).
SCORE_BLOCK_BYTES = HEADS * N * N * 8
PEAK_BOUND = SCORE_BLOCK_BYTES // 4


@pytest.fixture(scope="module")
def model():
    config = ModelConfig(
        vocab_size=61,
        model_dim=HEADS * HEAD_DIM,
        num_heads=HEADS,
        head_dim=HEAD_DIM,
        num_layers=LAYERS,
        mlp_hidden_dim=16,
        seed=7,
    )
    return TransformerLM(config)


@pytest.fixture(scope="module")
def prompt():
    rng = np.random.default_rng(5)
    return list(map(int, rng.integers(0, 61, size=N)))


def unicaim(heads, dim):
    return UniCAIMPolicy(
        heads, dim,
        config=PruningConfig(heavy_budget=64, reserved_budget=8, top_k=16),
    )


def snapkv(heads, dim):
    return SnapKVPolicy(heads, dim, prompt_budget=64, observation_window=32)


POLICIES = [
    pytest.param(None, id="full"),
    pytest.param(unicaim, id="unicaim"),
    pytest.param(snapkv, id="snapkv"),
]


def peak_bytes(run):
    tracemalloc.start()
    try:
        run()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


@pytest.mark.parametrize("factory", POLICIES)
def test_serial_reference_prefill_is_linear(model, prompt, factory):
    policies = model.make_policies(factory)
    peak = peak_bytes(lambda: model.prefill(prompt, policies))
    assert peak < PEAK_BOUND, f"peak {peak / 2**20:.1f} MiB"


@pytest.mark.parametrize("factory", POLICIES)
@pytest.mark.parametrize("max_tokens_per_step", [None, 256])
def test_engine_prefill_is_linear(model, prompt, factory, max_tokens_per_step):
    # The engine's arenas are allocated up front, outside the measurement.
    engine = BatchedEngine(
        model,
        policy_factory=factory,
        max_batch_size=1,
        max_tokens_per_step=max_tokens_per_step,
    )
    engine.submit(ServingRequest(prompt_ids=prompt, max_new_tokens=1))
    responses = []
    peak = peak_bytes(lambda: responses.extend(engine.run()))
    assert responses[0].finish_reason != "error"
    assert peak < PEAK_BOUND, f"peak {peak / 2**20:.1f} MiB"


def test_prefix_cache_entry_bytes_grow_linearly():
    rng = np.random.default_rng(0)
    sizes = {}
    for n in (256, 512, 1024):
        cache = PrefixCache(
            KVPoolGroup(1, 16, HEADS, HEAD_DIM, num_pages=128),
            min_prefix_tokens=2,
        )
        rows = [rng.normal(size=(n, HEADS, HEAD_DIM)) for _ in range(3)]
        assert cache.insert(list(range(n)), [tuple(rows)])
        sizes[n] = cache.memory_bytes()
    assert sizes[512] == 2 * sizes[256]
    assert sizes[1024] == 2 * sizes[512]
