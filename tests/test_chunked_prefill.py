"""Chunked prefill: iteration-level scheduling must not change anything.

Acceptance properties of the scheduler subsystem:

* **Chunk-size invariance** — generated tokens and ``PolicyStats`` are
  identical to one-shot prefill for every policy flavour, chunk size and
  batch size.  The chunk boundary only changes *when* compute happens,
  never what a policy stores or selects.
* **No head-of-line blocking** — while a long prompt is absorbed chunk by
  chunk, every active decode sequence emits one token per step between
  consecutive chunks.
* **By-reference prefix-cache entries** — a finished whole-prompt prefill
  is cached by refcounting the sequence's own pool pages; the sequence's
  later writes into a shared page copy-on-write split it, so sharers and
  cache entries never observe each other.
* **Policy-homogeneous decode grouping** — mixed-policy batches are
  ordered so same-policy sequences are contiguous, with group spans in the
  scheduler telemetry.
"""

import numpy as np
import pytest

from repro.core.baselines import SnapKVPolicy
from repro.core.config import PruningConfig
from repro.core.hybrid import UniCAIMPolicy
from repro.core.kv_pool import KVPoolGroup, PagedKVPool, PagedKVStore
from repro.eval.harness import POLICY_NAMES, build_policy_factory
from repro.llm.config import ModelConfig
from repro.llm.model import PrefillState, TransformerLM
from repro.serving import BatchedEngine, SchedulerPolicy, ServingRequest

VOCAB = 89
HEADS, HEAD_DIM, LAYERS = 2, 8, 2
PAGE = 8
MAX_NEW = 7


# Beyond the harness's policy set: the two static-stage reductions its
# policies do not reach.  UniCAIM's charge-domain mode sums raw scores
# instead of softmax mass, and a SnapKV observation window of 8 rows
# reaches back into the 14-token shared prefix, so a prefix hit rebuilds
# part of the window from the cached queries.
EXTRA_POLICIES = ("unicaim_raw", "snapkv_window8")


def policy_factory(name, prompt_length):
    if name == "unicaim_raw":
        config = PruningConfig(
            heavy_budget=8, reserved_budget=2, top_k=4, sink_tokens=2,
            recent_protect=4, use_softmax_scores=False,
        )
        return lambda heads, dim: UniCAIMPolicy(heads, dim, config=config)
    if name == "snapkv_window8":
        return lambda heads, dim: SnapKVPolicy(
            heads, dim, prompt_budget=10, observation_window=8
        )
    return build_policy_factory(
        name, prompt_length=prompt_length, cache_ratio=0.6
    )


@pytest.fixture(scope="module")
def model():
    config = ModelConfig(
        vocab_size=VOCAB,
        model_dim=HEADS * HEAD_DIM,
        num_heads=HEADS,
        head_dim=HEAD_DIM,
        num_layers=LAYERS,
        mlp_hidden_dim=24,
        seed=5,
    )
    return TransformerLM(config)


@pytest.fixture(scope="module")
def shared_prefix_prompts():
    """Prompts sharing a 14-token prefix, with varied unique suffixes."""
    rng = np.random.default_rng(23)
    shared = list(map(int, rng.integers(0, VOCAB, size=14)))
    return [
        shared + list(map(int, rng.integers(0, VOCAB, size=n)))
        for n in (3, 6, 2, 8, 5, 3, 7, 4, 6, 2)
    ]


def make_pools(num_pages=600):
    return KVPoolGroup(
        LAYERS, page_size=PAGE, num_heads=HEADS, head_dim=HEAD_DIM,
        num_pages=num_pages,
    )


def run_engine(model, prompts, *, batch_size=4, policy_factory=None,
               max_new_tokens=MAX_NEW, **kwargs):
    engine = BatchedEngine(
        model,
        policy_factory=policy_factory,
        max_batch_size=batch_size,
        **kwargs,
    )
    for prompt in prompts:
        engine.submit(
            ServingRequest(prompt_ids=prompt, max_new_tokens=max_new_tokens)
        )
    return engine, engine.run()


def assert_stats_identical(want, got):
    assert want.prefill_tokens == got.prefill_tokens
    assert want.retained_after_prefill == got.retained_after_prefill
    assert want.decode_steps == got.decode_steps
    assert want.total_attended == got.total_attended
    assert want.total_evictions == got.total_evictions
    assert want.peak_cache_size == got.peak_cache_size
    assert len(want.records) == len(got.records)
    for a, b in zip(want.records, got.records):
        assert a.position == b.position
        assert a.cache_size == b.cache_size
        assert a.num_attended == b.num_attended
        assert a.evicted_position == b.evicted_position
        if a.selected_positions is None:
            assert b.selected_positions is None
        else:
            np.testing.assert_array_equal(
                a.selected_positions, b.selected_positions
            )


def prefill_in_chunks(model, prompts, policies, chunk_tokens):
    """Drive ``prefill_chunk_batched`` over every prompt, ``chunk_tokens``
    ids per sequence per iteration; returns the final logits per prompt.
    Multi-chunk prompts accumulate in preallocated in-place buffers, as
    the serving scheduler's do."""
    config = model.config
    states = [
        PrefillState.preallocate(
            config.num_layers, len(prompt), config.num_heads, config.head_dim
        )
        if chunk_tokens < len(prompt) else None
        for prompt in prompts
    ]
    logits = [None] * len(prompts)
    while True:
        active = [
            b for b, prompt in enumerate(prompts)
            if states[b] is None or states[b].processed < len(prompt)
        ]
        if not active:
            return np.stack(logits)
        chunks, finals = [], []
        for b in active:
            done = 0 if states[b] is None else states[b].processed
            end = min(done + chunk_tokens, len(prompts[b]))
            chunks.append(prompts[b][done:end])
            finals.append(end == len(prompts[b]))
        step_logits, step_states = model.prefill_chunk_batched(
            chunks, [states[b] for b in active],
            [policies[b] for b in active], finals,
        )
        for row, b in enumerate(active):
            states[b] = step_states[row]
            if step_logits[row] is not None:
                logits[b] = step_logits[row]


class TestModelLevelChunkInvariance:
    """Looping ``prefill_chunk_batched`` is chunk-size invariant."""

    # One page, an odd non-divisor of every prompt length, >= prompt length.
    @pytest.mark.parametrize("chunk_tokens", [PAGE, 5, 64])
    @pytest.mark.parametrize("policy_name", POLICY_NAMES + EXTRA_POLICIES)
    def test_logits_and_policy_state_match_one_shot(
        self, model, shared_prefix_prompts, policy_name, chunk_tokens
    ):
        prompts = shared_prefix_prompts[:4]
        factory = policy_factory(policy_name, len(prompts[0]))
        ref_policies = [model.make_policies(factory) for _ in prompts]
        ref_logits = prefill_in_chunks(model, prompts, ref_policies, 10**6)
        policies = [model.make_policies(factory) for _ in prompts]
        logits = prefill_in_chunks(model, prompts, policies, chunk_tokens)
        np.testing.assert_allclose(logits, ref_logits, rtol=1e-10, atol=1e-10)
        for b in range(len(prompts)):
            for layer in range(LAYERS):
                want, got = ref_policies[b][layer], policies[b][layer]
                np.testing.assert_array_equal(
                    np.sort(want.cached_positions()),
                    np.sort(got.cached_positions()),
                )
                assert_stats_identical(want.stats, got.stats)


class TestEngineChunkInvariance:
    """The acceptance matrix: tokens and PolicyStats identical to one-shot
    prefill for all policies x chunk budgets x batch sizes."""

    @pytest.mark.parametrize("policy_name", POLICY_NAMES + EXTRA_POLICIES)
    @pytest.mark.parametrize("batch_size", [1, 4, 16])
    def test_tokens_and_stats_identical(
        self, model, shared_prefix_prompts, policy_name, batch_size
    ):
        factory = policy_factory(policy_name, len(shared_prefix_prompts[0]))
        _, reference = run_engine(
            model, shared_prefix_prompts,
            batch_size=batch_size, policy_factory=factory,
        )
        # One-page chunks, an odd non-divisor budget, and a budget larger
        # than any prompt (single chunk, but through the scheduler path).
        for budget in (PAGE, 5, 1000):
            engine, chunked = run_engine(
                model, shared_prefix_prompts,
                batch_size=batch_size, policy_factory=factory,
                max_tokens_per_step=budget, kv_pools=make_pools(),
            )
            for want, got in zip(reference, chunked):
                assert got.finish_reason == want.finish_reason != "error"
                assert got.token_ids == want.token_ids
                assert len(got.policy_stats) == LAYERS
                for ws, gs in zip(want.policy_stats, got.policy_stats):
                    assert_stats_identical(ws, gs)
            stats = engine.stats()
            assert stats["kv_pool"]["reserved_pages"] == 0
            assert (
                stats["kv_pool"]["pages_in_use"]
                == stats["prefix_cache"]["pages_held"]
            )

    def test_small_budget_chunks_long_prompts(self, model):
        rng = np.random.default_rng(3)
        long_prompt = list(map(int, rng.integers(0, VOCAB, size=96)))
        engine, (response,) = run_engine(
            model, [long_prompt], batch_size=4, max_tokens_per_step=16,
        )
        assert response.finish_reason == "length"
        scheduler = engine.stats()["scheduler"]
        assert scheduler["chunked_prompts"] == 1
        assert scheduler["prefill_chunks_scheduled"] >= 6
        assert scheduler["prefill_tokens_scheduled"] == 96


class TestDecodeNeverStalls:
    """The tentpole property: a giant prompt admitted mid-stream cannot
    freeze in-flight sequences' tokens."""

    def test_actives_emit_one_token_between_chunks(self, model):
        rng = np.random.default_rng(11)
        short = [list(map(int, rng.integers(0, VOCAB, size=6))) for _ in range(4)]
        long_prompt = list(map(int, rng.integers(0, VOCAB, size=96)))

        engine = BatchedEngine(
            model, max_batch_size=8, max_tokens_per_step=24,
            prefix_caching=False,
        )
        for prompt in short:
            engine.submit(ServingRequest(prompt_ids=prompt, max_new_tokens=64))
        engine.step()  # short prompts prefill and start decoding
        assert engine.num_active == 4

        engine.submit(ServingRequest(prompt_ids=long_prompt, max_new_tokens=4))
        chunk_steps = 0
        while engine.num_prefilling or engine.num_pending:
            before = {
                slot.request_id: len(slot.generated)
                for slot in engine.scheduler.active
            }
            engine.step()
            chunk_steps += 1
            for slot in engine.scheduler.active:
                if slot.request_id in before:
                    # Every decode that survived the step advanced by
                    # exactly one token while the long prompt chunked.
                    assert len(slot.generated) == before[slot.request_id] + 1
            assert chunk_steps < 50, "long prompt prefill never completed"
        # The long prompt needed several steps (budget 24 - 4 decodes = 20
        # prefill tokens per step for 96 tokens), none of which stalled the
        # decodes above.
        assert chunk_steps >= 4
        responses = engine.run()
        assert all(r.finish_reason != "error" for r in responses)

    def test_unchunked_engine_does_stall(self, model):
        """Contrast: without a budget the long prompt prefills whole in the
        step it is admitted (single chunk) — the latency the scheduler
        removes.  Guards that the budget knob actually changes scheduling."""
        rng = np.random.default_rng(11)
        long_prompt = list(map(int, rng.integers(0, VOCAB, size=96)))
        engine, _ = run_engine(model, [long_prompt], batch_size=4)
        assert engine.stats()["scheduler"]["chunked_prompts"] == 0


class TestByReferenceCacheInserts:
    """Satellite: prefix-cache entries reference the inserting sequence's
    own pool pages instead of writing a second paged copy."""

    def test_insert_by_reference_and_cow_split(self, model):
        rng = np.random.default_rng(7)
        # 13 tokens: the tail page is partial, so the first decode append
        # lands in a page shared with the cache entry -> CoW split.
        prompt = list(map(int, rng.integers(0, VOCAB, size=13)))
        _, (reference,) = run_engine(model, [prompt], batch_size=2)

        pools = make_pools()
        engine = BatchedEngine(model, max_batch_size=2, kv_pools=pools)
        engine.submit(ServingRequest(prompt_ids=prompt, max_new_tokens=MAX_NEW))
        (first,) = engine.run()
        stats = engine.stats()
        assert stats["admission"]["cache_inserts_by_reference"] == 1
        assert stats["prefix_cache"]["inserts_by_reference"] == 1
        # The sequence appended into the shared tail page: its write split
        # the page instead of mutating the cache entry.
        assert stats["kv_pool"]["cow_splits"] >= LAYERS
        assert first.token_ids == reference.token_ids

        # A sharer admitted after the split still restores the pristine
        # prefix from the entry.
        engine.submit(ServingRequest(prompt_ids=prompt, max_new_tokens=MAX_NEW))
        (second,) = [r for r in engine.run() if r.request_id != first.request_id]
        assert second.token_ids == reference.token_ids
        assert engine.prefix_cache.stats.tokens_reused == len(prompt) - 1

    def test_share_prefix_survives_sharer_overwrite(self):
        """Pool-level regression: a sharer overwriting an adopted page
        CoW-splits it; the shared run keeps the original rows."""
        pool = PagedKVPool(PAGE, HEADS, HEAD_DIM, num_pages=16)
        writer = PagedKVStore(HEADS, HEAD_DIM, pool=pool)
        rng = np.random.default_rng(1)
        keys = rng.normal(size=(13, HEADS, HEAD_DIM))
        values = rng.normal(size=(13, HEADS, HEAD_DIM))
        writer.bulk_append(range(13), keys, values)

        shared = writer.share_prefix(13)
        assert shared is not None and shared.length == 13
        # The writer appends into the shared partial tail page.
        writer.put(13, np.ones((HEADS, HEAD_DIM)), np.ones((HEADS, HEAD_DIM)))
        assert pool.stats.cow_splits == 1
        got_keys, got_values = shared.materialize()
        np.testing.assert_allclose(got_keys, keys)
        np.testing.assert_allclose(got_values, values)
        # The writer sees its own write, not the pristine run.
        wk, _ = writer.gather([13])
        np.testing.assert_allclose(wk[0], np.ones((HEADS, HEAD_DIM)))
        writer.release()
        got_keys, _ = shared.materialize()  # survives the writer entirely
        np.testing.assert_allclose(got_keys, keys)
        shared.decref()
        assert pool.pages_in_use == 0

    def test_share_prefix_requires_identity_layout(self):
        pool = PagedKVPool(PAGE, HEADS, HEAD_DIM, num_pages=16)
        store = PagedKVStore(HEADS, HEAD_DIM, pool=pool)
        row = np.zeros((HEADS, HEAD_DIM))
        store.put(3, row, row)  # position 3 lands in slot 0: not identity
        assert store.share_prefix(1) is None
        assert store.share_prefix(9) is None  # beyond high water


class TestTightenedAdmission:
    """Satellite: allocated-so-far reservations + the delta telemetry."""

    def test_reservation_delta_positive_mid_flight(self, model):
        rng = np.random.default_rng(9)
        prompts = [list(map(int, rng.integers(0, VOCAB, size=20))) for _ in range(4)]
        engine = BatchedEngine(
            model, max_batch_size=4, kv_pools=make_pools(),
            prefix_caching=False,
        )
        for prompt in prompts:
            engine.submit(ServingRequest(prompt_ids=prompt, max_new_tokens=12))
        engine.step()
        stats = engine.stats()["kv_pool"]
        # Prefill landed: the sequences hold their prompt pages, so the
        # outstanding demand dropped below the admission-time worst case.
        assert stats["reserved_pages"] > 0
        assert stats["worst_case_reserved_pages"] > stats["reserved_pages"]
        assert stats["reservation_delta"] > 0
        engine.run()
        stats = engine.stats()["kv_pool"]
        assert stats["reserved_pages"] == 0
        assert stats["reservation_delta"] == 0

    def test_small_pool_still_completes_everything_chunked(
        self, model, shared_prefix_prompts
    ):
        """Page-gated admission + chunked prefill: everything completes,
        token-identical, with deferrals."""
        _, reference = run_engine(model, shared_prefix_prompts, batch_size=16)
        pools = make_pools(num_pages=10)
        engine, paged = run_engine(
            model, shared_prefix_prompts, batch_size=16,
            kv_pools=pools, max_tokens_per_step=6,
        )
        for want, got in zip(reference, paged):
            assert got.finish_reason == want.finish_reason != "error"
            assert got.token_ids == want.token_ids
        assert engine.stats()["admission"]["page_deferrals"] > 0
        assert engine.stats()["peak_active"] < len(shared_prefix_prompts)


class TestPolicyHomogeneousGrouping:
    """Satellite: decode slots are ordered so same-policy sequences are
    contiguous, with group spans recorded in telemetry."""

    def test_mixed_policies_grouped_contiguously(self, model):
        rng = np.random.default_rng(13)
        prompts = [list(map(int, rng.integers(0, VOCAB, size=10))) for _ in range(6)]
        unicaim = build_policy_factory("unicaim", prompt_length=10, cache_ratio=0.6)
        engine = BatchedEngine(model, max_batch_size=6, prefix_caching=False)
        # Interleave policies so grouping has to reorder.
        for i, prompt in enumerate(prompts):
            engine.submit(
                ServingRequest(
                    prompt_ids=prompt, max_new_tokens=6,
                    policy_factory=unicaim if i % 2 else None,
                )
            )
        engine.step()
        groups = engine.stats()["scheduler"]["decode_groups"]
        assert len(groups) == 2
        keys = [key for key, _start, _length in groups]
        assert len(set(keys)) == 2
        spans = [(start, length) for _key, start, length in groups]
        assert spans == [(0, 3), (3, 3)]
        # Grouping is telemetry + ordering only: tokens are unchanged.
        responses = engine.run()
        assert all(r.finish_reason == "length" for r in responses)
        assert engine.stats()["scheduler"]["grouped_decode_steps"] >= 1


class TestSchedulerKnobValidation:
    def test_budget_and_policy_are_exclusive(self, model):
        with pytest.raises(ValueError):
            BatchedEngine(
                model,
                scheduler_policy=SchedulerPolicy(max_tokens_per_step=8),
                max_tokens_per_step=8,
            )

    def test_bad_budget_rejected(self):
        with pytest.raises(ValueError):
            SchedulerPolicy(max_tokens_per_step=0)
        with pytest.raises(ValueError):
            SchedulerPolicy(min_prefill_tokens_per_step=-1)
