"""Speculative decoding must be invisible in the output: token- and
stats-identical to plain greedy decode.

The engine drafts up to ``k`` tokens per sequence per step, verifies the
whole chunk in one batched forward
(:meth:`~repro.llm.model.TransformerLM.verify_steps_batched`) and commits
the longest prefix the target's own greedy argmax agrees with.  Rejected
drafts are rolled back out of the KV state (fresh CoW pages dropped, store
rows trimmed), so acceptance-checked verification makes the committed
stream *identical* to plain decode — for every policy at every batch
size, on the engine's default arena and on caller-supplied pools, across
mid-speculation preemption/resume and
prefix-shared (copy-on-write) sequences.  A hostile drafter must cost
only throughput, never correctness: the acceptance-rate auto-disable
turns speculation off per sequence and the stream still matches.
"""

import numpy as np
import pytest

from repro.core.kv_pool import KVPoolGroup
from repro.eval.harness import POLICY_NAMES, build_policy_factory
from repro.llm.config import ModelConfig
from repro.llm.induction import build_induction_model
from repro.llm.model import TransformerLM
from repro.serving import BatchedEngine, ServingRequest
from repro.serving.speculation import (
    Drafter,
    InductionDrafter,
    NGramDrafter,
    SpeculationConfig,
)

VOCAB = 89
HEADS, HEAD_DIM, LAYERS = 2, 8, 2


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
def repetitive_prompts():
    """Motif-tiled prompts: the shape where n-gram drafting actually hits."""
    rng = np.random.default_rng(11)
    prompts = []
    for motif_len, total in (
        (5, 24), (7, 30), (4, 21), (6, 33), (5, 27), (8, 24), (6, 30), (5, 26),
    ):
        motif = list(map(int, rng.integers(0, VOCAB, size=motif_len)))
        reps = total // motif_len + 1
        prompts.append((motif * reps)[:total])
    return prompts


@pytest.fixture(scope="module")
def shared_repetitive_prompts():
    """Motif-tiled prompts sharing a 16-token prefix (CoW page sharing)."""
    rng = np.random.default_rng(37)
    motif = list(map(int, rng.integers(0, VOCAB, size=8)))
    shared = (motif * 2)[:16]
    prompts = []
    for extra in (6, 10, 4, 12, 8, 6, 10, 4):
        prompts.append(shared + (motif * 3)[:extra])
    return prompts


def make_pools(num_pages=600, page_size=8):
    return KVPoolGroup(
        LAYERS, page_size=page_size, num_heads=HEADS, head_dim=HEAD_DIM,
        num_pages=num_pages,
    )


#: The engine's own default arena (``kv_pools=None``: 16-token pages sized
#: to the batch) and a caller-supplied pool of 8-token pages, so rollback
#: and copy-on-write meet page boundaries at different tokens.
ARENAS = [lambda: None, make_pools]
ARENA_IDS = ["default-arena", "explicit-pools"]


def make_engine(model, prompts, *, kv_pools=None, batch_size=4,
                policy_factory=None, max_new_tokens=10, speculation=None,
                on_token=None):
    engine = BatchedEngine(
        model,
        policy_factory=policy_factory,
        max_batch_size=batch_size,
        kv_pools=kv_pools,
        speculation=speculation,
        on_token=on_token,
    )
    for prompt in prompts:
        engine.submit(
            ServingRequest(prompt_ids=prompt, max_new_tokens=max_new_tokens)
        )
    return engine


def run_with_forced_preemptions(engine, preempt_at=(1, 2, 3, 4, 5)):
    """Drive the engine, forcibly preempting mid-decode along the way."""
    forced = 0
    steps = 0
    while engine.has_work:
        engine.step()
        steps += 1
        assert steps < 20_000, "engine failed to make progress"
        if steps in preempt_at and engine.scheduler.active:
            victim = max(
                engine.scheduler.active,
                key=lambda s: (len(s.generated), s.request_id),
            )
            assert engine.preempt(victim.request_id)
            forced += 1
    assert forced > 0, "no preemption was ever forced; test is vacuous"
    return engine.run()


def assert_stats_identical(ref, res):
    assert ref.prefill_tokens == res.prefill_tokens
    assert ref.retained_after_prefill == res.retained_after_prefill
    assert ref.prefill_reused_tokens == res.prefill_reused_tokens
    assert ref.decode_steps == res.decode_steps
    assert ref.total_attended == res.total_attended
    assert ref.total_evictions == res.total_evictions
    assert ref.peak_cache_size == res.peak_cache_size
    assert len(ref.records) == len(res.records)
    for a, b in zip(ref.records, res.records):
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


def assert_responses_equivalent(reference, speculative):
    assert len(reference) == len(speculative)
    for ref, res in zip(reference, speculative):
        assert ref.request_id == res.request_id
        assert ref.finish_reason == res.finish_reason != "error"
        assert ref.token_ids == res.token_ids
        assert ref.prompt_length == res.prompt_length
        assert len(ref.policy_stats) == len(res.policy_stats) == LAYERS
        for a, b in zip(ref.policy_stats, res.policy_stats):
            assert_stats_identical(a, b)


class WrongDrafter(Drafter):
    """Adversarial drafter: proposes in-vocab tokens that (almost) never
    match the target's greedy choice — every verify is a full rollback."""

    def propose(self, history, k):
        if not history:
            return []
        return [(int(history[-1]) + 1 + i) % VOCAB for i in range(k)]


class TestSpeculativeEquivalence:
    @pytest.mark.parametrize("policy_name", POLICY_NAMES)
    @pytest.mark.parametrize("arena", ARENAS, ids=ARENA_IDS)
    @pytest.mark.parametrize("batch_size", [1, 4, 16])
    def test_token_and_stats_identical(
        self, model, repetitive_prompts, policy_name, arena, batch_size
    ):
        factory = build_policy_factory(
            policy_name, prompt_length=len(repetitive_prompts[0]),
            cache_ratio=0.6,
        )
        reference = make_engine(
            model, repetitive_prompts,
            kv_pools=arena(),
            batch_size=batch_size, policy_factory=factory,
        ).run()
        engine = make_engine(
            model, repetitive_prompts,
            kv_pools=arena(),
            batch_size=batch_size, policy_factory=factory,
            speculation=SpeculationConfig(drafter=NGramDrafter(), k=4),
        )
        speculative = engine.run()
        assert_responses_equivalent(reference, speculative)
        spec = engine.stats()["speculation"]
        if policy_name == "full":
            # The exact policy must actually speculate and commit multi-token
            # steps, not just fall back to plain decode.
            assert spec["accepted_tokens"] > 0
            assert any(k >= 2 for k in spec["tokens_per_step"])

    @pytest.mark.parametrize("policy_name", POLICY_NAMES)
    def test_generous_budget_policies_accept_drafts(
        self, model, repetitive_prompts, policy_name
    ):
        """With the whole cache retained every rollback-capable policy
        certifies ``supports_speculation`` and must commit accepted
        drafts; UniCAIM never certifies (decayed scores and the CAM
        selector's RNG stream cannot roll back) and must fall back to
        exact one-token decode instead."""
        factory = build_policy_factory(
            policy_name, prompt_length=len(repetitive_prompts[0]),
            cache_ratio=1.0, top_k_ratio=1.0,
        )
        reference = make_engine(
            model, repetitive_prompts, kv_pools=make_pools(),
            policy_factory=factory,
        ).run()
        engine = make_engine(
            model, repetitive_prompts, kv_pools=make_pools(),
            policy_factory=factory,
            speculation=SpeculationConfig(drafter=NGramDrafter(), k=4),
        )
        assert_responses_equivalent(reference, engine.run())
        spec = engine.stats()["speculation"]
        if policy_name in ("unicaim", "unicaim_cam"):
            assert spec["accepted_tokens"] == 0
        else:
            assert spec["accepted_tokens"] > 0

    def test_induction_drafter_identical(self, model, repetitive_prompts):
        reference = make_engine(
            model, repetitive_prompts, kv_pools=make_pools(),
        ).run()
        drafter = InductionDrafter(build_induction_model(VOCAB), max_context=48)
        engine = make_engine(
            model, repetitive_prompts, kv_pools=make_pools(),
            speculation=SpeculationConfig(drafter=drafter, k=3),
        )
        assert_responses_equivalent(reference, engine.run())
        assert engine.stats()["speculation"]["accepted_tokens"] > 0


class TestSpeculationUnderPreemption:
    @pytest.mark.parametrize("policy_name", POLICY_NAMES)
    def test_preempt_resume_with_speculation_is_invisible(
        self, model, repetitive_prompts, policy_name
    ):
        """Preempting sequences that speculated (or were mid-flight) must
        replay to the exact uninterrupted plain-decode stream.  Generous
        budgets so the rollback-capable policies actually certify
        speculation and the preempted state contains committed drafts."""
        factory = build_policy_factory(
            policy_name, prompt_length=len(repetitive_prompts[0]),
            cache_ratio=1.0, top_k_ratio=1.0,
        )
        reference = make_engine(
            model, repetitive_prompts, kv_pools=make_pools(),
            policy_factory=factory,
        ).run()
        engine = make_engine(
            model, repetitive_prompts, kv_pools=make_pools(),
            policy_factory=factory,
            speculation=SpeculationConfig(drafter=NGramDrafter(), k=4),
        )
        resumed = run_with_forced_preemptions(engine)
        assert_responses_equivalent(reference, resumed)
        stats = engine.stats()
        assert stats["preemption"]["preemptions"] > 0
        assert stats["preemption"]["resumes"] == (
            stats["preemption"]["preemptions"]
        )
        if policy_name not in ("unicaim", "unicaim_cam"):
            assert stats["speculation"]["accepted_tokens"] > 0


class TestSharedPrefixCoW:
    @pytest.mark.parametrize("batch_size", [2, 8])
    def test_prefix_shared_sequences_identical(
        self, model, shared_repetitive_prompts, batch_size
    ):
        """Speculation into CoW pages above a shared prefix must neither
        corrupt siblings nor change any stream."""
        reference = make_engine(
            model, shared_repetitive_prompts, kv_pools=make_pools(),
            batch_size=batch_size,
        ).run()
        engine = make_engine(
            model, shared_repetitive_prompts, kv_pools=make_pools(),
            batch_size=batch_size,
            speculation=SpeculationConfig(drafter=NGramDrafter(), k=4),
        )
        speculative = engine.run()
        assert_responses_equivalent(reference, speculative)
        # The prefix cache must actually be sharing pages in both runs,
        # otherwise this never exercised copy-on-write.
        assert any(
            stat.prefill_reused_tokens > 0
            for resp in speculative
            for stat in resp.policy_stats
        )
        assert engine.stats()["speculation"]["accepted_tokens"] > 0


class TestOnTokenStreaming:
    def test_on_token_fires_once_per_committed_token_in_order(
        self, model, repetitive_prompts
    ):
        """Multi-token accepts must stream exactly like plain decode:
        ``on_token(request_id, token, n)`` once per committed token, in
        commit order, with contiguous per-request counts."""
        plain_events, spec_events = [], []
        make_engine(
            model, repetitive_prompts, kv_pools=make_pools(), batch_size=2,
            on_token=lambda rid, tok, n: plain_events.append((rid, tok, n)),
        ).run()
        engine = make_engine(
            model, repetitive_prompts, kv_pools=make_pools(), batch_size=2,
            speculation=SpeculationConfig(drafter=NGramDrafter(), k=4),
            on_token=lambda rid, tok, n: spec_events.append((rid, tok, n)),
        )
        responses = engine.run()
        spec = engine.stats()["speculation"]
        assert any(k >= 2 for k in spec["tokens_per_step"]), (
            "no multi-token accept happened; streaming test is vacuous"
        )
        # Per-request event streams match plain decode exactly.
        by_request = {}
        for rid, tok, n in spec_events:
            by_request.setdefault(rid, []).append((tok, n))
        plain_by_request = {}
        for rid, tok, n in plain_events:
            plain_by_request.setdefault(rid, []).append((tok, n))
        assert by_request == plain_by_request
        for resp in responses:
            events = by_request[resp.request_id]
            assert [n for _, n in events] == list(range(1, len(events) + 1))
            assert [tok for tok, _ in events] == resp.token_ids


class TestRollbackAndAutoDisable:
    def test_rejected_drafts_roll_pages_back(self, model, repetitive_prompts):
        """A hostile drafter forces full rollbacks every verify; staged CoW
        pages must be returned to the pool and the stream unchanged."""
        reference = make_engine(
            model, repetitive_prompts,
            kv_pools=make_pools(num_pages=900, page_size=2),
        ).run()
        pools = make_pools(num_pages=900, page_size=2)
        engine = make_engine(
            model, repetitive_prompts, kv_pools=pools,
            speculation=SpeculationConfig(
                drafter=WrongDrafter(), k=4, min_acceptance=0.0,
            ),
        )
        assert_responses_equivalent(reference, engine.run())
        spec = engine.stats()["speculation"]
        assert spec["rollback_rows"] > 0
        assert spec["rollback_pages_dropped"] > 0
        # No page may leak: with every request finished, outstanding pages
        # can only be prefix-cache retentions, never rollback residue.
        pool_stats = engine.stats()["kv_pool"]
        prefix_stats = engine.stats()["prefix_cache"]
        assert pool_stats["pages_in_use"] == prefix_stats["pages_held"]

    def test_low_acceptance_auto_disables_per_sequence(
        self, model, repetitive_prompts
    ):
        reference = make_engine(model, repetitive_prompts).run()
        engine = make_engine(
            model, repetitive_prompts,
            speculation=SpeculationConfig(
                drafter=WrongDrafter(), k=4,
                min_acceptance=0.9, disable_after=4,
            ),
        )
        assert_responses_equivalent(reference, engine.run())
        assert engine.stats()["speculation"]["sequences_disabled"] > 0


class TestTelemetry:
    def test_speculation_stats_are_consistent(self, model, repetitive_prompts):
        engine = make_engine(
            model, repetitive_prompts, kv_pools=make_pools(),
            speculation=SpeculationConfig(drafter=NGramDrafter(), k=4),
        )
        responses = engine.run()
        spec = engine.stats()["speculation"]
        assert spec["enabled"] is True
        assert spec["k"] == 4
        assert 0 < spec["accepted_tokens"] <= spec["drafted_tokens"]
        assert spec["acceptance_rate"] == pytest.approx(
            spec["accepted_tokens"] / spec["drafted_tokens"]
        )
        assert spec["verify_steps"] > 0
        assert spec["verify_chunks"] >= spec["verify_steps"]
        hist = spec["tokens_per_step"]
        assert all(1 <= k <= 5 for k in hist)  # k drafts + 1 correction
        assert sum(hist.values()) == spec["verify_chunks"]
        committed = sum(k * v for k, v in hist.items())
        total_generated = sum(r.num_generated for r in responses)
        assert committed <= total_generated
        assert spec["rollback_rows"] >= 0
        assert spec["sequences_disabled"] == 0

    def test_stats_none_without_speculation(self, model, repetitive_prompts):
        engine = make_engine(model, repetitive_prompts)
        engine.run()
        assert engine.stats()["speculation"] is None


class TestDrafterUnits:
    def test_ngram_prefers_full_k_continuation(self):
        # Tail 2-gram [1, 2] matches at index 0 (continuation truncated by
        # nothing: [30, 9, 9, 1]) and at index 5 ([40, 9, 9, 9]).  The most
        # recent full-k match must win.
        history = [1, 2, 30, 9, 9, 1, 2, 40, 9, 9, 9, 1, 2]
        drafter = NGramDrafter(max_ngram=2, min_ngram=2)
        assert drafter.propose(history, 4) == [40, 9, 9, 9]

    def test_ngram_falls_back_to_longest_partial(self):
        # Only match of the tail 2-gram sits near the end: continuation
        # [7, 5, 6] is shorter than k yet still the best available.
        history = [5, 6, 7, 5, 6]
        drafter = NGramDrafter(max_ngram=2, min_ngram=2)
        assert drafter.propose(history, 4) == [7, 5, 6]

    def test_ngram_tries_longest_suffix_first(self):
        # The 3-gram suffix has a match; a 1-gram scan would pick a
        # different continuation, so the longest suffix must be preferred.
        history = [4, 5, 6, 77, 1, 4, 9, 4, 5, 6]
        drafter = NGramDrafter(max_ngram=3, min_ngram=1)
        assert drafter.propose(history, 1) == [77]

    def test_ngram_empty_cases(self):
        drafter = NGramDrafter()
        assert drafter.propose([], 4) == []
        assert drafter.propose([1], 4) == []
        assert drafter.propose([1, 2, 3], 0) == []
        assert drafter.propose([1, 2, 3], 4) == []  # no repeated suffix

    def test_ngram_validation(self):
        with pytest.raises(ValueError):
            NGramDrafter(max_ngram=0)
        with pytest.raises(ValueError):
            NGramDrafter(max_ngram=2, min_ngram=3)

    def test_induction_drafter_completes_repeated_motif(self):
        drafter = InductionDrafter(build_induction_model(VOCAB), max_context=48)
        motif = [3, 7, 11, 2, 19]
        drafts = drafter.propose(motif * 5, 5)
        assert drafts == motif

    def test_induction_drafter_rejects_out_of_vocab_history(self):
        drafter = InductionDrafter(build_induction_model(VOCAB), max_context=8)
        assert drafter.propose([1, 2, VOCAB + 5], 4) == []
        assert drafter.propose([], 4) == []
        # Out-of-vocab tokens beyond the window do not block drafting.
        history = [VOCAB + 5] + [1, 2, 3, 1, 2, 3, 1, 2]
        assert drafter.propose(history, 2) != []

    def test_induction_drafter_validation(self):
        with pytest.raises(ValueError):
            InductionDrafter(build_induction_model(VOCAB), max_context=1)

    def test_speculation_config_validation(self):
        drafter = NGramDrafter()
        with pytest.raises(ValueError):
            SpeculationConfig(drafter=drafter, k=0)
        with pytest.raises(ValueError):
            SpeculationConfig(drafter=drafter, min_acceptance=1.5)
        with pytest.raises(ValueError):
            SpeculationConfig(drafter=drafter, disable_after=0)
