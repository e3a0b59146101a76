"""Tests for the batched serving engine (repro.serving)."""

import numpy as np
import pytest

from repro.core.config import PruningConfig
from repro.core.dynamic_pruning import CAMApproximateSelector, CAMSelectorConfig
from repro.core.hybrid import UniCAIMPolicy
from repro.core.policy import FullCachePolicy
from repro.eval import evaluate_policy, generate_dataset
from repro.eval.datasets import DatasetSpec
from repro.eval.harness import build_task_model
from repro.llm.config import ModelConfig
from repro.llm.generation import greedy_generate, greedy_generate_serial
from repro.llm.model import TransformerLM
from repro.serving import BatchedEngine, ServingRequest

VOCAB = 97


@pytest.fixture(scope="module")
def model():
    config = ModelConfig(
        vocab_size=VOCAB,
        model_dim=32,
        num_heads=2,
        head_dim=16,
        num_layers=2,
        mlp_hidden_dim=48,
        seed=3,
    )
    return TransformerLM(config)


@pytest.fixture(scope="module")
def prompts():
    rng = np.random.default_rng(7)
    return [list(map(int, rng.integers(0, VOCAB, size=n))) for n in (12, 20, 7, 33, 16, 25, 9, 14)]


def unicaim_factory(heads, dim):
    return UniCAIMPolicy(
        heads,
        dim,
        config=PruningConfig(
            heavy_budget=10, reserved_budget=4, top_k=6,
            sink_tokens=1, recent_protect=2,
        ),
    )


def cam_factory(heads, dim):
    return UniCAIMPolicy(
        heads,
        dim,
        config=PruningConfig(
            heavy_budget=10, reserved_budget=4, top_k=6,
            sink_tokens=1, recent_protect=2,
        ),
        selector=CAMApproximateSelector(
            CAMSelectorConfig(key_bits=3, query_bits=2, seed=11)
        ),
    )


class TestBatchedVsSerialEquivalence:
    @pytest.mark.parametrize(
        "factory", [None, unicaim_factory, cam_factory],
        ids=["full", "unicaim", "unicaim_cam"],
    )
    def test_token_ids_identical_to_serial(self, model, prompts, factory):
        """The acceptance property: batched decode emits byte-identical
        token ids to the strictly serial reference for every sequence."""
        serial = [
            greedy_generate_serial(model, p, 10, policy_factory=factory).token_ids
            for p in prompts
        ]
        engine = BatchedEngine(model, policy_factory=factory, max_batch_size=4)
        for prompt in prompts:
            engine.submit(ServingRequest(prompt_ids=prompt, max_new_tokens=10))
        batched = [response.token_ids for response in engine.run()]
        assert batched == serial

    def test_greedy_generate_routes_through_engine_identically(self, model, prompts):
        for prompt in prompts[:3]:
            serial = greedy_generate_serial(
                model, prompt, 8, policy_factory=unicaim_factory
            )
            wrapped = greedy_generate(
                model, prompt, 8, policy_factory=unicaim_factory
            )
            assert wrapped.token_ids == serial.token_ids
            assert wrapped.prompt_length == serial.prompt_length
            assert [s.decode_steps for s in wrapped.policy_stats] == [
                s.decode_steps for s in serial.policy_stats
            ]

    def test_keep_logits_matches_serial(self, model, prompts):
        serial = greedy_generate_serial(model, prompts[0], 5, keep_logits=True)
        engine = BatchedEngine(model, max_batch_size=2)
        engine.submit(
            ServingRequest(prompt_ids=prompts[0], max_new_tokens=5, keep_logits=True)
        )
        engine.submit(ServingRequest(prompt_ids=prompts[1], max_new_tokens=5))
        first, second = engine.run()
        assert first.logits_history is not None
        assert second.logits_history is None
        assert len(first.logits_history) == len(serial.logits_history)
        # Batched GEMMs may round differently from the serial GEMVs in the
        # last bits; token ids (argmax) are identical, logits near-identical.
        for got, want in zip(first.logits_history, serial.logits_history):
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)

    def test_mixed_policies_in_one_batch(self, model, prompts):
        """Per-request policy stacks coexist in the same decode batch."""
        engine = BatchedEngine(model, max_batch_size=4)
        engine.submit(
            ServingRequest(
                prompt_ids=prompts[0], max_new_tokens=6,
                policy_factory=unicaim_factory, request_id="pruned",
            )
        )
        engine.submit(
            ServingRequest(prompt_ids=prompts[1], max_new_tokens=6, request_id="dense")
        )
        responses = {r.request_id: r for r in engine.run()}
        want_pruned = greedy_generate_serial(
            model, prompts[0], 6, policy_factory=unicaim_factory
        )
        want_dense = greedy_generate_serial(model, prompts[1], 6)
        assert responses["pruned"].token_ids == want_pruned.token_ids
        assert responses["dense"].token_ids == want_dense.token_ids
        assert isinstance(responses["dense"].policy_stats[0], type(want_dense.policy_stats[0]))


class TestContinuousBatching:
    def test_queue_drains_through_limited_batch(self, model, prompts):
        engine = BatchedEngine(model, max_batch_size=3)
        for prompt in prompts:
            engine.submit(ServingRequest(prompt_ids=prompt, max_new_tokens=4))
        assert engine.num_pending == len(prompts) - 0
        peak_active = 0
        while engine.has_work:
            engine.step()
            peak_active = max(peak_active, engine.num_active)
        assert peak_active <= 3
        responses = engine.run()
        assert len(responses) == len(prompts)
        assert all(r.num_generated == 4 for r in responses)

    def test_mid_flight_admission_matches_serial(self, model, prompts):
        """A request submitted while others are mid-decode produces the
        same tokens as if it had been run alone."""
        engine = BatchedEngine(model, policy_factory=unicaim_factory, max_batch_size=4)
        engine.submit(ServingRequest(prompt_ids=prompts[0], max_new_tokens=12))
        engine.submit(ServingRequest(prompt_ids=prompts[1], max_new_tokens=12))
        engine.step()
        engine.step()
        late_id = engine.submit(
            ServingRequest(prompt_ids=prompts[2], max_new_tokens=12)
        )
        responses = {r.request_id: r for r in engine.run()}
        want = greedy_generate_serial(
            model, prompts[2], 12, policy_factory=unicaim_factory
        )
        assert responses[late_id].token_ids == want.token_ids

    def test_run_returns_submission_order(self, model, prompts):
        engine = BatchedEngine(model, max_batch_size=2)
        ids = [
            engine.submit(ServingRequest(prompt_ids=p, max_new_tokens=n))
            for p, n in zip(prompts[:4], (7, 2, 5, 1))
        ]
        responses = engine.run()
        assert [r.request_id for r in responses] == ids


class TestStopConditions:
    def test_stop_id_finishes_without_emitting(self, model, prompts):
        reference = greedy_generate_serial(model, prompts[0], 8)
        assert len(reference.token_ids) >= 2
        stop = reference.token_ids[1]
        engine = BatchedEngine(model, max_batch_size=2)
        rid = engine.submit(
            ServingRequest(prompt_ids=prompts[0], max_new_tokens=8, stop_ids=[stop])
        )
        response = engine.run()[0]
        want = greedy_generate_serial(model, prompts[0], 8, stop_ids=[stop])
        assert response.request_id == rid
        assert response.token_ids == want.token_ids
        assert stop not in response.token_ids
        assert response.finish_reason == "stop"

    def test_length_budget(self, model, prompts):
        engine = BatchedEngine(model, max_batch_size=2)
        engine.submit(ServingRequest(prompt_ids=prompts[0], max_new_tokens=3))
        response = engine.run()[0]
        assert response.num_generated == 3
        assert response.finish_reason == "length"

    def test_zero_budget_completes_immediately(self, model, prompts):
        engine = BatchedEngine(model, max_batch_size=2)
        engine.submit(ServingRequest(prompt_ids=prompts[0], max_new_tokens=0))
        response = engine.run()[0]
        assert response.token_ids == []
        assert response.finish_reason == "length"


class TestNoWastedFinalDecode:
    """Budget-exhausted sequences must not decode their final emitted token."""

    def test_policy_decode_steps_is_budget_minus_one(self, model, prompts):
        """N generated tokens need N-1 decode steps: the prompt prefill
        yields the first token's logits, and the final token is emitted
        without being fed back through the model."""
        n = 6
        serial = greedy_generate_serial(model, prompts[0], n)
        assert len(serial.token_ids) == n
        assert all(s.decode_steps == n - 1 for s in serial.policy_stats)

        engine = BatchedEngine(model, max_batch_size=2)
        engine.submit(ServingRequest(prompt_ids=prompts[0], max_new_tokens=n))
        engine.submit(ServingRequest(prompt_ids=prompts[1], max_new_tokens=n))
        for response in engine.run():
            assert response.num_generated == n
            assert all(s.decode_steps == n - 1 for s in response.policy_stats)
        assert engine.step_count == n

    def test_stopped_sequence_unaffected(self, model, prompts):
        reference = greedy_generate_serial(model, prompts[0], 8)
        stop = reference.token_ids[3]
        serial = greedy_generate_serial(model, prompts[0], 8, stop_ids=[stop])
        # Stopping consumed no budget-exhaustion shortcut: one decode per
        # emitted token (the stop id is seen in decoded logits).
        assert all(
            s.decode_steps == len(serial.token_ids) for s in serial.policy_stats
        )


class TestAdmissionFailureConsistency:
    def test_out_of_vocab_prompt_rejected_at_submit(self, model):
        engine = BatchedEngine(model)
        with pytest.raises(ValueError):
            engine.submit(ServingRequest(prompt_ids=[1, VOCAB], max_new_tokens=2))
        with pytest.raises(ValueError):
            engine.submit(ServingRequest(prompt_ids=[-1], max_new_tokens=2))
        # The rejected submissions left no trace: the engine still runs.
        assert engine.num_pending == 0
        assert engine.run() == []

    def test_failing_prefill_becomes_error_response(self, model, prompts):
        """A prefill exception fails only the offending request; the engine
        stays consistent and later runs never raise KeyError."""

        def broken_factory(heads, dim):
            raise RuntimeError("policy construction exploded")

        engine = BatchedEngine(model, max_batch_size=4)
        ok_before = engine.submit(
            ServingRequest(prompt_ids=prompts[0], max_new_tokens=3)
        )
        bad = engine.submit(
            ServingRequest(
                prompt_ids=prompts[1], max_new_tokens=3,
                policy_factory=broken_factory,
            )
        )
        ok_after = engine.submit(
            ServingRequest(prompt_ids=prompts[2], max_new_tokens=3)
        )
        responses = {r.request_id: r for r in engine.run()}
        assert set(responses) == {ok_before, bad, ok_after}
        assert responses[bad].finish_reason == "error"
        assert responses[bad].token_ids == []
        assert "policy construction exploded" in responses[bad].error
        for rid, prompt in ((ok_before, prompts[0]), (ok_after, prompts[2])):
            want = greedy_generate_serial(model, prompt, 3)
            assert responses[rid].token_ids == want.token_ids
            assert responses[rid].finish_reason == "length"
        # The engine is still serviceable after the failure.
        rid = engine.submit(ServingRequest(prompt_ids=prompts[3], max_new_tokens=2))
        assert engine.run()[-1].request_id == rid

    @pytest.mark.parametrize(
        "budget,warm", [(None, False), (4, False), (4, True)],
        ids=["whole-prompt", "chunked", "chunked-prefix-hit"],
    )
    def test_failed_packed_prefill_restarts_each_member_alone(
        self, model, prompts, budget, warm, monkeypatch
    ):
        """A policy raising inside a packed prefill pass fails only its own
        request: every member of the pass is re-prefilled alone, the
        healthy ones match the serial oracle and no page leaks.  At a
        4-token budget the 5-, 2- and 7-token prompts meet in the second
        step's pass (the first prompt's last token, the whole offender and
        the third prompt's first token).  With ``warm`` the third prompt
        is a 33-token one whose first 32 tokens an earlier request left in
        the prefix cache: its pinned prefix is dropped and it restarts
        cold."""
        engine = BatchedEngine(model, max_batch_size=4, max_tokens_per_step=budget)
        third_prompt = prompts[3] if warm else prompts[2]
        if warm:
            engine.submit(ServingRequest(prompt_ids=third_prompt, max_new_tokens=1))
            engine.run()
            assert engine.stats()["prefix_cache"]["pages_held"] > 0
        restarted = []
        restart = engine._restart_prefill_alone

        def spy(seq, finished):
            restarted.append(seq.request.request_id)
            restart(seq, finished)

        monkeypatch.setattr(engine, "_restart_prefill_alone", spy)
        first = engine.submit(
            ServingRequest(prompt_ids=prompts[0][:5], max_new_tokens=5)
        )
        bad = engine.submit(
            ServingRequest(
                prompt_ids=prompts[1][:2], max_new_tokens=5,
                policy_factory=lambda heads, dim: FailingPrefillPolicy(heads, dim),
            )
        )
        third = engine.submit(
            ServingRequest(prompt_ids=third_prompt, max_new_tokens=5)
        )
        healthy = {first: prompts[0][:5], third: third_prompt}
        responses = {r.request_id: r for r in engine.run()}
        assert sorted(restarted) == sorted([*healthy, bad])
        assert responses[bad].finish_reason == "error"
        assert responses[bad].error_cause == "prefill_failed"
        if warm:
            # The third request's lookup hit before the pass failed.
            assert engine.stats()["prefix_cache"]["hits"] == 1
        for rid, prompt in healthy.items():
            want = greedy_generate_serial(model, prompt, 5)
            got = responses[rid]
            assert got.finish_reason == "length"
            assert got.token_ids == want.token_ids
            for a, b in zip(want.policy_stats, got.policy_stats, strict=True):
                assert_stats_match_serial(a, b)
        pool = engine.stats()["kv_pool"]
        assert pool["reserved_pages"] == 0
        assert pool["pages_in_use"] == engine.stats()["prefix_cache"]["pages_held"]


class FailingPrefillPolicy(FullCachePolicy):
    def prefill_extend(self, *args, **kwargs):
        raise RuntimeError("prefill_extend exploded")


def assert_stats_match_serial(want, got):
    """Every ``PolicyStats`` field except ``prefill_reused_tokens`` (the
    serial oracle has no prefix cache)."""
    for name in ("prefill_tokens", "retained_after_prefill", "decode_steps",
                 "total_attended", "total_evictions", "peak_cache_size"):
        assert getattr(want, name) == getattr(got, name), name
    assert len(want.records) == len(got.records)
    for a, b in zip(want.records, got.records):
        assert (a.position, a.cache_size, a.num_attended, a.evicted_position) == (
            b.position, b.cache_size, b.num_attended, b.evicted_position
        )
        if a.selected_positions is None:
            assert b.selected_positions is None
        else:
            np.testing.assert_array_equal(a.selected_positions, b.selected_positions)


class TestStopIdsSnapshot:
    def test_caller_mutation_after_submit_is_ignored(self, model, prompts):
        reference = greedy_generate_serial(model, prompts[0], 8)
        assert len(reference.token_ids) >= 3
        stop_ids = [reference.token_ids[2]]
        engine = BatchedEngine(model, max_batch_size=2)
        engine.submit(
            ServingRequest(prompt_ids=prompts[0], max_new_tokens=8, stop_ids=stop_ids)
        )
        # Mutating the caller's list after submit must not change stop
        # behaviour mid-flight (stop_ids are snapshotted to a frozenset).
        stop_ids.clear()
        stop_ids.append(reference.token_ids[0])
        response = engine.run()[0]
        want = greedy_generate_serial(
            model, prompts[0], 8, stop_ids=[reference.token_ids[2]]
        )
        assert response.token_ids == want.token_ids
        assert response.finish_reason == "stop"


class TestValidation:
    def test_empty_prompt_rejected(self, model):
        engine = BatchedEngine(model)
        with pytest.raises(ValueError):
            engine.submit(ServingRequest(prompt_ids=[], max_new_tokens=4))

    def test_negative_budget_rejected(self, model):
        engine = BatchedEngine(model)
        with pytest.raises(ValueError):
            engine.submit(ServingRequest(prompt_ids=[1], max_new_tokens=-1))

    def test_duplicate_request_id_rejected(self, model):
        engine = BatchedEngine(model)
        engine.submit(ServingRequest(prompt_ids=[1], max_new_tokens=1, request_id="x"))
        with pytest.raises(ValueError):
            engine.submit(
                ServingRequest(prompt_ids=[2], max_new_tokens=1, request_id="x")
            )

    def test_bad_batch_size_rejected(self, model):
        with pytest.raises(ValueError):
            BatchedEngine(model, max_batch_size=0)

    def test_response_lookup(self, model):
        engine = BatchedEngine(model)
        rid = engine.submit(ServingRequest(prompt_ids=[1, 2], max_new_tokens=1))
        assert engine.response(rid) is None
        engine.run()
        assert engine.response(rid) is not None


class TestBatchedHarness:
    @pytest.fixture(scope="class")
    def dataset(self):
        return generate_dataset(
            DatasetSpec(
                name="serving", num_examples=4, prompt_length=150,
                num_facts=4, answer_tokens=2, hops=1, seed=13,
            )
        )

    def test_batched_eval_matches_serial_eval(self, dataset):
        model = build_task_model(dataset.tokenizer)
        batched = evaluate_policy(
            model, dataset, "unicaim", cache_ratio=0.5, batch_size=4
        )
        serial = evaluate_policy(
            model, dataset, "unicaim", cache_ratio=0.5, batch_size=1
        )
        assert [r.prediction for r in batched.results] == [
            r.prediction for r in serial.results
        ]
        assert batched.mean_f1 == serial.mean_f1
