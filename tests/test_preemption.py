"""Preempt/resume must be invisible in the output: token- and
stats-identical to an uninterrupted run.

The refactored OOM path parks a victim sequence (pages released) and
later resumes it through the chunked-prefill path — either by
re-prefilling prompt+generated when every layer policy certifies
``exact_resume_by_reprefill``, or by replaying the generated tokens
through decode.  Both must reproduce the uninterrupted run's tokens and
``PolicyStats`` exactly, for every policy at every batch size, on the
engine's default arena and on caller-supplied pools.  A
preemption storm under optimistic admission must complete every request
with zero errors.
"""

import types

import numpy as np
import pytest

from repro.core.kv_pool import KVPoolGroup
from repro.core.policy import StepRecord
from repro.eval.harness import POLICY_NAMES, build_policy_factory
from repro.llm.config import ModelConfig
from repro.llm.generation import greedy_generate_serial
from repro.llm.model import TransformerLM
from repro.serving import BatchedEngine, SchedulerPolicy, ServingRequest
from repro.serving.engine import SequenceSlot
from repro.serving.scheduler import Scheduler

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
def shared_prefix_prompts():
    """Prompts sharing a 14-token prefix, with varied unique suffixes."""
    rng = np.random.default_rng(23)
    shared = list(map(int, rng.integers(0, VOCAB, size=14)))
    return [
        shared + list(map(int, rng.integers(0, VOCAB, size=n)))
        for n in (3, 6, 2, 8, 5, 3, 7, 4, 6, 2, 5, 3, 4, 8, 2, 6)
    ]


def make_pools(num_pages=600, page_size=8):
    return KVPoolGroup(
        LAYERS, page_size=page_size, num_heads=HEADS, head_dim=HEAD_DIM,
        num_pages=num_pages,
    )


#: The engine's own default arena (``kv_pools=None``: 16-token pages sized
#: to the batch) and a caller-supplied pool of 8-token pages, so page
#: boundaries, copy-on-write splits and page allocation fall at different
#: tokens.
ARENAS = [lambda: None, make_pools]
ARENA_IDS = ["default-arena", "explicit-pools"]


def make_engine(model, prompts, *, kv_pools=None, batch_size=4,
                policy_factory=None, max_new_tokens=7,
                scheduler_policy=None, keep_logits=False):
    engine = BatchedEngine(
        model,
        policy_factory=policy_factory,
        max_batch_size=batch_size,
        kv_pools=kv_pools,
        scheduler_policy=scheduler_policy,
    )
    for prompt in prompts:
        engine.submit(
            ServingRequest(
                prompt_ids=prompt,
                max_new_tokens=max_new_tokens,
                keep_logits=keep_logits,
            )
        )
    return engine


def run_with_forced_preemptions(engine, preempt_at=(2, 5, 9)):
    """Drive the engine, forcibly preempting mid-decode along the way.

    At each step index in ``preempt_at`` the active sequence with the
    most generated tokens is preempted (deepest mid-decode state — the
    hardest resume).  Returns all responses in submission order.
    """
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


def assert_responses_equivalent(reference, resumed):
    assert len(reference) == len(resumed)
    for ref, res in zip(reference, resumed):
        assert ref.request_id == res.request_id
        assert ref.finish_reason == res.finish_reason != "error"
        assert ref.token_ids == res.token_ids
        assert ref.prompt_length == res.prompt_length
        assert len(ref.policy_stats) == len(res.policy_stats) == LAYERS
        for a, b in zip(ref.policy_stats, res.policy_stats):
            assert_stats_identical(a, b)


class TestPreemptResumeEquivalence:
    @pytest.mark.parametrize("policy_name", POLICY_NAMES)
    @pytest.mark.parametrize("arena", ARENAS, ids=ARENA_IDS)
    @pytest.mark.parametrize("batch_size", [1, 4, 16])
    def test_forced_preemption_is_invisible(
        self, model, shared_prefix_prompts, policy_name, arena, batch_size
    ):
        factory = build_policy_factory(
            policy_name, prompt_length=len(shared_prefix_prompts[0]),
            cache_ratio=0.6,
        )
        reference = make_engine(
            model, shared_prefix_prompts,
            kv_pools=arena(),
            batch_size=batch_size, policy_factory=factory,
        ).run()
        engine = make_engine(
            model, shared_prefix_prompts,
            kv_pools=arena(),
            batch_size=batch_size, policy_factory=factory,
        )
        resumed = run_with_forced_preemptions(engine)
        assert_responses_equivalent(reference, resumed)
        stats = engine.stats()["preemption"]
        assert stats["preemptions"] > 0
        assert stats["resumes"] == stats["preemptions"]
        assert stats["parked"] == 0

    @pytest.mark.parametrize(
        "policy_name", ["full", "snapkv", "streaming_llm", "h2o", "quest"]
    )
    def test_fast_reprefill_resume_path(
        self, model, shared_prefix_prompts, policy_name
    ):
        """With generous budgets every policy certifies the exact
        re-prefill resume; make sure that path actually engages and is
        still output-invisible."""
        factory = build_policy_factory(
            policy_name, prompt_length=64, cache_ratio=1.0, top_k_ratio=1.0,
        )
        reference = make_engine(
            model, shared_prefix_prompts, kv_pools=make_pools(),
            batch_size=4, policy_factory=factory,
        ).run()
        engine = make_engine(
            model, shared_prefix_prompts, kv_pools=make_pools(),
            batch_size=4, policy_factory=factory,
        )
        resumed = run_with_forced_preemptions(engine)
        assert_responses_equivalent(reference, resumed)
        assert engine.stats()["preemption"]["reprefill_resumes"] > 0

    def test_logits_history_preserved_across_preemption(
        self, model, shared_prefix_prompts
    ):
        prompts = shared_prefix_prompts[:4]
        reference = make_engine(
            model, prompts, batch_size=4, keep_logits=True
        ).run()
        engine = make_engine(model, prompts, batch_size=4, keep_logits=True)
        resumed = run_with_forced_preemptions(engine, preempt_at=(2, 4))
        for ref, res in zip(reference, resumed):
            assert ref.token_ids == res.token_ids
            assert len(ref.logits_history) == len(res.logits_history)
            for a, b in zip(ref.logits_history, res.logits_history):
                np.testing.assert_allclose(a, b, rtol=1e-9, atol=1e-12)

    def test_preempt_unknown_or_inactive_request(self, model):
        engine = make_engine(model, [[1, 2, 3]], max_new_tokens=3)
        assert not engine.preempt("nope")
        rid = engine._submission_order[0]
        # Still pending (no step yet): not preemptible.
        assert not engine.preempt(rid)
        engine.run()
        assert not engine.preempt(rid)  # completed: not preemptible


class TestPreemptionStorm:
    def test_optimistic_overload_completes_everything(
        self, model, shared_prefix_prompts
    ):
        """Arena ~half the offered load, optimistic admission: page
        pressure must be absorbed by preemption — every request completes
        with zero errors and token-identical output."""
        factory = build_policy_factory(
            "full", prompt_length=len(shared_prefix_prompts[0]),
            cache_ratio=0.6,
        )
        reference = make_engine(
            model, shared_prefix_prompts, kv_pools=make_pools(),
            batch_size=16, policy_factory=factory,
        ).run()
        engine = make_engine(
            model, shared_prefix_prompts,
            kv_pools=make_pools(num_pages=14),
            batch_size=None, policy_factory=factory,
            scheduler_policy=SchedulerPolicy(
                preemption=True, admission="optimistic"
            ),
        )
        steps = 0
        while engine.has_work:
            engine.step()
            steps += 1
            assert steps < 50_000, "storm failed to make progress"
        responses = engine.run()
        assert all(r.finish_reason != "error" for r in responses)
        stats = engine.stats()
        assert stats["preemption"]["preemptions"] > 0
        assert stats["preemption"]["parked"] == 0
        assert stats["failures_by_cause"] == {}
        for ref, res in zip(reference, responses):
            assert ref.token_ids == res.token_ids

    @pytest.mark.parametrize("victim", ["recency", "priority", "fairness"])
    def test_storm_completes_under_every_victim_policy(
        self, model, shared_prefix_prompts, victim
    ):
        engine = make_engine(
            model, shared_prefix_prompts,
            kv_pools=make_pools(num_pages=14),
            batch_size=None,
            scheduler_policy=SchedulerPolicy(
                preemption=True, admission="optimistic", victim=victim
            ),
        )
        steps = 0
        while engine.has_work:
            engine.step()
            steps += 1
            assert steps < 50_000, "storm failed to make progress"
        responses = engine.run()
        assert all(r.finish_reason != "error" for r in responses)

    def test_fail_closed_baseline_errors_under_same_load(
        self, model, shared_prefix_prompts
    ):
        """The preemption=False baseline converts the same overload into
        ``decode_page_exhaustion`` / ``prefill_failed`` errors — the
        behaviour the goodput benchmark measures against."""
        engine = make_engine(
            model, shared_prefix_prompts,
            kv_pools=make_pools(num_pages=14),
            batch_size=None,
            scheduler_policy=SchedulerPolicy(
                preemption=False, admission="optimistic"
            ),
        )
        responses = engine.run()
        errors = [r for r in responses if r.finish_reason == "error"]
        assert errors, "overload should overwhelm the fail-closed engine"
        assert all(
            r.error_cause in ("decode_page_exhaustion", "prefill_failed")
            for r in errors
        )
        assert engine.stats()["preemption"]["preemptions"] == 0


class TestPagePressureBookkeeping:
    def test_blocked_head_builds_its_policies_once(
        self, model, shared_prefix_prompts
    ):
        """A head blocked by page pressure is re-probed every step; its
        policies are built once and held, so the factory runs once per
        layer for each admission and each resume, and nothing stays held
        or pinned at quiescence."""
        inner = build_policy_factory(
            "full", prompt_length=len(shared_prefix_prompts[0]),
            cache_ratio=0.6,
        )
        calls = []

        def factory(num_heads, head_dim):
            calls.append((num_heads, head_dim))
            return inner(num_heads, head_dim)

        pools = make_pools(num_pages=10)
        engine = make_engine(
            model, shared_prefix_prompts, kv_pools=pools, batch_size=None,
            policy_factory=factory, max_new_tokens=12,
            scheduler_policy=SchedulerPolicy(
                preemption=True, admission="optimistic"
            ),
        )
        responses = engine.run()
        assert all(r.finish_reason != "error" for r in responses)
        stats = engine.stats()
        preemption = stats["preemption"]
        # A storm: heads were blocked and re-probed, sequences bounced.
        assert stats["admission"]["page_deferrals"] > len(responses)
        assert preemption["preemptions"] > 0
        assert preemption["prefill_requeues"] == 0
        assert len(calls) == (len(responses) + preemption["resumes"]) * LAYERS
        assert engine.scheduler._held_request is None
        assert engine.scheduler._held_resume is None
        for layer, pool in enumerate(pools.pools):
            assert pool.pages_in_use == engine.prefix_cache.pages_held(layer)

    @pytest.mark.parametrize("policy_name", POLICY_NAMES)
    def test_probed_policies_pin_no_pages(self, model, policy_name):
        """What a held probe keeps — built, pool-bound, asked for its
        demand — holds no page of the arena."""
        pools = make_pools()
        factory = build_policy_factory(
            policy_name, prompt_length=20, cache_ratio=0.6
        )
        policies = model.make_policies(factory, kv_pools=pools)
        for layer, policy in enumerate(policies):
            assert policy.kv_pool is pools.layer(layer)
            policy.max_kv_pages(20, 7, pools.layer(layer).page_size)
            policy.exact_resume_by_reprefill(20, 23, 27)
            assert policy.kv_pages_held() == 0
        assert all(pool.pages_in_use == 0 for pool in pools.pools)

    @pytest.mark.parametrize("policy_name", ["full", "unicaim"])
    def test_twice_preempted_sequence_matches_serial(
        self, model, shared_prefix_prompts, policy_name
    ):
        """Parking snapshots ``PolicyStats`` into a list of its own: the
        sequence bounces twice (re-prefill resume for ``full``, replay for
        ``unicaim``) and still ends with the serial run's stats."""
        prompt = shared_prefix_prompts[3]
        factory = build_policy_factory(
            policy_name, prompt_length=len(prompt), cache_ratio=0.6
        )
        serial = greedy_generate_serial(
            model, prompt, 12, policy_factory=factory
        )
        engine = make_engine(
            model, [prompt], policy_factory=factory, max_new_tokens=12
        )
        rid = engine._submission_order[0]
        preempt_at = [3, 7]
        while engine.has_work:
            engine.step()
            slots = [s for s in engine.scheduler.active if s.request_id == rid]
            if not (preempt_at and slots):
                continue
            if len(slots[0].generated) < preempt_at[0]:
                continue
            preempt_at.pop(0)
            live = slots[0].policies
            assert engine.preempt(rid)
            snapshot = engine.scheduler._preempted[-1].stats_snapshot
            for policy, snap in zip(live, snapshot):
                assert snap.records is not policy.stats.records
                assert len(snap.records) == len(policy.stats.records)
                policy.stats.record(
                    StepRecord(position=-1, cache_size=0, num_attended=0)
                )
                assert len(snap.records) == len(policy.stats.records) - 1
        assert preempt_at == []
        (response,) = engine.run()
        preemption = engine.stats()["preemption"]
        assert preemption["resumes"] == 2
        assert preemption["reprefill_resumes"] == (
            2 if policy_name == "full" else 0
        )
        assert response.token_ids == serial.token_ids
        for a, b in zip(serial.policy_stats, response.policy_stats):
            assert_stats_identical(a, b)


class TestVictimSelection:
    def _scheduler(self, victim):
        return Scheduler(
            model=None,
            policy=SchedulerPolicy(victim=victim),
            default_policy_factory=None,
            max_batch_size=None,
            kv_pools=None,
            prefix_cache=None,
        )

    def _slot(self, request_id, admission_index, priority=0, pages=0):
        policy = types.SimpleNamespace(kv_pages_held=lambda: pages)
        return SequenceSlot(
            request=ServingRequest(
                prompt_ids=[1], max_new_tokens=1, request_id=request_id,
                priority=priority,
            ),
            request_id=request_id,
            prompt_length=1,
            policies=[policy],
            stop_set=frozenset(),
            logits=np.zeros(4),
            position=1,
            admission_index=admission_index,
        )

    def test_recency_picks_newest_admission(self):
        slots = [self._slot("a", 3), self._slot("b", 7), self._slot("c", 5)]
        assert self._scheduler("recency").select_victim(slots).request_id == "b"

    def test_priority_picks_lowest_priority_then_newest(self):
        slots = [
            self._slot("hi", 1, priority=5),
            self._slot("lo-old", 2, priority=0),
            self._slot("lo-new", 4, priority=0),
        ]
        sched = self._scheduler("priority")
        assert sched.select_victim(slots).request_id == "lo-new"

    def test_fairness_picks_biggest_page_holder(self):
        slots = [
            self._slot("small", 9, pages=2),
            self._slot("hog", 1, pages=40),
            self._slot("mid", 5, pages=10),
        ]
        sched = self._scheduler("fairness")
        assert sched.select_victim(slots).request_id == "hog"

    def test_invalid_knobs_rejected(self):
        with pytest.raises(ValueError, match="victim"):
            SchedulerPolicy(victim="coinflip")
        with pytest.raises(ValueError, match="admission"):
            SchedulerPolicy(admission="yolo")


class TestErrorCauses:
    def test_infeasible_request_cause(self, model):
        engine = make_engine(
            model, [list(range(60))],
            kv_pools=make_pools(num_pages=2, page_size=4),
            batch_size=4, max_new_tokens=4,
        )
        (response,) = engine.run()
        assert response.finish_reason == "error"
        assert response.error_cause == "admission_infeasible"
        assert engine.stats()["failures_by_cause"] == {
            "admission_infeasible": 1
        }

    def test_bad_policy_factory_cause(self, model):
        def broken_factory(num_heads, head_dim):
            raise RuntimeError("boom")

        engine = BatchedEngine(model, max_batch_size=4)
        engine.submit(
            ServingRequest(
                prompt_ids=[1, 2, 3], max_new_tokens=2,
                policy_factory=broken_factory,
            )
        )
        (response,) = engine.run()
        assert response.finish_reason == "error"
        assert response.error_cause == "admission_failed"
        assert "boom" in response.error

    def test_successful_responses_have_no_cause(self, model):
        engine = make_engine(model, [[1, 2, 3]], max_new_tokens=3)
        (response,) = engine.run()
        assert response.finish_reason != "error"
        assert response.error_cause is None
