"""Replicated serving: router policies, stats merging, cluster equivalence.

The load-bearing guarantees:

* A 1-worker cluster is a transparent wrapper — token- **and**
  ``PolicyStats``-identical to the bare engine on the named workload
  scenarios for all 7 KV-cache policies (the replication layer must not
  perturb the paper's policy machinery).
* N-worker runs produce identical per-request tokens regardless of which
  worker served a request or which routing policy placed it (greedy
  decode is per-request deterministic; routing only moves *where* it
  runs).
* ``merge_stats`` follows the engine's documented stable stats schema:
  counters sum, peaks max, configs pass through, ratios recompute from
  merged components, lists concatenate.
* A dead worker's unstarted requests are resubmitted to healthy workers;
  started ones fail with ``error_cause="worker_died"``; nothing is lost
  or served twice.
"""

import threading

import numpy as np
import pytest

from repro.core.kv_pool import KVPoolGroup
from repro.eval.harness import POLICY_NAMES, build_policy_factory
from repro.llm.config import ModelConfig
from repro.llm.model import TransformerLM
from repro.serving import (
    BatchedEngine,
    EngineCluster,
    LeastPressureRouter,
    PrefixAffinityRouter,
    RoundRobinRouter,
    SCENARIOS,
    SchedulerPolicy,
    ServingRequest,
    make_router,
    merge_stats,
)
from repro.serving.prefix_cache import PrefixCache

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


def scenario_factory(model, scenario, policy_factory=None):
    """Engine factory matching the perf-smoke benchmarks' arena sizing."""

    def factory():
        pools = KVPoolGroup(
            LAYERS,
            page_size=scenario.page_size,
            num_heads=HEADS,
            head_dim=HEAD_DIM,
            num_pages=scenario.num_pages,
        )
        return BatchedEngine(
            model,
            policy_factory=policy_factory,
            max_batch_size=scenario.max_batch_size,
            kv_pools=pools,
            scheduler_policy=SchedulerPolicy(
                preemption=True, admission="optimistic"
            ),
        )

    return factory


def submit_trace(target, trace):
    """Pre-submit a whole trace (deterministic admission order)."""
    for req in trace:
        target.submit(
            ServingRequest(
                prompt_ids=list(req.prompt_ids),
                max_new_tokens=req.max_new_tokens,
                request_id=req.request_id,
                priority=req.priority,
                tenant=req.tenant,
            )
        )
    return [req.request_id for req in trace]


def assert_policy_stats_identical(ref, res):
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


# ----------------------------------------------------------------------
# merge_stats (satellite: documented stable schema + aggregator)
# ----------------------------------------------------------------------
class TestMergeStats:
    def test_counters_sum_and_peaks_max(self):
        merged = merge_stats(
            [
                {"steps": 10, "peak_active": 4, "completed": 7},
                {"steps": 5, "peak_active": 9, "completed": 3},
            ]
        )
        assert merged == {"steps": 15, "peak_active": 9, "completed": 10}

    def test_config_keys_pass_through(self):
        merged = merge_stats(
            [
                {"max_tokens_per_step": 32, "codec": "int8", "k": 4},
                {"max_tokens_per_step": 32, "codec": "int8", "k": 4},
            ]
        )
        assert merged == {
            "max_tokens_per_step": 32,
            "codec": "int8",
            "k": 4,
        }

    def test_ratios_recompute_from_summed_components(self):
        # One worker 9/10 hits, another 0/10: the merged hit rate is
        # 9/20, not the 0.45-vs-mean-of-(0.9, 0.0) coincidence — check
        # with asymmetric lookups where mean and recompute diverge.
        merged = merge_stats(
            [
                {"lookups": 30, "hits": 9, "hit_rate": 0.3},
                {"lookups": 10, "hits": 8, "hit_rate": 0.8},
            ]
        )
        assert merged["hit_rate"] == pytest.approx(17 / 40)
        merged = merge_stats(
            [
                {
                    "drafted_tokens": 100,
                    "accepted_tokens": 90,
                    "acceptance_rate": 0.9,
                },
                {
                    "drafted_tokens": 0,
                    "accepted_tokens": 0,
                    "acceptance_rate": 0.0,
                },
            ]
        )
        assert merged["acceptance_rate"] == pytest.approx(0.9)
        merged = merge_stats(
            [
                {
                    "pages_in_use": 10,
                    "fp_pages_in_use": 10,
                    "fp_page_fraction": 1.0,
                },
                {
                    "pages_in_use": 30,
                    "fp_pages_in_use": 2,
                    "fp_page_fraction": 2 / 30,
                },
            ]
        )
        assert merged["fp_page_fraction"] == pytest.approx(12 / 40)

    def test_bytes_per_token_averages(self):
        merged = merge_stats(
            [{"bytes_per_token": 160.0}, {"bytes_per_token": 1024.0}]
        )
        assert merged["bytes_per_token"] == pytest.approx(592.0)

    def test_nested_dicts_recurse_and_lists_concatenate(self):
        merged = merge_stats(
            [
                {
                    "failures_by_cause": {"worker_died": 1},
                    "decode_groups": [("full", 2)],
                },
                {
                    "failures_by_cause": {
                        "worker_died": 2,
                        "prefill_failed": 1,
                    },
                    "decode_groups": [("h2o", 3)],
                },
            ]
        )
        assert merged["failures_by_cause"] == {
            "worker_died": 3,
            "prefill_failed": 1,
        }
        assert merged["decode_groups"] == [("full", 2), ("h2o", 3)]

    def test_none_sections_merge_over_present_workers(self):
        merged = merge_stats(
            [
                {"speculation": None, "kv_pool": {"pages_total": 20}},
                {"speculation": None, "kv_pool": {"pages_total": 20}},
            ]
        )
        assert merged["speculation"] is None
        assert merged["kv_pool"] == {"pages_total": 40}
        merged = merge_stats(
            [
                {"speculation": {"drafted_tokens": 5}},
                {"speculation": None},
            ]
        )
        assert merged["speculation"] == {"drafted_tokens": 5}

    def test_empty_or_all_none_returns_none(self):
        assert merge_stats([]) is None
        assert merge_stats([None, None]) is None

    def test_merges_real_engine_stats(self, model):
        scenario = SCENARIOS["bursty_multi_tenant"]
        factory = scenario_factory(model, scenario)
        cluster = EngineCluster(factory, num_workers=2, router="round_robin")
        submit_trace(cluster, scenario.trace())
        cluster.run()
        stats = cluster.stats()
        worker_stats = stats["workers"]
        merged = stats["cluster"]
        assert merged["completed"] == sum(
            w["completed"] for w in worker_stats
        )
        assert merged["peak_active"] == max(
            w["peak_active"] for w in worker_stats
        )
        assert merged["kv_pool"]["pages_total"] == sum(
            w["kv_pool"]["pages_total"] for w in worker_stats
        )
        lookups = sum(w["prefix_cache"]["lookups"] for w in worker_stats)
        hits = sum(w["prefix_cache"]["hits"] for w in worker_stats)
        assert merged["prefix_cache"]["hit_rate"] == pytest.approx(
            hits / lookups if lookups else 0.0
        )


# ----------------------------------------------------------------------
# Routers
# ----------------------------------------------------------------------
def _load(queued=0, util=0.0):
    return {
        "pending": queued,
        "prefilling": 0,
        "active": 0,
        "parked": 0,
        "queued": queued,
        "page_utilization": util,
    }


def _req(prompt, rid=None):
    return ServingRequest(
        prompt_ids=list(prompt), max_new_tokens=4, request_id=rid
    )


class TestRouters:
    def test_round_robin_cycles(self):
        router = RoundRobinRouter()
        candidates = [(0, _load()), (1, _load()), (2, _load())]
        picks = [router.route(_req([1, 2, 3]), candidates) for _ in range(6)]
        assert picks == [0, 1, 2, 0, 1, 2]

    def test_round_robin_skips_missing_workers(self):
        router = RoundRobinRouter()
        candidates = [(0, _load()), (2, _load())]
        picks = [router.route(_req([1, 2, 3]), candidates) for _ in range(4)]
        assert picks == [0, 2, 0, 2]

    def test_least_pressure_picks_lowest_score(self):
        router = LeastPressureRouter()
        candidates = [
            (0, _load(queued=5)),
            (1, _load(queued=2)),
            (2, _load(queued=7)),
        ]
        assert router.route(_req([1, 2, 3]), candidates) == 1

    def test_least_pressure_weighs_page_utilization(self):
        router = LeastPressureRouter(page_weight=4.0)
        # Same queue depth; the fuller arena loses.
        candidates = [(0, _load(queued=2, util=0.9)), (1, _load(queued=2))]
        assert router.route(_req([1, 2, 3]), candidates) == 1
        # Pages can outweigh one queued request at weight 4.
        candidates = [(0, _load(queued=2, util=1.0)), (1, _load(queued=3))]
        assert router.route(_req([1, 2, 3]), candidates) == 1

    def test_least_pressure_ties_break_low_index(self):
        router = LeastPressureRouter()
        candidates = [(0, _load(queued=3)), (1, _load(queued=3))]
        assert router.route(_req([1, 2, 3]), candidates) == 0

    def test_prefix_affinity_sticks_to_shared_prefix(self):
        router = PrefixAffinityRouter(min_prefix_tokens=4)
        candidates = [(0, _load(queued=0)), (1, _load(queued=5))]
        prefix = [7, 8, 9, 10, 11, 12]
        first = router.route(_req(prefix + [1, 2, 3]), candidates)
        assert first == 0  # novel prompt: least-pressure fallback
        # Same prefix with the fallback now *unfavourable*: stickiness
        # must win over load.
        candidates = [(0, _load(queued=50)), (1, _load(queued=0))]
        assert router.route(_req(prefix + [4, 5, 6]), candidates) == 0
        stats = router.stats()
        assert stats["affinity_hits"] == 1
        assert stats["affinity_misses"] == 1

    def test_prefix_affinity_requires_min_prefix(self):
        router = PrefixAffinityRouter(min_prefix_tokens=6)
        candidates = [(0, _load(queued=0)), (1, _load(queued=5))]
        router.route(_req([1, 2, 3, 4, 5, 6, 7, 8]), candidates)
        # Only 3 shared tokens < 6: falls back (to worker 1 this time).
        candidates = [(0, _load(queued=5)), (1, _load(queued=0))]
        assert router.route(_req([1, 2, 3, 9, 9, 9, 9, 9]), candidates) == 1

    def test_prefix_affinity_full_match_capped_at_len_minus_one(self):
        # An identical prompt reuses at most n-1 tokens (the cache never
        # stores the final position's logits) — still a sticky hit.
        router = PrefixAffinityRouter(min_prefix_tokens=4)
        prompt = [3, 4, 5, 6, 7, 8]
        candidates = [(0, _load(queued=0)), (1, _load(queued=5))]
        router.route(_req(prompt), candidates)
        candidates = [(0, _load(queued=50)), (1, _load(queued=0))]
        assert router.route(_req(prompt), candidates) == 0

    def test_prefix_affinity_eviction_invalidates(self):
        router = PrefixAffinityRouter(min_prefix_tokens=4)
        prompt = [7, 8, 9, 10, 11, 12, 1, 2]
        candidates = [(0, _load(queued=0)), (1, _load(queued=5))]
        assert router.route(_req(prompt), candidates) == 0
        router.note_evicted(0, tuple(prompt))
        assert router.stats()["invalidations"] == 1
        # Stickiness gone: the fallback routes by load again.
        candidates = [(0, _load(queued=50)), (1, _load(queued=0))]
        assert router.route(_req(prompt), candidates) == 1

    def test_prefix_affinity_eviction_other_worker_keeps_sticky(self):
        router = PrefixAffinityRouter(min_prefix_tokens=4)
        prompt = [7, 8, 9, 10, 11, 12, 1, 2]
        candidates = [(0, _load(queued=0)), (1, _load(queued=5))]
        assert router.route(_req(prompt), candidates) == 0
        router.note_evicted(1, tuple(prompt))  # someone else's cache
        candidates = [(0, _load(queued=50)), (1, _load(queued=0))]
        assert router.route(_req(prompt), candidates) == 0

    def test_prefix_affinity_dead_worker_forgotten(self):
        router = PrefixAffinityRouter(min_prefix_tokens=4)
        prompt = [7, 8, 9, 10, 11, 12, 1, 2]
        candidates = [(0, _load(queued=0)), (1, _load(queued=5))]
        assert router.route(_req(prompt), candidates) == 0
        router.note_worker_dead(0)
        candidates = [(1, _load(queued=0))]
        assert router.route(_req(prompt), candidates) == 1

    def test_prefix_affinity_bounded(self):
        router = PrefixAffinityRouter(min_prefix_tokens=2, max_entries=3)
        candidates = [(0, _load())]
        for i in range(10):
            router.route(_req([i, i + 1, i + 2, i + 3]), candidates)
        assert router.stats()["sticky_entries"] <= 3

    def test_make_router(self):
        assert isinstance(make_router("round_robin"), RoundRobinRouter)
        assert isinstance(make_router("least_pressure"), LeastPressureRouter)
        assert isinstance(
            make_router("prefix_affinity"), PrefixAffinityRouter
        )
        with pytest.raises(KeyError, match="unknown router"):
            make_router("random")


# ----------------------------------------------------------------------
# PrefixCache.on_evict (the router-invalidation seam)
# ----------------------------------------------------------------------
class TestOnEvictHook:
    def _cache(self, **kwargs):
        pools = KVPoolGroup(LAYERS, 4, HEADS, HEAD_DIM, num_pages=64)
        cache = PrefixCache(pools, min_prefix_tokens=2, **kwargs)
        evicted = []
        cache.on_evict = evicted.append
        return cache, evicted

    def _entry(self, n):
        rng = np.random.default_rng(n)
        k = rng.standard_normal((n, HEADS, HEAD_DIM))
        v = rng.standard_normal((n, HEADS, HEAD_DIM))
        s = rng.standard_normal((HEADS, n, n))
        return [(k, v, s) for _ in range(LAYERS)]

    def test_fires_on_lru_and_pressure_and_clear(self):
        cache, evicted = self._cache(max_entries=2)
        keys = [tuple(range(i, i + 4)) for i in (0, 10, 20)]
        for key in keys:
            cache.insert(key, self._entry(4))
        assert evicted == [keys[0]]  # capacity eviction
        assert cache.drop_lru_entry()  # page-pressure shedding
        assert evicted == [keys[0], keys[1]]
        cache.clear()
        assert evicted == [keys[0], keys[1], keys[2]]

    def test_does_not_fire_on_supersede(self):
        cache, evicted = self._cache(max_entries=8)
        cache.insert((1, 2, 3, 4), self._entry(4))
        # The longer prompt supersedes the shorter one: it answers every
        # lookup the dropped entry could, so sticky routing stays valid
        # and no invalidation must fire.
        cache.insert((1, 2, 3, 4, 5, 6), self._entry(6))
        assert cache.stats.superseded_entries == 1
        assert evicted == []


# ----------------------------------------------------------------------
# 1-worker cluster ≡ bare engine (tokens + PolicyStats, all 7 policies)
# ----------------------------------------------------------------------
class TestSingleWorkerEquivalence:
    @pytest.mark.parametrize("policy_name", POLICY_NAMES)
    @pytest.mark.parametrize(
        "scenario_name", ["bursty_multi_tenant", "shared_prefix_overload"]
    )
    def test_identical_to_bare_engine(
        self, model, scenario_name, policy_name
    ):
        scenario = SCENARIOS[scenario_name]
        trace = scenario.trace()
        policy_factory = build_policy_factory(
            policy_name, prompt_length=32, cache_ratio=0.6
        )
        factory = scenario_factory(model, scenario, policy_factory)

        engine = factory()
        ids = submit_trace(engine, trace)
        reference = {r.request_id: r for r in engine.run()}

        cluster = EngineCluster(factory, num_workers=1)
        assert submit_trace(cluster, trace) == ids
        results = {r.request_id: r for r in cluster.run()}

        assert set(results) == set(reference) == set(ids)
        for rid in ids:
            ref, res = reference[rid], results[rid]
            assert res.token_ids == ref.token_ids
            assert res.finish_reason == ref.finish_reason
            assert len(res.policy_stats) == len(ref.policy_stats)
            for a, b in zip(ref.policy_stats, res.policy_stats):
                assert_policy_stats_identical(a, b)


# ----------------------------------------------------------------------
# N workers: identical tokens regardless of placement
# ----------------------------------------------------------------------
class TestMultiWorkerTokenIdentity:
    @pytest.mark.parametrize("num_workers", [2, 4])
    @pytest.mark.parametrize(
        "router", ["round_robin", "least_pressure", "prefix_affinity"]
    )
    def test_bursty_tokens_identical(self, model, num_workers, router):
        scenario = SCENARIOS["bursty_multi_tenant"]
        trace = scenario.trace()
        factory = scenario_factory(model, scenario)

        engine = factory()
        submit_trace(engine, trace)
        reference = {r.request_id: r for r in engine.run()}

        cluster = EngineCluster(factory, num_workers=num_workers, router=router)
        ids = submit_trace(cluster, trace)
        results = {r.request_id: r for r in cluster.run()}
        assert set(results) == set(ids)
        for rid in ids:
            assert results[rid].finish_reason != "error"
            assert results[rid].token_ids == reference[rid].token_ids
        # Work actually spread across workers.
        per_worker = [
            w["completed"] for w in cluster.stats()["workers"]
        ]
        assert sum(1 for c in per_worker if c > 0) > 1

    def test_shared_prefix_affinity_tokens_identical(self, model):
        scenario = SCENARIOS["shared_prefix_overload"]
        trace = scenario.trace()
        factory = scenario_factory(model, scenario)
        engine = factory()
        submit_trace(engine, trace)
        reference = {r.request_id: r for r in engine.run()}
        cluster = EngineCluster(
            factory, num_workers=4, router="prefix_affinity"
        )
        ids = submit_trace(cluster, trace)
        results = {r.request_id: r for r in cluster.run()}
        for rid in ids:
            assert results[rid].token_ids == reference[rid].token_ids


# ----------------------------------------------------------------------
# Cluster surface
# ----------------------------------------------------------------------
class TestClusterSurface:
    def _simple_factory(self, model):
        def factory():
            return BatchedEngine(model, max_batch_size=4)

        return factory

    def test_auto_ids_are_cluster_unique(self, model):
        cluster = EngineCluster(self._simple_factory(model), num_workers=2)
        rids = [
            cluster.submit(_req([1, 2, 3])) for _ in range(6)
        ]
        assert len(set(rids)) == 6
        assert all(rid.startswith("req-c") for rid in rids)
        cluster.run()

    def test_duplicate_explicit_id_rejected(self, model):
        cluster = EngineCluster(self._simple_factory(model), num_workers=2)
        cluster.submit(_req([1, 2, 3], rid="dup"))
        with pytest.raises(ValueError, match="duplicate request id"):
            cluster.submit(_req([4, 5, 6], rid="dup"))
        cluster.run()

    def test_invalid_request_leaves_no_trace(self, model):
        cluster = EngineCluster(self._simple_factory(model), num_workers=2)
        with pytest.raises(ValueError, match="out of range"):
            cluster.submit(_req([VOCAB + 5], rid="bad"))
        assert cluster.response("bad") is None
        # The id was not burned: resubmitting it with a valid prompt works.
        cluster.submit(_req([1, 2, 3], rid="bad"))
        responses = cluster.run()
        assert [r.request_id for r in responses] == ["bad"]

    def test_run_returns_submission_order(self, model):
        cluster = EngineCluster(self._simple_factory(model), num_workers=3)
        ids = [cluster.submit(_req([1 + i, 2, 3])) for i in range(9)]
        responses = cluster.run()
        assert [r.request_id for r in responses] == ids

    def test_on_token_passthrough(self, model):
        cluster = EngineCluster(self._simple_factory(model), num_workers=2)
        seen = {}

        def on_token(rid, token, num_generated):
            seen.setdefault(rid, []).append((token, num_generated))

        cluster.on_token = on_token
        ids = [cluster.submit(_req([1 + i, 2, 3])) for i in range(4)]
        responses = {r.request_id: r for r in cluster.run()}
        for rid in ids:
            tokens = [t for t, _ in seen[rid]]
            assert tokens == responses[rid].token_ids
            counts = [n for _, n in seen[rid]]
            assert counts == list(range(1, len(tokens) + 1))

    def test_shutdown_refuses_new_submissions(self, model):
        cluster = EngineCluster(self._simple_factory(model), num_workers=2)
        cluster.submit(_req([1, 2, 3], rid="last"))
        responses = cluster.shutdown()
        assert [r.request_id for r in responses] == ["last"]
        with pytest.raises(RuntimeError, match="shut down"):
            cluster.submit(_req([4, 5, 6]))

    def test_step_refused_while_threads_running(self, model):
        cluster = EngineCluster(self._simple_factory(model), num_workers=2)
        cluster.start()
        try:
            with pytest.raises(RuntimeError, match="lockstep"):
                cluster.step()
        finally:
            cluster.drain()

    def test_threaded_drain_serves_everything(self, model):
        cluster = EngineCluster(self._simple_factory(model), num_workers=2)
        cluster.start()
        ids = [cluster.submit(_req([1 + i, 2, 3])) for i in range(8)]
        responses = cluster.drain()
        assert [r.request_id for r in responses] == ids
        assert all(r.finish_reason == "length" for r in responses)
        assert not cluster.has_work

    def test_num_workers_validated(self, model):
        with pytest.raises(ValueError, match="num_workers"):
            EngineCluster(self._simple_factory(model), num_workers=0)

    def test_cluster_load_aggregates(self, model):
        cluster = EngineCluster(self._simple_factory(model), num_workers=2)
        for i in range(6):
            cluster.submit(_req([1 + i, 2, 3]))
        load = cluster.load()
        assert load["queued"] == 6
        cluster.run()
        assert cluster.load()["queued"] == 0


# ----------------------------------------------------------------------
# Worker death: resubmission + worker_died accounting
# ----------------------------------------------------------------------
class FailingEngine(BatchedEngine):
    """Engine whose step loop dies after ``fail_after`` steps."""

    fail_after = 6

    def step(self):
        if self.step_count >= self.fail_after:
            raise RuntimeError("injected worker crash")
        return super().step()


class TestWorkerDeath:
    def _factory(self, model, scenario, failing_first=True):
        built = []

        def factory():
            pools = KVPoolGroup(
                LAYERS,
                page_size=scenario.page_size,
                num_heads=HEADS,
                head_dim=HEAD_DIM,
                num_pages=scenario.num_pages,
            )
            cls = (
                FailingEngine
                if failing_first and not built
                else BatchedEngine
            )
            engine = cls(
                model,
                max_batch_size=None,
                kv_pools=pools,
                scheduler_policy=SchedulerPolicy(
                    preemption=True, admission="optimistic"
                ),
            )
            built.append(engine)
            return engine

        return factory

    def test_lockstep_death_reroutes_unstarted_requests(self, model):
        scenario = SCENARIOS["bursty_multi_tenant"]
        trace = scenario.trace()
        cluster = EngineCluster(
            self._factory(model, scenario),
            num_workers=2,
            router="round_robin",
        )
        ids = submit_trace(cluster, trace)
        responses = {r.request_id: r for r in cluster.run()}
        # Every request got an answer: completed elsewhere or worker_died.
        assert set(responses) == set(ids)
        died = [
            r for r in responses.values() if r.error_cause == "worker_died"
        ]
        completed = [
            r for r in responses.values() if r.finish_reason != "error"
        ]
        assert len(died) + len(completed) == len(ids)
        stats = cluster.stats()
        assert stats["dead_workers"] == [0]
        assert stats["alive_workers"] == 1
        # Round-robin gave worker 0 half the trace; only its started
        # requests died, the rest restarted on worker 1.
        assert stats["resubmissions"] > 0
        assert len(died) < len(ids) // 2
        assert cluster.workers[0].error is not None
        # The healthy worker's tokens still match the bare engine's.
        factory = scenario_factory(model, scenario)
        engine = factory()
        submit_trace(engine, trace)
        reference = {r.request_id: r for r in engine.run()}
        for response in completed:
            assert response.token_ids == reference[
                response.request_id
            ].token_ids

    def test_all_workers_dead_fails_closed(self, model):
        scenario = SCENARIOS["bursty_multi_tenant"]
        cluster = EngineCluster(
            self._factory(model, scenario, failing_first=False),
            num_workers=1,
        )
        # Make the lone worker a failing one.
        cluster.workers[0].engine.__class__ = FailingEngine
        ids = submit_trace(cluster, scenario.trace())
        responses = {r.request_id: r for r in cluster.run()}
        assert set(responses) == set(ids)
        assert all(
            r.error_cause == "worker_died" for r in responses.values()
        )
        with pytest.raises(RuntimeError, match="no healthy workers"):
            cluster.submit(_req([1, 2, 3]))

    def test_threaded_death_drains_without_hanging(self, model):
        scenario = SCENARIOS["bursty_multi_tenant"]
        trace = scenario.trace()
        cluster = EngineCluster(
            self._factory(model, scenario),
            num_workers=2,
            router="round_robin",
        )
        cluster.start()
        ids = submit_trace(cluster, trace)
        responses = {r.request_id: r for r in cluster.drain()}
        assert set(responses) == set(ids)
        for rid in ids:
            response = responses[rid]
            assert (
                response.finish_reason != "error"
                or response.error_cause == "worker_died"
            )
        assert cluster.stats()["dead_workers"] == [0]
