"""Group-vectorized decode: one batched call per policy group, same results.

Acceptance properties of group decode:

* **Serial equivalence** — generated tokens and ``PolicyStats`` of an
  engine whose policy-group spans each execute as one vectorized
  ``decode_step_group`` call are identical to the serial
  :func:`greedy_generate_serial` oracle (one ``decode_step`` per sequence
  per layer) for every policy flavour and batch size, on the engine's
  default arena and on caller-supplied pools, including mixed-policy
  batches that force multi-group steps.
* **Safe fallback** — a policy subclass without a vectorized override (or
  one that re-overrides ``decode_step`` below the override) is routed
  through per-sequence ``decode_step`` calls, so external subclasses keep
  working.
* **Select, then attend** — the selection policies (UniCAIM exact and
  CAM, Quest) read V only for the rows they select; with ragged
  per-member picks (caches straddling ``top_k``, quantised-score ties,
  per-member Quest pages) on an fp64 and an int8 arena they stay token-
  and ``PolicyStats``-identical to serial decode over the same storage.
* **Durable telemetry** — ``stats()["scheduler"]`` reports *cumulative*
  ``group_calls`` / ``fallback_calls`` / ``vectorized_sequences`` counters
  that survive across steps (unlike ``decode_groups``, which only shows
  the last step's spans).
"""

import numpy as np
import pytest

from repro.core.group_decode import (
    group_spans_for,
    policy_group_key,
    supports_group_decode,
)
from repro.core.baselines import QuestPolicy
from repro.core.config import PruningConfig
from repro.core.dynamic_pruning import CAMApproximateSelector, CAMSelectorConfig
from repro.core.hybrid import UniCAIMPolicy
from repro.core.kv_pool import (
    KVPoolGroup,
    PagedKVPool,
    PagedKVStore,
    gather_padded,
    poison_padding_enabled,
    set_poison_padding,
)
from repro.core.policy import FullCachePolicy
from repro.eval.harness import POLICY_NAMES, build_policy_factory
from repro.llm.config import ModelConfig
from repro.llm.generation import greedy_generate_serial
from repro.llm.model import TransformerLM
from repro.serving import BatchedEngine, ServingRequest

VOCAB = 89
HEADS, HEAD_DIM, LAYERS = 2, 8, 2
MAX_NEW = 7


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
def prompts():
    """Prompts sharing a 14-token prefix, with varied unique suffixes."""
    rng = np.random.default_rng(23)
    shared = list(map(int, rng.integers(0, VOCAB, size=14)))
    return [
        shared + list(map(int, rng.integers(0, VOCAB, size=n)))
        for n in (3, 6, 2, 8, 5, 3, 7, 4, 6, 2)
    ]


def make_pools(num_pages=600, page_size=8, codec=None):
    return KVPoolGroup(
        LAYERS, page_size=page_size, num_heads=HEADS, head_dim=HEAD_DIM,
        num_pages=num_pages, codec=codec,
    )


def request_factory(i, per_request_factories):
    if per_request_factories is None:
        return None
    return per_request_factories[i % len(per_request_factories)]


def run_engine(model, prompts, *, batch_size=4, policy_factory=None,
               per_request_factories=None, codec=None, default_arena=False):
    engine = BatchedEngine(
        model,
        policy_factory=policy_factory,
        max_batch_size=batch_size,
        kv_pools=None if default_arena else make_pools(codec=codec),
    )
    for i, prompt in enumerate(prompts):
        factory = request_factory(i, per_request_factories)
        engine.submit(
            ServingRequest(
                prompt_ids=prompt,
                max_new_tokens=MAX_NEW,
                policy_factory=factory,
            )
        )
    return engine, engine.run()


def serial_reference(model, prompts, *, policy_factory=None,
                     per_request_factories=None):
    """The serial oracle: one ``decode_step`` per sequence per layer."""
    return [
        greedy_generate_serial(
            model, prompt, MAX_NEW,
            policy_factory=(
                request_factory(i, per_request_factories) or policy_factory
            ),
        )
        for i, prompt in enumerate(prompts)
    ]


def assert_stats_identical(want, got):
    """Every ``PolicyStats`` field except ``prefill_reused_tokens`` (the
    serial oracle has no prefix cache)."""
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


def assert_responses_identical(reference, grouped):
    for ref, got in zip(reference, grouped, strict=True):
        assert got.finish_reason != "error"
        assert ref.token_ids == got.token_ids
        assert len(ref.policy_stats) == len(got.policy_stats) == LAYERS
        for a, b in zip(ref.policy_stats, got.policy_stats):
            assert_stats_identical(a, b)


#: The engine's own default arena (``kv_pools=None``: 16-token pages sized
#: to the batch) and a caller-supplied pool of 8-token pages.
ARENA = pytest.mark.parametrize(
    "default_arena", [True, False], ids=["default-arena", "explicit-pools"]
)


class TestGroupedDecodeEquivalence:
    """The acceptance matrix: grouped decode is token- and stats-identical
    to the serial oracle for all 7 policies x batch sizes x the default
    arena and caller-supplied pools."""

    @pytest.mark.parametrize("policy_name", POLICY_NAMES)
    @pytest.mark.parametrize("batch_size", [1, 4, 16])
    @ARENA
    def test_tokens_and_stats_identical(
        self, model, prompts, policy_name, batch_size, default_arena
    ):
        factory = build_policy_factory(
            policy_name, prompt_length=len(prompts[0]), cache_ratio=0.6
        )
        reference = serial_reference(model, prompts, policy_factory=factory)
        engine, grouped = run_engine(
            model, prompts, batch_size=batch_size, policy_factory=factory,
            default_arena=default_arena,
        )
        assert_responses_identical(reference, grouped)
        scheduler = engine.stats()["scheduler"]
        if batch_size > 1:
            # Multi-sequence steps must actually vectorize (one call per
            # span per layer), not silently fall back.
            assert scheduler["group_calls"] > 0
            assert scheduler["vectorized_sequences"] > 0
        else:
            # A batch of one rides the bit-exact serial path.
            assert scheduler["group_calls"] == 0


#: Selection-policy flavours whose members pick ragged row sets: prompts
#: of 16-22 tokens plus 7 generated ones put UniCAIM caches on both sides
#: of ``top_k=20``, the noiseless CAM selector ranks quantised scores that
#: tie, and Quest members hold between 4 and 8 pages against a 5-page
#: budget (the shorter ones attend densely).
SELECTION_CONFIG = PruningConfig(
    heavy_budget=26, reserved_budget=4, top_k=20, sink_tokens=2,
    recent_protect=2,
)
SELECTION_FACTORIES = {
    "unicaim_exact": lambda heads, dim: UniCAIMPolicy(
        heads, dim, config=SELECTION_CONFIG
    ),
    "unicaim_cam_noiseless": lambda heads, dim: UniCAIMPolicy(
        heads, dim, config=SELECTION_CONFIG,
        selector=CAMApproximateSelector(
            CAMSelectorConfig(sense_noise_sigma=0.0, seed=0)
        ),
    ),
    "quest": lambda heads, dim: QuestPolicy(
        heads, dim, page_size=4, num_pages=5
    ),
}


class TestSelectThenAttend:
    """Selection policies attend only the rows they select."""

    @pytest.mark.parametrize("flavour", sorted(SELECTION_FACTORIES))
    @pytest.mark.parametrize(
        "codec", ["fp64", "int8"], ids=["fp64", "int8-arena"]
    )
    def test_ragged_selection_identical_to_per_sequence(
        self, model, prompts, flavour, codec
    ):
        factory = SELECTION_FACTORIES[flavour]
        kwargs = dict(codec=codec, policy_factory=factory)
        if codec == "fp64":
            reference = serial_reference(model, prompts, policy_factory=factory)
        else:
            # The serial oracle stores fp64 rows.  On an int8 arena the
            # reference is the engine at batch one, whose decode is the
            # per-sequence ``decode_step`` over the same quantised rows.
            _, reference = run_engine(model, prompts, batch_size=1, **kwargs)
        engine, grouped = run_engine(model, prompts, batch_size=8, **kwargs)
        assert_responses_identical(reference, grouped)
        assert engine.stats()["scheduler"]["group_calls"] > 0
        # K padding is still read (ragged cache sizes): poisoned, it must
        # not leak into a selection or an output.
        old = set_poison_padding(True)
        try:
            _, poisoned = run_engine(model, prompts, batch_size=8, **kwargs)
        finally:
            set_poison_padding(old)
        assert_responses_identical(reference, poisoned)
        attended = {
            record.num_attended
            for response in grouped
            for stats in response.policy_stats
            for record in stats.records
        }
        # The picks really are ragged within the run.
        assert len(attended) > 1

    @staticmethod
    def _spy_reads(monkeypatch, pool):
        """Record the index shape of every K and V read of ``pool``."""
        reads = {"gather_keys": [], "gather_values": []}
        for name, seen in reads.items():
            original = getattr(pool, name)

            def spy(pages, offsets, original=original, seen=seen):
                seen.append(np.shape(pages))
                return original(pages, offsets)

            monkeypatch.setattr(pool, name, spy)
        return reads

    def test_unicaim_reads_values_of_selected_rows_only(self, monkeypatch):
        """A warm step scores the slot-resident key mirror: no K read at
        all, and V only for the ``[S, k_max]`` selected rows."""
        rng = np.random.default_rng(8)
        pool = PagedKVPool(8, HEADS, HEAD_DIM, num_pages=64)
        group = []
        for n in (6, 15, 30):  # cache sizes below and above top_k
            policy = UniCAIMPolicy(HEADS, HEAD_DIM, config=SELECTION_CONFIG)
            policy.attach_pool(pool)
            policy.prefill(
                rng.normal(size=(n, HEADS, HEAD_DIM)),
                rng.normal(size=(n, HEADS, HEAD_DIM)),
            )
            group.append(policy)
        queries, keys, values = rng.normal(size=(3, 3, HEADS, HEAD_DIM))
        group[0].decode_step_group(queries, keys, values, [40, 41, 42], group)
        reads = self._spy_reads(monkeypatch, pool)
        queries, keys, values = rng.normal(size=(3, 3, HEADS, HEAD_DIM))
        sizes = [len(policy.cache) + 1 for policy in group]
        group[0].decode_step_group(queries, keys, values, [43, 44, 45], group)
        k_max = max(SELECTION_CONFIG.effective_top_k(n) for n in sizes)
        assert reads["gather_keys"] == []
        assert reads["gather_values"] == [(3, k_max)]
        assert k_max < max(sizes)

    def test_unicaim_serial_step_reads_values_of_top_k_only(self, monkeypatch):
        rng = np.random.default_rng(9)
        pool = PagedKVPool(8, HEADS, HEAD_DIM, num_pages=16)
        policy = UniCAIMPolicy(HEADS, HEAD_DIM, config=SELECTION_CONFIG)
        policy.attach_pool(pool)
        policy.prefill(
            rng.normal(size=(30, HEADS, HEAD_DIM)),
            rng.normal(size=(30, HEADS, HEAD_DIM)),
        )
        reads = self._spy_reads(monkeypatch, pool)
        query, key, value = rng.normal(size=(3, HEADS, HEAD_DIM))
        policy.decode_step(query, key, value, 40)
        top_k = SELECTION_CONFIG.effective_top_k(len(policy.cache))
        assert reads["gather_keys"] == []
        assert reads["gather_values"] == [(top_k,)]
        assert top_k < len(policy.cache)


class TestMixedPolicyBatches:
    """Forced multi-group steps: one batch serving all seven policies."""

    @pytest.fixture(scope="class")
    def factories(self, prompts):
        return [
            build_policy_factory(
                name, prompt_length=len(prompts[0]), cache_ratio=0.6
            )
            for name in POLICY_NAMES
        ]

    @ARENA
    def test_tokens_and_stats_identical(
        self, model, prompts, factories, default_arena
    ):
        reference = serial_reference(
            model, prompts, per_request_factories=factories
        )
        engine, grouped = run_engine(
            model, prompts, batch_size=16, per_request_factories=factories,
            default_arena=default_arena,
        )
        assert_responses_identical(reference, grouped)
        scheduler = engine.stats()["scheduler"]
        assert scheduler["group_calls"] > 0
        # The last full decode step held one span per policy flavour.
        assert len(scheduler["decode_groups"]) > 1

    def test_counters_are_cumulative_across_steps(self, model, prompts):
        """`decode_groups` is last-step-only; the dispatch counters must
        keep growing step over step."""
        engine = BatchedEngine(model, max_batch_size=4)
        for prompt in prompts[:4]:
            engine.submit(
                ServingRequest(prompt_ids=prompt, max_new_tokens=MAX_NEW)
            )
        seen = []
        while engine.has_work:
            engine.step()
            seen.append(engine.stats()["scheduler"]["group_calls"])
        assert seen[-1] > 0
        assert seen == sorted(seen)  # never resets
        # Several decode steps contributed, not just the last one.
        assert seen[-1] >= LAYERS * (MAX_NEW - 1)


class OverriddenStepPolicy(FullCachePolicy):
    """Subclass that changes per-step semantics without a group override."""

    step_calls = 0

    def decode_step(self, query, key, value, position):
        type(self).step_calls += 1
        return super().decode_step(query, key, value, position)


class TestFallback:
    def test_subclass_without_override_falls_back(self, model, prompts):
        """A policy subclass that re-overrides decode_step below the class
        providing decode_step_group must run the per-sequence loop."""
        assert not supports_group_decode(OverriddenStepPolicy(HEADS, HEAD_DIM))
        OverriddenStepPolicy.step_calls = 0
        factory = lambda heads, dim: OverriddenStepPolicy(heads, dim)  # noqa: E731
        engine, responses = run_engine(
            model, prompts, batch_size=8, policy_factory=factory,
        )
        # Same generation as the serial full-cache oracle...
        assert_responses_identical(serial_reference(model, prompts), responses)
        # ...but served entirely through the subclass's own decode_step
        # (batch-1 tails ride the serial path, which telemetry skips).
        scheduler = engine.stats()["scheduler"]
        assert scheduler["group_calls"] == 0
        assert scheduler["fallback_calls"] > 0
        assert OverriddenStepPolicy.step_calls >= scheduler["fallback_calls"]

    def test_supported_policies_report_vectorizable(self):
        assert supports_group_decode(FullCachePolicy(HEADS, HEAD_DIM))

    def test_mixed_selector_scales_in_one_group(self):
        """Regression: a span mixing exact selectors with and without a
        private scale shares one group key and must vectorize without
        crashing, matching per-member ``decode_step`` calls."""
        from repro.core.config import PruningConfig
        from repro.core.dynamic_pruning import ExactTopKSelector
        from repro.core.hybrid import UniCAIMPolicy

        config = PruningConfig(
            heavy_budget=12, reserved_budget=4, top_k=6,
            sink_tokens=2, recent_protect=2,
        )

        def build():
            return [
                UniCAIMPolicy(
                    HEADS, HEAD_DIM, config=config,
                    selector=ExactTopKSelector(scale=scale),
                )
                for scale in (None, 2.0, None)
            ]

        rng = np.random.default_rng(4)
        n = 20
        keys = rng.normal(size=(n, HEADS, HEAD_DIM))
        values = rng.normal(size=(n, HEADS, HEAD_DIM))
        attn = rng.normal(size=(HEADS, n, n))
        reference, grouped = build(), build()
        for policy in reference + grouped:
            policy.prefill(keys, values, attn)
        for step in range(6):
            q = rng.normal(size=(3, HEADS, HEAD_DIM))
            k = rng.normal(size=(3, HEADS, HEAD_DIM))
            v = rng.normal(size=(3, HEADS, HEAD_DIM))
            pos = [n + step] * 3
            want = np.stack(
                [
                    policy.decode_step(q[s], k[s], v[s], pos[s])
                    for s, policy in enumerate(reference)
                ]
            )
            got = grouped[0].decode_step_group(q, k, v, pos, grouped)
            assert got is not None
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)
        for ref, got in zip(reference, grouped):
            assert_stats_identical(ref.stats, got.stats)

    def test_subclass_overriding_both_stays_vectorizable(self):
        class Both(FullCachePolicy):
            def decode_step(self, query, key, value, position):
                return super().decode_step(query, key, value, position)

            def decode_step_group(self, queries, keys, values, positions, group):
                return super().decode_step_group(
                    queries, keys, values, positions, group
                )

        assert supports_group_decode(Both(HEADS, HEAD_DIM))


class TestGroupSpanHelpers:
    def test_group_spans_for_contiguous_runs(self):
        a = FullCachePolicy(HEADS, HEAD_DIM)
        b = FullCachePolicy(HEADS, HEAD_DIM)
        from repro.core.baselines import SnapKVPolicy

        c = SnapKVPolicy(HEADS, HEAD_DIM)
        spans = group_spans_for([[a], [b], [c]])
        assert spans == [
            ("FullCachePolicy", 0, 2),
            ("SnapKVPolicy", 2, 1),
        ]
        assert policy_group_key([a]) == "FullCachePolicy"

    def test_gather_padded_matches_per_store_gathers(self):
        """The batched multi-sequence gather returns exactly what each
        store's own gather would, padded to the longest member."""
        rng = np.random.default_rng(3)
        from repro.core.kv_pool import PagedKVPool

        pool = PagedKVPool(4, HEADS, HEAD_DIM, num_pages=32)
        stores = [PagedKVStore(HEADS, HEAD_DIM, pool=pool) for _ in range(3)]
        lengths = (5, 9, 2)
        for store, n in zip(stores, lengths):
            for pos in range(n):
                store.put(
                    pos,
                    rng.normal(size=(HEADS, HEAD_DIM)),
                    rng.normal(size=(HEADS, HEAD_DIM)),
                )
        orders = [list(reversed(range(n))) for n in lengths]
        keys, values, out_lengths = gather_padded(
            [store.block_table for store in stores],
            [store.slots_of(order) for store, order in zip(stores, orders)],
        )
        assert keys.shape == (3, 9, HEADS, HEAD_DIM)
        np.testing.assert_array_equal(out_lengths, lengths)
        for row, (store, order, n) in enumerate(zip(stores, orders, lengths)):
            want_k, want_v = store.gather(order)
            np.testing.assert_array_equal(keys[row, :n], want_k)
            np.testing.assert_array_equal(values[row, :n], want_v)
            # Padding holds arbitrary-but-finite pool data (NaN when
            # poisoned); consumers mask.
            if poison_padding_enabled():
                assert np.isnan(keys[row, n:]).all()
            else:
                assert np.isfinite(keys[row, n:]).all()


class TestPoisonedPaddingGroupDecode:
    """With NaN-poisoned padding the group path must produce bit-identical
    outputs: every batched consumer masks padding to weight exactly 0.0,
    so the poison can never leak into a score, a softmax or an output.
    Any future consumer that forgets the mask turns this into a loud NaN
    failure instead of a silent wrong-but-plausible read."""

    @pytest.mark.parametrize(
        "policy_name",
        ["full", "snapkv", "streaming_llm", "h2o", "quest", "unicaim",
         "unicaim_cam"],
    )
    def test_group_decode_identical_under_poison(
        self, model, prompts, policy_name
    ):
        factory = build_policy_factory(
            policy_name, prompt_length=len(prompts[0]), cache_ratio=0.6
        )
        reference = serial_reference(model, prompts, policy_factory=factory)
        old = set_poison_padding(True)
        try:
            _, poisoned = run_engine(
                model, prompts, batch_size=8, policy_factory=factory,
            )
        finally:
            set_poison_padding(old)
        assert_responses_identical(reference, poisoned)
