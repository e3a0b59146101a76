"""Batched multi-sequence serving engine with iteration-level scheduling.

The ROADMAP north-star asks for a system that serves many users at once.
This module is the request-level half of that: a :class:`BatchedEngine`
whose lifecycle for every request is

    ``submit()`` queue -> scheduled (chunked) prefill -> continuous decode

Scheduling lives in :class:`~repro.serving.scheduler.Scheduler`; the
engine's :meth:`~BatchedEngine.step` is a thin execution loop around
``Scheduler.next_batch()``:

* **Admission + prefill** — the scheduler drains queued requests into the
  in-flight prefill set (prefix-cache lookups, deferral of requests whose
  best prefix match is still being prefilled, page-gated admission) and
  emits this step's :class:`~repro.serving.scheduler.PrefillChunk` list.
  The engine runs all scheduled chunks as one padding-free packed pass
  (:meth:`~repro.llm.model.TransformerLM.prefill_chunk_batched`);
  sequences whose final chunk lands are promoted into the decode set the
  same step.  With ``max_tokens_per_step`` unset every prompt is a single
  chunk — the classic whole-prompt prefill wave.  A request whose prefill
  hits pool exhaustion is requeued at the front (its place preserved) when
  preemption is on; any other prefill failure turns into a
  ``finish_reason="error"`` response with ``error_cause="prefill_failed"``;
  the engine's queues stay consistent either way.
* **Decode** — every active sequence advances one token per step via
  :meth:`~repro.llm.model.TransformerLM.decode_steps_batched`, every step,
  regardless of how much prefill is outstanding: with a token budget set,
  a giant prompt is absorbed a chunk at a time *between* decode steps, so
  in-flight sequences keep emitting tokens (no head-of-line blocking).
  Decode slots are ordered policy-homogeneously (same-policy sequences
  contiguous; spans in ``stats()["scheduler"]["decode_groups"]``) and each
  span executes as **one** vectorized
  :meth:`~repro.core.policy.KVCachePolicy.decode_step_group` call per
  layer (see :mod:`repro.core.group_decode`) — per-step dispatch is
  O(policy groups), not O(batch); cumulative ``group_calls`` /
  ``fallback_calls`` / ``vectorized_sequences`` counters land in
  ``stats()["scheduler"]``.  Generated tokens and ``PolicyStats`` match
  the serial :func:`~repro.llm.generation.greedy_generate_serial` oracle.
  A sequence that exhausts its token budget is retired *without*
  feeding its final token through the model — those logits would be
  discarded.
* **Speculative decode** — with a
  :class:`~repro.serving.speculation.SpeculationConfig` a drafter
  (induction-head model or n-gram history matching) proposes up to ``k``
  tokens per eligible sequence per step; the engine feeds each sequence's
  ``[committed token] + drafts`` chunk through **one** batched verify
  forward (:meth:`~repro.llm.model.TransformerLM.verify_steps_batched`),
  commits the longest prefix whose drafts match the target's own greedy
  argmax at every position, and rolls the rejected rows back out of the
  KV store (:meth:`~repro.core.kv_pool.PagedKVStore.rollback_append` —
  pages allocated purely for rejected drafts return to the arena).
  Output is token- and ``PolicyStats``-identical to plain greedy decode:
  only policies that certify exact rollback
  (:meth:`~repro.core.policy.KVCachePolicy.supports_speculation`)
  speculate, everyone else — plus sequences whose acceptance rate trips
  the auto-disable guard and arenas running mixed-precision pages —
  falls back to the one-token path per sequence.

Requests may also be submitted from *other threads* while a serving
thread drives the step loop: :meth:`BatchedEngine.submit_async` feeds the
scheduler's locked pending queue and :meth:`BatchedEngine.run_until_idle`
admits the new work at its next iteration boundary.

Paged KV storage
----------------
The engine always serves from a :class:`~repro.core.kv_pool.KVPoolGroup`
of fixed per-layer page arenas: every admitted sequence's policies store
their K/V rows in the *shared* arena through per-sequence block tables.
Without an explicit ``kv_pools`` the engine builds a float64 group with
16-token pages and ``max_batch_size * ceil(max_position / 16)`` pages per
layer, so ``max_batch_size`` sequences of up to the model's
``max_position`` tokens fit at once; the arenas are ``np.zeros`` memory,
committed lazily, so pages nobody writes cost nothing.  Admission is
gated on page availability with allocated-so-far accounting: per layer the
scheduler keeps ``sum(remaining demand) <= free pages``, where a sequence's
remaining demand starts at its (prefix-credited) worst case and shrinks to
"pages actually held + what decode can still allocate" as its prefill
lands.  The slack reclaimed versus the old worst-case-lifetime reservations
is reported as ``reservation_delta`` in :meth:`BatchedEngine.stats`.  A
request that cannot fit right now waits in the queue; one that could never
fit — even after shedding prefix-cache pages — fails closed.
``max_batch_size=None`` removes the slot grid entirely and lets pages alone
bound concurrency.

The arenas' *storage codec* is orthogonal to all of this: build the group
with ``codec="int8"``/``"int4"`` and rows are quantised on write and
dequantised inside the gathers, so policies, group decode, prefix sharing,
CoW and preemption/resume run unchanged while the same byte budget holds
~4x/8x the pages (and therefore admits proportionally more sequences).
``stats()["kv_pool"]`` reports the codec, effective bytes-per-token and
the mixed-precision fp-page fraction.

* A prefix-cache hit hands the new sequence the prefix's *pool pages*:
  whole-prompt-retaining policies adopt them zero-copy on their first
  prefill chunk, so a shared prefix occupies memory once across all
  sharers until a policy evicts/overwrites into a shared page
  (copy-on-write split).
* When a whole-prompt-retaining sequence finishes prefill, the prefix
  cache stores its prompt *by reference*: the entry refcounts the
  sequence's own pool pages instead of writing a second paged copy
  (``cache_inserts_by_reference``), and the sequence's later appends into
  the shared tail page CoW-split it so the entry never observes them.
* Before every decode wave the engine sums the batch's worst-case page
  demand for the step; if the arena cannot cover it, it first sheds
  prefix-cache LRU entries, then (preemption on, the default) parks
  scheduler-selected victims — pages released, tokens and per-layer
  ``PolicyStats`` snapshotted for a later token-identical resume — and
  only as a last resort (``preemption=False``, or a lone sequence nothing
  can be stolen from) fails the newest sequences closed with
  ``error_cause="decode_page_exhaustion"`` instead of crashing the batch
  mid-GEMM.

Each sequence owns its own per-layer :class:`~repro.core.policy.KVCachePolicy`
stack, so a single engine can serve a mix of pruning policies (e.g. one
UniCAIM-CAM request next to a full-cache request).  Prefix reuse is policy
agnostic, and chunked prefill is chunk-size invariant: generated tokens and
``PolicyStats`` are identical to one-shot prefill for every policy (the
chunk boundary only changes *when* compute happens, never what any policy
stores or selects — asserted across all seven policies in the test suite).

The packed prefill, larger batches and chunked prefill compute logits
that can differ from :func:`repro.llm.generation.greedy_generate_serial`
in the last float ulp (batched BLAS GEMMs round differently from
per-sequence einsums); greedy token ids and ``PolicyStats`` are identical
in practice and asserted so in the test suite.  Evaluations that must be
strictly independent of batch composition should use ``max_batch_size=1``
with ``prefix_caching=False``.
"""

from __future__ import annotations

import itertools
import math
import threading
from collections import deque
from dataclasses import dataclass, field, replace
from typing import (
    TYPE_CHECKING,
    Callable,
    Deque,
    Dict,
    List,
    Optional,
    Sequence,
    Set,
)

import numpy as np

from ..core.kv_pool import KVPoolGroup, PoolExhaustedError
from ..core.policy import KVCachePolicy, PolicyStats
from .prefix_cache import PrefixCache
from .scheduler import (
    PreemptedSequence,
    PrefillChunk,
    PrefillingSequence,
    Scheduler,
    SchedulerPolicy,
)
from .speculation import SpeculationConfig

if TYPE_CHECKING:  # imported lazily to avoid a cycle with repro.llm
    from ..llm.model import PolicyFactory, TransformerLM


# ----------------------------------------------------------------------
# Stats-schema key taxonomy
# ----------------------------------------------------------------------
# :meth:`BatchedEngine.stats` has a *stable* schema: the key names below
# (and the section layout documented on the method) are relied on by the
# benchmarks, the throughput reports and the cluster aggregator
# (:func:`repro.serving.cluster.merge_stats`).  Every numeric leaf is a
# monotone **counter** (aggregates by summing) unless listed here:
#
# * ``STATS_PEAK_KEYS`` — high-water marks; a cluster-wide aggregate takes
#   the max across workers (summing per-worker peaks would overstate a
#   concurrency that never co-occurred).
# * ``STATS_CONFIG_KEYS`` — configuration echoes, not measurements; they
#   must agree across merged workers (first value wins, a mismatch is
#   surfaced as a per-worker list).
# * ``STATS_RATIO_KEYS`` — derived ratios; an aggregate recomputes them
#   from the summed numerator/denominator where both are present
#   (``hit_rate`` = hits/lookups, ``acceptance_rate`` =
#   accepted/drafted tokens, ``fp_page_fraction`` = fp pages/pages in
#   use) and falls back to the mean otherwise (``bytes_per_token``).
#
# Instantaneous occupancy gauges (``pending``/``active``/``pages_free``
# and friends) aggregate by summing like counters: each worker owns its
# own queue and arena, so the sum *is* the cluster-wide occupancy.
STATS_PEAK_KEYS = frozenset({"peak_active", "peak_pages_in_use"})
STATS_CONFIG_KEYS = frozenset({"max_tokens_per_step", "codec", "k", "enabled"})
STATS_RATIO_KEYS = frozenset(
    {"hit_rate", "acceptance_rate", "fp_page_fraction", "bytes_per_token"}
)

#: Page size of the KV arenas an engine builds when given no ``kv_pools``.
_DEFAULT_PAGE_SIZE = 16


def _default_kv_pools(model: "TransformerLM", max_batch_size: int) -> KVPoolGroup:
    """Arenas for ``max_batch_size`` sequences of ``max_position`` tokens."""
    config = model.config
    pages_per_sequence = math.ceil(config.max_position / _DEFAULT_PAGE_SIZE)
    return KVPoolGroup(
        config.num_layers,
        _DEFAULT_PAGE_SIZE,
        config.num_heads,
        config.head_dim,
        num_pages=max_batch_size * pages_per_sequence,
    )


@dataclass
class ServingRequest:
    """One generation request submitted to the engine.

    Attributes
    ----------
    prompt_ids:
        Prompt token ids (must be non-empty and within the model's
        vocabulary).
    max_new_tokens:
        Maximum number of tokens to generate (0 completes immediately).
    request_id:
        Optional caller-chosen id; auto-assigned when ``None``.
    stop_ids:
        Token ids that terminate the sequence (the stop token itself is not
        included in the output).  Normalised to a frozenset at submission,
        so caller-side mutation of the passed sequence cannot change stop
        behaviour mid-flight.
    policy_factory:
        ``factory(num_heads, head_dim) -> KVCachePolicy`` for this request's
        per-layer caches; falls back to the engine default (full cache).
    keep_logits:
        Keep the per-step logits on the response for analysis.
    priority:
        Scheduling priority consulted by the ``"priority"`` victim policy:
        under page pressure the *lowest*-priority active sequence is
        preempted first.  Admission order is FCFS regardless.
    tenant:
        Optional tenant label for multi-tenant workload accounting (see
        :mod:`repro.serving.workload`); the engine itself treats it as
        opaque metadata.
    """

    prompt_ids: Sequence[int]
    max_new_tokens: int
    request_id: Optional[str] = None
    stop_ids: Optional[Sequence[int]] = None
    policy_factory: Optional["PolicyFactory"] = None
    keep_logits: bool = False
    priority: int = 0
    tenant: Optional[str] = None


@dataclass
class ServingResponse:
    """Completed generation for one request.

    ``error_cause`` (set iff ``finish_reason == "error"``) distinguishes
    where a failure happened: ``"admission_infeasible"`` (the request could
    never fit the KV arena), ``"admission_failed"`` (its policy factory
    raised), ``"prefill_failed"`` (the prefill pass raised) or
    ``"decode_page_exhaustion"`` (the fail-closed decode safety net, only
    reachable with preemption disabled or a lone infeasible sequence).
    :class:`~repro.serving.cluster.EngineCluster` adds three more:
    ``"worker_died"`` (the request had started on a worker that died),
    ``"cluster_overloaded"`` (rejected by ``RouterConfig.max_pending``
    admission backpressure) and ``"invalid_request"`` (a process worker's
    ``submit`` validation failed — exceptions cannot cross the process
    boundary, so the rejection comes back as a response).
    """

    request_id: str
    token_ids: List[int]
    prompt_length: int
    finish_reason: str  # "stop" (hit a stop id), "length" (budget) or "error"
    policy_stats: List[PolicyStats] = field(default_factory=list)
    logits_history: Optional[List[np.ndarray]] = None
    error: Optional[str] = None  # set when finish_reason == "error"
    error_cause: Optional[str] = None

    @property
    def num_generated(self) -> int:
        return len(self.token_ids)


@dataclass
class SequenceSlot:
    """In-flight decoding state of one admitted request.

    ``logits`` always holds the next-token distribution produced by the most
    recent prefill/decode step; ``position`` is the logical position the next
    generated token will occupy.  ``worst_case_pages`` is the per-layer
    admission-time worst-case page demand, kept for the
    ``reservation_delta`` telemetry — actual page accounting follows the
    policies' allocated-so-far state.

    ``replay`` is non-empty only on a sequence whose already-emitted tokens
    must be (re-)fed through the decode path: resume after a preemption,
    the bonus token a speculative verify committed past its accepted
    prefix, or the fallback after an aborted verify forward.  While it
    drains, the step loop feeds ``replay.popleft()`` instead of sampling
    (the tokens are already in ``generated``).

    ``spec_drafted``/``spec_accepted`` track this sequence's speculative
    acceptance for the auto-disable guard; ``spec_disabled`` latches once
    the rate falls below :attr:`SpeculationConfig.min_acceptance`.
    """

    request: ServingRequest
    request_id: str
    prompt_length: int
    policies: List[KVCachePolicy]
    stop_set: frozenset
    logits: np.ndarray
    position: int
    generated: List[int] = field(default_factory=list)
    logits_history: List[np.ndarray] = field(default_factory=list)
    worst_case_pages: List[int] = field(default_factory=list)
    admission_index: int = 0  # monotonically increasing admission order
    replay: Deque[int] = field(default_factory=deque)
    preemptions: int = 0  # times this sequence has been preempted so far
    spec_drafted: int = 0  # draft tokens verified for this sequence
    spec_accepted: int = 0  # draft tokens accepted for this sequence
    spec_disabled: bool = False  # acceptance-rate auto-disable latch


class BatchedEngine:
    """Continuous-batching greedy decode engine over a :class:`TransformerLM`.

    Parameters
    ----------
    model:
        The transformer substrate.
    policy_factory:
        Default per-layer policy factory for requests that do not carry
        their own (``None`` means the full-cache policy).
    max_batch_size:
        Maximum number of sequences admitted concurrently (prefilling +
        decoding).  Further submissions queue and are admitted as active
        sequences complete.  ``None`` (allowed only with explicit
        ``kv_pools``) removes the fixed slot grid: concurrency is then
        bounded by page availability alone.
    prefix_cache:
        Optional externally owned :class:`PrefixCache`, e.g. shared across
        several engines of an evaluation sweep.  It must be built over the
        same ``kv_pools`` the engine is given.  When ``None`` (and prefix
        caching is enabled) the engine creates a private one over its
        arenas.
    prefix_caching:
        Reuse shared prompt prefixes across requests at admission.
    kv_pools:
        :class:`~repro.core.kv_pool.KVPoolGroup` of *fixed* per-layer page
        arenas shared by every sequence (and the prefix cache).  See the
        module docstring for the admission and copy-on-write semantics.
        ``None`` builds a default group: float64, 16-token pages,
        ``max_batch_size * ceil(max_position / 16)`` pages per layer, so
        ``max_batch_size`` full-length sequences fit at once.
    scheduler_policy:
        :class:`~repro.serving.scheduler.SchedulerPolicy` knobs (token
        budget, prefill floor, decode grouping).
    max_tokens_per_step:
        Convenience shorthand for
        ``SchedulerPolicy(max_tokens_per_step=...)`` — the per-step token
        budget that turns on chunked prefill.  Mutually exclusive with an
        explicit ``scheduler_policy``.
    on_token:
        Optional ``callback(request_id, token_id, num_generated)`` fired
        the moment a token is *committed* (sampled, or accepted by a
        speculative verify — not when it is replayed after a preemption;
        each emitted token fires exactly once, in order).  This is the
        per-token latency seam the workload harness uses for TTFT/ITL
        timestamps.  Called from the stepping thread; must be cheap.
    speculation:
        Optional :class:`~repro.serving.speculation.SpeculationConfig`
        turning on speculative decoding: a drafter proposes up to ``k``
        tokens per eligible sequence per step, the engine verifies the
        whole chunk in **one** batched forward
        (:meth:`TransformerLM.verify_steps_batched`), commits the longest
        draft prefix the target's own greedy choices agree with, and
        rolls rejected rows back out of the KV store (CoW pages freed).
        Output is token- and ``PolicyStats``-identical to plain greedy
        decode; sequences whose policies cannot certify exact rollback
        (:meth:`~repro.core.policy.KVCachePolicy.supports_speculation`),
        whose acceptance rate auto-disables them, or whose arena runs
        mixed-precision pages (irreversible fp-page demotions) fall back
        to the ordinary one-token path.  ``stats()["speculation"]``
        reports the acceptance telemetry.
    """

    def __init__(
        self,
        model: "TransformerLM",
        policy_factory: Optional["PolicyFactory"] = None,
        max_batch_size: Optional[int] = 16,
        prefix_cache: Optional[PrefixCache] = None,
        prefix_caching: bool = True,
        kv_pools: Optional[KVPoolGroup] = None,
        scheduler_policy: Optional[SchedulerPolicy] = None,
        max_tokens_per_step: Optional[int] = None,
        on_token: Optional[Callable[[str, int, int], None]] = None,
        speculation: Optional[SpeculationConfig] = None,
    ) -> None:
        if max_batch_size is not None and max_batch_size < 1:
            raise ValueError("max_batch_size must be >= 1")
        if kv_pools is None:
            if max_batch_size is None:
                raise ValueError(
                    "max_batch_size=None requires kv_pools (nothing else "
                    "bounds the arena size)"
                )
            kv_pools = _default_kv_pools(model, max_batch_size)
        if kv_pools.num_layers != model.config.num_layers:
            raise ValueError("kv_pools must have one pool per transformer layer")
        if any(not pool.fixed for pool in kv_pools.pools):
            raise ValueError(
                "engine kv_pools must be fixed-size (page-gated "
                "admission needs a hard arena bound)"
            )
        if any(
            pool.codec.name != kv_pools.pools[0].codec.name
            for pool in kv_pools.pools
        ):
            # Admission math counts pages, which are codec-independent,
            # but telemetry and byte accounting assume one codec per
            # group; mixed per-layer codecs have no use case here.
            raise ValueError(
                "engine kv_pools must share one storage codec across layers"
            )
        if scheduler_policy is not None and max_tokens_per_step is not None:
            raise ValueError(
                "pass either scheduler_policy or max_tokens_per_step, not both"
            )
        if scheduler_policy is None:
            scheduler_policy = SchedulerPolicy(
                max_tokens_per_step=max_tokens_per_step
            )
        self.model = model
        self.policy_factory = policy_factory
        self.max_batch_size = (
            None if max_batch_size is None else int(max_batch_size)
        )
        self.kv_pools = kv_pools
        if prefix_cache is not None and not prefix_caching:
            raise ValueError(
                "an explicit prefix_cache conflicts with prefix_caching=False"
            )
        if prefix_cache is not None and prefix_cache.kv_pools is not kv_pools:
            raise ValueError(
                "an explicit prefix_cache must be built over the engine's "
                "kv_pools (pass the same KVPoolGroup as kv_pools=)"
            )
        self.prefix_cache: Optional[PrefixCache] = (
            (prefix_cache if prefix_cache is not None else PrefixCache(kv_pools))
            if prefix_caching
            else None
        )
        self.scheduler = Scheduler(
            model=model,
            policy=scheduler_policy,
            default_policy_factory=policy_factory,
            max_batch_size=self.max_batch_size,
            kv_pools=kv_pools,
            prefix_cache=self.prefix_cache,
        )
        self._completed: Dict[str, ServingResponse] = {}
        self._submission_order: List[str] = []
        self._known_ids: Set[str] = set()
        self._ids = itertools.count()
        # Serialises submissions (id allocation + bookkeeping) so
        # :meth:`submit_async` may be called from other threads while the
        # step loop runs; the scheduler's pending queue has its own lock.
        self._submit_lock = threading.Lock()
        self.on_token = on_token
        # Set whenever new work arrives; an idle :meth:`run_until_idle`
        # loop blocks on it instead of spinning a sleep/poll cycle.
        self._work_event = threading.Event()
        self._steps = 0
        self._admissions = 0
        self._decode_page_failures = 0
        self._cache_inserts_skipped = 0
        self._cache_inserts_by_reference = 0
        self._peak_active = 0
        self._preemptions = 0
        self._resumes = 0
        self._reprefill_resumes = 0
        self._resume_replayed_tokens = 0
        self._resume_reprefilled_tokens = 0
        self._preempted_pages_released = 0
        self._prefill_requeues = 0
        self._failures_by_cause: Dict[str, int] = {}
        self.speculation = speculation
        # Mixed-precision arenas demote fp pages irreversibly as the page
        # frontier advances; staged draft rows could trigger a demotion a
        # rollback cannot undo, so speculation is gated off wholesale.
        self._speculation_pool_ok = all(
            pool.mixed_precision is None for pool in kv_pools.pools
        )
        if speculation is not None:
            # Let chunked-prefill budgeting reserve verify-chunk tokens for
            # speculating sequences instead of one token per active slot.
            self.scheduler.decode_token_estimate = self._speculation_tokens
        self._spec_steps = 0  # engine steps that ran a verify forward
        self._spec_chunks = 0  # verify chunks run (one per sequence per step)
        self._spec_drafted = 0
        self._spec_accepted = 0
        self._spec_rollback_rows = 0
        self._spec_rollback_pages = 0
        self._spec_disabled_sequences = 0
        self._spec_aborts = 0
        self._spec_downgrades = 0  # chunks dropped to fit the page budget
        self._spec_tokens_per_step: Dict[int, int] = {}

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def num_pending(self) -> int:
        return self.scheduler.num_pending

    @property
    def num_active(self) -> int:
        return len(self.scheduler.active)

    @property
    def num_prefilling(self) -> int:
        return self.scheduler.num_prefilling

    @property
    def has_work(self) -> bool:
        return self.scheduler.has_work

    @property
    def step_count(self) -> int:
        return self._steps

    def active_request_ids(self) -> List[str]:
        return [slot.request_id for slot in self.scheduler.active]

    def load(self) -> Dict[str, float]:
        """Cheap, thread-safe load snapshot for routers.

        Unlike :meth:`stats` — which walks in-flight sequence state and
        must run at quiescence or on the stepping thread — this reads only
        atomic ints (queue lengths, arena free-page counts), so a cluster
        router may call it on *live* workers from its own thread.  Keys:

        - ``pending`` / ``prefilling`` / ``active`` / ``parked``: queue
          depths at each lifecycle stage.
        - ``queued``: their sum — outstanding sequences on this worker.
        - ``page_utilization``: worst-layer arena occupancy in ``[0, 1]``
          (``1 - free/total``).

        The snapshot is racy across keys (each is read independently while
        the stepping thread runs); that is fine for load balancing, which
        only needs a recent approximation.
        """
        pending = self.scheduler.num_pending
        prefilling = self.scheduler.num_prefilling
        active = len(self.scheduler.active)
        parked = self.scheduler.num_preempted
        utilization = max(
            1.0 - pool.free_pages / pool.total_pages
            for pool in self.kv_pools.pools
        )
        return {
            "pending": pending,
            "prefilling": prefilling,
            "active": active,
            "parked": parked,
            "queued": pending + prefilling + active + parked,
            "page_utilization": utilization,
        }

    def stats(self) -> Dict[str, object]:
        """Engine, scheduler, pool and prefix-cache telemetry as one dict.

        ``scheduler`` reports the iteration-level scheduler (token budget,
        chunks/tokens scheduled, chunked prompts, decode group spans);
        ``kv_pool`` aggregates the per-layer arenas — including the
        storage-precision telemetry of the quantised-page refactor:
        ``codec`` (storage codec name), ``bytes_per_token`` (effective
        storage cost per cached token, scale metadata included),
        ``fp_pages_in_use``/``fp_page_fraction`` and the mixed-precision
        ``fp_promotions``/``fp_demotions`` counters — with
        ``reserved_pages`` the *current* outstanding demand under
        allocated-so-far accounting, ``worst_case_reserved_pages`` what the
        old lifetime reservations would still hold, and
        ``reservation_delta`` the admission headroom the tighter accounting
        reclaimed; ``prefix_cache`` reports entry count, bytes, hit rate,
        tokens reused, by-reference inserts and pool pages held by cached
        prefixes.  ``speculation`` reports the speculative-decode
        telemetry — drafted/accepted token counts and acceptance rate, the
        committed-tokens-per-step histogram, rollback rows and pool pages
        freed by rejected drafts, auto-disabled sequences, page-pressure
        downgrades and verify aborts.  ``speculation``/``prefix_cache``
        are ``None`` when the corresponding feature is off.

        **Stable schema.**  The section layout and key names are a
        documented contract: top-level counters/gauges (``steps``,
        ``pending``, ``prefilling``, ``active``, ``peak_active``,
        ``completed``), the ``admission``/``preemption``/
        ``failures_by_cause`` counter sections, the ``scheduler`` section
        (:meth:`Scheduler.stats`), the ``kv_pool`` section, and the
        optional ``speculation``/``prefix_cache`` sections (``None`` when
        the feature is off, never absent).  Every numeric leaf is a
        sum-aggregable counter or occupancy gauge except the
        peak/config/ratio keys listed in :data:`STATS_PEAK_KEYS` /
        :data:`STATS_CONFIG_KEYS` / :data:`STATS_RATIO_KEYS`;
        :func:`repro.serving.cluster.merge_stats` aggregates per-worker
        dicts of this schema into one cluster-wide view.  Must be read at
        quiescence or from the stepping thread — it walks in-flight
        sequence state; :meth:`load` is the cheap snapshot other threads
        (e.g. a cluster router) may take mid-step.
        """
        pool_stats = self.kv_pools.stats()
        remaining = self.scheduler.remaining_page_totals()
        worst = self.scheduler.worst_case_page_totals()
        pool_stats["reserved_pages"] = int(sum(remaining))
        pool_stats["worst_case_reserved_pages"] = int(sum(worst))
        pool_stats["reservation_delta"] = int(sum(worst) - sum(remaining))
        out: Dict[str, object] = {
            "steps": self._steps,
            "pending": self.scheduler.num_pending,
            "prefilling": self.scheduler.num_prefilling,
            "active": len(self.scheduler.active),
            "peak_active": self._peak_active,
            "completed": len(self._completed),
            "admission": {
                "page_deferrals": self.scheduler.page_deferrals,
                "infeasible_failures": self.scheduler.infeasible_failures,
                "decode_page_failures": self._decode_page_failures,
                "cache_inserts_skipped": self._cache_inserts_skipped,
                "cache_inserts_by_reference": self._cache_inserts_by_reference,
            },
            "preemption": {
                "preemptions": self._preemptions,
                "resumes": self._resumes,
                "reprefill_resumes": self._reprefill_resumes,
                "replayed_tokens": self._resume_replayed_tokens,
                "reprefilled_tokens": self._resume_reprefilled_tokens,
                "pages_released": self._preempted_pages_released,
                "prefill_requeues": self._prefill_requeues,
                "parked": self.scheduler.num_preempted,
            },
            "failures_by_cause": dict(self._failures_by_cause),
            "scheduler": self.scheduler.stats(),
            "speculation": None,
            "kv_pool": pool_stats,
            "prefix_cache": None,
        }
        if self.speculation is not None:
            drafted = self._spec_drafted
            out["speculation"] = {
                "enabled": self._speculation_pool_ok,
                "k": self.speculation.k,
                "drafted_tokens": drafted,
                "accepted_tokens": self._spec_accepted,
                "acceptance_rate": (
                    self._spec_accepted / drafted if drafted else 0.0
                ),
                "verify_steps": self._spec_steps,
                "verify_chunks": self._spec_chunks,
                "tokens_per_step": dict(
                    sorted(self._spec_tokens_per_step.items())
                ),
                "rollback_rows": self._spec_rollback_rows,
                "rollback_pages_dropped": self._spec_rollback_pages,
                "sequences_disabled": self._spec_disabled_sequences,
                "downgrades": self._spec_downgrades,
                "aborts": self._spec_aborts,
            }
        if self.prefix_cache is not None:
            cache = self.prefix_cache
            out["prefix_cache"] = {
                "entries": len(cache),
                "bytes": cache.memory_bytes(),
                "lookups": cache.stats.lookups,
                "hits": cache.stats.hits,
                "hit_rate": cache.stats.hit_rate,
                "tokens_reused": cache.stats.tokens_reused,
                "inserts_by_reference": cache.stats.inserts_by_reference,
                "pages_held": sum(
                    cache.pages_held(layer)
                    for layer in range(self.model.config.num_layers)
                ),
            }
        return out

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    def submit(self, request: ServingRequest) -> str:
        """Queue a request for admission; returns its request id.

        Requests may be submitted at any time, including while other
        sequences are mid-decode — they are admitted at the next step
        boundary once a batch slot is free (continuous batching).

        Prompt token ids are validated against the model's vocabulary here,
        so a malformed prompt is rejected before it can occupy a queue slot
        (an out-of-range id would otherwise only surface as an exception in
        the middle of a prefill pass).
        """
        prompt_ids = [int(t) for t in request.prompt_ids]
        if not prompt_ids:
            raise ValueError("prompt_ids must not be empty")
        vocab_size = self.model.config.vocab_size
        for token in prompt_ids:
            if token < 0 or token >= vocab_size:
                raise ValueError(
                    f"prompt token id {token} out of range for "
                    f"vocab_size {vocab_size}"
                )
        if request.max_new_tokens < 0:
            raise ValueError("max_new_tokens must be >= 0")
        with self._submit_lock:
            request_id = request.request_id
            if request_id is None:
                request_id = f"req-{next(self._ids)}"
            if request_id in self._known_ids:
                raise ValueError(f"duplicate request id {request_id!r}")
            self._known_ids.add(request_id)
            queued = ServingRequest(
                prompt_ids=prompt_ids,
                max_new_tokens=int(request.max_new_tokens),
                request_id=request_id,
                stop_ids=(
                    frozenset(int(t) for t in request.stop_ids)
                    if request.stop_ids is not None
                    else None
                ),
                policy_factory=request.policy_factory,
                keep_logits=request.keep_logits,
                priority=int(request.priority),
                tenant=request.tenant,
            )
            self._submission_order.append(request_id)
        self.scheduler.enqueue(queued)
        self._work_event.set()
        return request_id

    def submit_async(self, request: ServingRequest) -> str:
        """Thread-safe :meth:`submit` for admission from another thread.

        The request lands in the scheduler's locked pending queue; the
        stepping thread (e.g. one running :meth:`run_until_idle`) picks it
        up at its next iteration boundary — continuous batching across
        threads with no engine-side coordination beyond the queue handoff.
        """
        return self.submit(request)

    # ------------------------------------------------------------------
    # Prefill execution
    # ------------------------------------------------------------------
    def _run_prefill_chunks(
        self, chunks: List[PrefillChunk], finished: List[ServingResponse]
    ) -> None:
        """Execute one step's scheduled chunks as a single packed pass."""
        seqs = [chunk.seq for chunk in chunks]
        try:
            logits_list, new_states = self.model.prefill_chunk_batched(
                [chunk.tokens for chunk in chunks],
                [seq.state for seq in seqs],
                [seq.policies for seq in seqs],
                [chunk.final for chunk in chunks],
            )
        except Exception:
            # One bad request must not take down the pass (or the engine):
            # restart each member alone so only the offender fails.  The
            # failed joint attempt may have left partial rows in some
            # policies' stores; rebuilding from fresh policies keeps the
            # pool accounting exact.
            for seq in seqs:
                self._restart_prefill_alone(seq, finished)
            return
        for chunk, logits, state in zip(chunks, logits_list, new_states):
            seq = chunk.seq
            seq.state = state
            seq.done = state.processed
            if seq.prefix is not None:
                # Adoption holds its own page references from the first
                # chunk on; drop the lookup's pins (idempotent).
                seq.prefix.release()
            if chunk.final:
                self._complete_prefill(seq, logits, finished)

    def _restart_prefill_alone(
        self, seq: PrefillingSequence, finished: List[ServingResponse]
    ) -> None:
        """Recovery path: rerun one sequence's whole prefill in isolation."""
        for policy in seq.policies:
            policy.release_kv()
        if seq.prefix is not None:
            seq.prefix.release()
            seq.prefix = None  # retry cold; reuse was never committed
        seq.state = None
        seq.done = 0
        try:
            seq.policies = self.model.make_policies(
                seq.request.policy_factory or self.policy_factory,
                kv_pools=self.kv_pools,
            )
            logits, states = self.model.prefill_chunk_batched(
                [seq.prompt], [None], [seq.policies], [True]
            )
        except Exception as exc:
            self._abort_prefilling(seq, finished, exc)
            return
        seq.state = states[0]
        seq.done = len(seq.prompt)
        self._complete_prefill(seq, logits[0], finished)

    def _complete_prefill(
        self,
        seq: PrefillingSequence,
        logits: np.ndarray,
        finished: List[ServingResponse],
    ) -> None:
        """Final chunk landed: publish to the prefix cache and promote."""
        if self.prefix_cache is not None:
            if seq.prefix is not None:
                self.prefix_cache.commit_reuse(seq.prefix)
            if seq.resume is None:
                # A resume's pseudo-prompt (prompt + generated tokens) is
                # not a reusable prompt; keep it out of the prefix cache.
                self._cache_insert(
                    seq.prompt, seq.state.prompt_rows(), seq.policies
                )
        if seq.resume is not None:
            self._promote_resumed(seq, logits)
            return
        self._admissions += 1
        slot = SequenceSlot(
            request=seq.request,
            request_id=seq.request.request_id,
            prompt_length=len(seq.prompt),
            policies=seq.policies,
            stop_set=frozenset(seq.request.stop_ids or ()),
            logits=logits,
            position=len(seq.prompt),
            worst_case_pages=list(seq.worst_case_pages),
            admission_index=self._admissions,
        )
        if seq.request.max_new_tokens == 0:
            self.scheduler.remove_prefilling(seq)
            finished.append(self._finish(slot, "length"))
            return
        self.scheduler.promote(seq, slot)
        self._peak_active = max(self._peak_active, len(self.scheduler.active))

    def _promote_resumed(
        self, seq: PrefillingSequence, logits: np.ndarray
    ) -> None:
        """A resume prefill landed: rebuild the decode slot mid-sequence.

        Fast (re-prefill) resume: the prefill covered the prompt plus the
        ``fed`` already-fed generated tokens, so the whole ``PolicyStats``
        snapshot is restored (prefill stats describe the *original*
        prefill; the decode records for the fed tokens are in it) and at
        most one sampled-but-unfed token remains to replay.  Replay
        resume: only the prompt was prefilled — the fresh prefill
        re-recorded everything deterministically except
        ``prefill_reused_tokens`` (prefix-cache contents may differ on
        resume), which is patched from the snapshot; every generated token
        replays through decode, rebuilding eviction/selection state, RNG
        draws and ``StepRecord``s exactly as the original run made them.
        The slot keeps its original ``prompt_length`` and
        ``admission_index``; ``self._admissions`` is *not* bumped (this is
        the same admission, continued).
        """
        pre = seq.resume
        fed_prefilled = pre.fed if seq.reprefill_resume else 0
        prompt_len = len(pre.prompt)
        if seq.reprefill_resume:
            for policy, snap in zip(seq.policies, pre.stats_snapshot):
                policy.stats = snap
        else:
            for policy, snap in zip(seq.policies, pre.stats_snapshot):
                policy.stats.prefill_reused_tokens = snap.prefill_reused_tokens
        slot = SequenceSlot(
            request=seq.request,
            request_id=seq.request.request_id,
            prompt_length=prompt_len,
            policies=seq.policies,
            stop_set=frozenset(seq.request.stop_ids or ()),
            logits=logits,
            position=prompt_len + fed_prefilled,
            generated=list(pre.generated),
            logits_history=list(pre.logits_history),
            worst_case_pages=list(seq.worst_case_pages),
            admission_index=pre.admission_index,
            replay=deque(pre.generated[fed_prefilled:]),
            preemptions=pre.preemptions,
        )
        self._resumes += 1
        if seq.reprefill_resume:
            self._reprefill_resumes += 1
            self._resume_reprefilled_tokens += fed_prefilled
        self._resume_replayed_tokens += len(slot.replay)
        self.scheduler.promote(seq, slot)
        self._peak_active = max(self._peak_active, len(self.scheduler.active))

    def _abort_prefilling(
        self,
        seq: PrefillingSequence,
        finished: List[ServingResponse],
        exc: Exception,
    ) -> None:
        for policy in seq.policies:
            policy.release_kv()
        if seq.prefix is not None:
            seq.prefix.release()
        self.scheduler.remove_prefilling(seq)
        if (
            isinstance(exc, PoolExhaustedError)
            and self.scheduler.policy.preemption
        ):
            # Ran out of pool pages mid-prefill (optimistic admission can
            # over-subscribe): this is pressure, not a broken request.
            # The sequence lost its partial state but keeps its place in
            # line and retries when pages free up.
            self._prefill_requeues += 1
            if seq.resume is not None:
                self.scheduler.requeue_preempted_front(seq.resume)
            else:
                self.scheduler.requeue_request_front(seq.request)
            return
        finished.append(self._fail(seq.request, exc, cause="prefill_failed"))

    # ------------------------------------------------------------------
    # Prefix-cache publication
    # ------------------------------------------------------------------
    def _cache_insert(
        self,
        prompt_ids: List[int],
        captured: list,
        policies: List[KVCachePolicy],
    ) -> None:
        """Publish a finished prefill to the prefix cache.

        Preferred path: when every layer's policy retains the whole
        prompt in pool pages, the entry *references* the
        sequence's own pages (refcount bump, zero page writes) — the
        sequence's later appends into the shared tail page copy-on-write
        split it, so the entry is immutable.  Fallback: copy the K/V rows
        into fresh pages, gated so the cache never claims pages an
        admitted sequence's outstanding demand still needs.
        """
        n = len(prompt_ids)
        runs = [policy.prompt_page_run(n) for policy in policies]
        if all(run is not None for run in runs):
            # Sharing flips the tail partial page shared (a future CoW
            # split): admit the insert only while one extra page per layer
            # stays coverable.
            extra = 1 if n % self.kv_pools.page_size else 0
            if self.scheduler.can_insert_pages([extra] * len(runs)):
                if self.prefix_cache.insert(
                    prompt_ids, captured, shared_pages=runs
                ):
                    self._cache_inserts_by_reference += 1
                return
            for run in runs:
                run.decref()
            self._cache_inserts_skipped += 1
            return
        for run in runs:
            if run is not None:
                run.decref()
        insert_pages = [
            math.ceil(n / self.kv_pools.layer(layer).page_size)
            for layer in range(self.kv_pools.num_layers)
        ]
        if not self.scheduler.can_insert_pages(insert_pages):
            self._cache_inserts_skipped += 1
            return
        self.prefix_cache.insert(prompt_ids, captured)

    # ------------------------------------------------------------------
    # Completion bookkeeping
    # ------------------------------------------------------------------
    def _fail(
        self,
        request: ServingRequest,
        exc: Exception,
        cause: str = "admission_failed",
    ) -> ServingResponse:
        """Turn a failed admission/prefill into a completed error response.

        The request was already popped from the queue and its id recorded in
        the submission order, so completing it (instead of dropping it on
        the floor) is what keeps :meth:`run`'s bookkeeping consistent.
        """
        self._failures_by_cause[cause] = (
            self._failures_by_cause.get(cause, 0) + 1
        )
        response = ServingResponse(
            request_id=request.request_id,
            token_ids=[],
            prompt_length=len(request.prompt_ids),
            finish_reason="error",
            policy_stats=[],
            logits_history=None,
            error=f"{type(exc).__name__}: {exc}",
            error_cause=cause,
        )
        self._completed[request.request_id] = response
        return response

    def _finish(
        self,
        slot: SequenceSlot,
        reason: str,
        error: Optional[str] = None,
        error_cause: Optional[str] = None,
    ) -> ServingResponse:
        if reason == "error" and error_cause is not None:
            self._failures_by_cause[error_cause] = (
                self._failures_by_cause.get(error_cause, 0) + 1
            )
        response = ServingResponse(
            request_id=slot.request_id,
            token_ids=list(slot.generated),
            prompt_length=slot.prompt_length,
            finish_reason=reason,
            policy_stats=[policy.stats for policy in slot.policies],
            logits_history=(
                list(slot.logits_history) if slot.request.keep_logits else None
            ),
            error=error,
            error_cause=error_cause,
        )
        # Retiring hands every pool page back to the shared arena; the
        # sequence's outstanding demand leaves the admission sum with it.
        for policy in slot.policies:
            policy.release_kv()
        self._completed[slot.request_id] = response
        return response

    # ------------------------------------------------------------------
    # Stepping
    # ------------------------------------------------------------------
    def step(self) -> List[ServingResponse]:
        """Run one scheduler iteration: prefill chunks, then decode.

        Returns the responses of sequences that completed during this step.
        The per-sequence semantics mirror ``greedy_generate`` exactly: the
        greedy token is sampled from the current logits; a stop id finishes
        the sequence without being emitted; otherwise the token is emitted.
        A sequence whose emitted token exhausts its budget finishes
        immediately — its final token is *not* fed through the model, since
        the resulting logits would never be read.
        """
        finished: List[ServingResponse] = []
        batch = self.scheduler.next_batch()
        for request, exc in batch.failures:
            cause = (
                "admission_infeasible"
                if isinstance(exc, PoolExhaustedError)
                else "admission_failed"
            )
            finished.append(self._fail(request, exc, cause=cause))
        if batch.prefill:
            self._run_prefill_chunks(batch.prefill, finished)

        slots, _groups = self.scheduler.decode_plan(batch)
        if not slots:
            if batch.prefill:
                # A prefill-only iteration (e.g. a long prompt chunking
                # with no active decodes) is still a scheduler step.
                self._steps += 1
            return finished

        continuing: List[SequenceSlot] = []
        for slot in slots:
            if slot.replay:
                # Resumed sequence re-feeding pre-preemption tokens: they
                # were sampled, emitted and stop/budget-checked before the
                # preemption — no sampling, no callback, just the feed.
                continuing.append(slot)
                continue
            next_id = int(np.argmax(slot.logits))
            if next_id in slot.stop_set:
                finished.append(self._finish(slot, "stop"))
                continue
            slot.generated.append(next_id)
            if slot.request.keep_logits:
                slot.logits_history.append(
                    np.asarray(slot.logits, dtype=np.float64)
                )
            if self.on_token is not None:
                self.on_token(slot.request_id, next_id, len(slot.generated))
            if len(slot.generated) >= slot.request.max_new_tokens:
                finished.append(self._finish(slot, "length"))
            else:
                continuing.append(slot)

        spec_plan: Dict[int, List[int]] = {}
        if self.speculation is not None and continuing:
            spec_plan = self._plan_speculation(continuing)

        if continuing:
            continuing = self._enforce_decode_pages(
                continuing, finished, spec_plan
            )

        if continuing:
            spec_slots = [s for s in continuing if id(s) in spec_plan]
            plain = [s for s in continuing if id(s) not in spec_plan]
            retired: List[SequenceSlot] = []
            if spec_slots:
                retired = self._speculative_decode(
                    spec_slots, spec_plan, finished
                )
            if plain:
                # Stop/length/page/speculation filtering preserves the
                # policy-grouped slot order, so the model's contiguous
                # same-policy runs over ``plain`` are the scheduled groups.
                logits_batch = self.model.decode_steps_batched(
                    [
                        slot.replay.popleft() if slot.replay
                        else slot.generated[-1]
                        for slot in plain
                    ],
                    [slot.position for slot in plain],
                    [slot.policies for slot in plain],
                    telemetry=self.scheduler.group_decode,
                )
                for row, slot in enumerate(plain):
                    slot.logits = logits_batch[row]
                    slot.position += 1
            if retired:
                retired_ids = {id(slot) for slot in retired}
                continuing = [
                    slot for slot in continuing
                    if id(slot) not in retired_ids
                ]

        self.scheduler.set_active(continuing)
        self._steps += 1
        return finished

    def _enforce_decode_pages(
        self,
        continuing: List[SequenceSlot],
        finished: List[ServingResponse],
        spec_plan: Optional[Dict[int, List[int]]] = None,
    ) -> List[SequenceSlot]:
        """Make the decode wave fit the free pages: shed, preempt, fail.

        Escalation order: first downgrade speculative verify chunks back to
        plain one-token decode (speculation is pure opportunism — it must
        never evict anyone's pages), then shed prefix-cache entries (LRU —
        cold cached prefixes are the cheapest pages in the arena), then
        preempt a victim chosen by :meth:`Scheduler.select_victim` (its
        pages are released and it is parked for a token-identical resume),
        and only when preemption is disabled — or cannot help, because the
        victim would be a lone sequence with nothing else holding pages —
        fail the newest sequence closed (``decode_page_exhaustion``), so a
        mid-batch :class:`PoolExhaustedError` can never corrupt
        half-advanced sequences.  With ``reserve`` admission the
        non-speculative invariant makes everything past the downgrade rung
        unreachable; ``optimistic`` admission hits the preemption path
        routinely under overload.
        """
        if spec_plan is None:
            spec_plan = {}
        num_layers = self.model.config.num_layers
        while continuing:
            demand = [0] * num_layers
            for slot in continuing:
                chunk_len = 1 + len(spec_plan.get(id(slot), ()))
                for layer, policy in enumerate(slot.policies):
                    demand[layer] += (
                        policy.speculative_page_demand(chunk_len)
                        if chunk_len > 1
                        else policy.decode_page_demand()
                    )
            if all(
                demand[layer] <= self.kv_pools.layer(layer).free_pages
                for layer in range(num_layers)
            ):
                return continuing
            planned = [
                slot for slot in continuing if id(slot) in spec_plan
            ]
            if planned:
                # Largest chunk first: frees the most demand per downgrade.
                victim = max(
                    planned, key=lambda slot: len(spec_plan[id(slot)])
                )
                del spec_plan[id(victim)]
                self._spec_downgrades += 1
                continue
            if (
                self.prefix_cache is not None
                and self.prefix_cache.drop_lru_entry()
            ):
                continue
            can_preempt = self.scheduler.policy.preemption and (
                len(continuing) > 1 or self.scheduler.num_prefilling > 0
            )
            if can_preempt:
                victim = self.scheduler.select_victim(continuing)
                continuing.remove(victim)
                self._park(victim)
                continue
            # Newest admission first: decode order is policy-grouped, so
            # list position no longer encodes recency.
            victim = max(continuing, key=lambda slot: slot.admission_index)
            continuing.remove(victim)
            self._decode_page_failures += 1
            finished.append(
                self._finish(
                    victim,
                    "error",
                    error=(
                        "PoolExhaustedError: KV pool cannot cover the next "
                        "decode step"
                    ),
                    error_cause="decode_page_exhaustion",
                )
            )
        return continuing

    # ------------------------------------------------------------------
    # Speculative decoding
    # ------------------------------------------------------------------
    def _speculation_tokens(self, slot: SequenceSlot) -> int:
        """Conservative forward-token estimate for one decode slot.

        Installed as the scheduler's ``decode_token_estimate`` when
        speculation is on: an eligible slot may feed a ``1 + k`` verify
        chunk this step, so the chunked-prefill budget reserves that much
        instead of one token.
        """
        cfg = self.speculation
        if cfg is None or slot.spec_disabled or slot.replay:
            return 1
        return 1 + cfg.k

    def _plan_speculation(
        self, continuing: List[SequenceSlot]
    ) -> Dict[int, List[int]]:
        """Draft proposals for every slot eligible to speculate this step.

        A slot is eligible when it is not draining a replay, has not been
        acceptance-rate disabled, has budget for at least two more tokens
        (one forward covers one token anyway — a draft only pays off if a
        *second* token can land), the drafter proposes something in-vocab,
        and every layer policy certifies exact rollback for the resulting
        chunk (:meth:`~repro.core.policy.KVCachePolicy.supports_speculation`).
        Returns ``{id(slot): draft_tokens}``; slots missing from the map
        decode plain.
        """
        cfg = self.speculation
        plan: Dict[int, List[int]] = {}
        if cfg is None or not self._speculation_pool_ok:
            return plan
        vocab = self.model.config.vocab_size
        for slot in continuing:
            if slot.replay or slot.spec_disabled:
                continue
            remaining = slot.request.max_new_tokens - len(slot.generated)
            k_cap = min(cfg.k, remaining - 1)
            if k_cap < 1:
                continue
            history = [int(t) for t in slot.request.prompt_ids]
            history += slot.generated
            drafts = [
                int(t) for t in cfg.drafter.propose(history, k_cap)
            ][:k_cap]
            if not drafts or any(t < 0 or t >= vocab for t in drafts):
                continue  # a bad drafter must not crash the verify embed
            spec_end = slot.position + 1 + len(drafts)
            if all(
                policy.supports_speculation(
                    slot.prompt_length, spec_end, spec_end
                )
                for policy in slot.policies
            ):
                plan[id(slot)] = drafts
        return plan

    def _speculative_decode(
        self,
        slots: List[SequenceSlot],
        plan: Dict[int, List[int]],
        finished: List[ServingResponse],
    ) -> List[SequenceSlot]:
        """Verify every planned draft chunk in one batched forward.

        Each slot's chunk is ``[last committed token] + drafts`` fed at
        positions ``slot.position ..`` — the first row is the token plain
        decode would feed this step, so its logits row is exactly the
        distribution the next plain sample would use, and the scan in
        :meth:`_accept_scan` can compare the target's greedy choice
        against each draft in turn.  If the forward dies, every policy's
        staged rows are rolled back (``commit_speculation(0)`` is
        idempotent for layers that never staged) and the slots fall back
        to plain decode next step via the replay queue — a stall, never a
        corruption.  Returns the slots the scan retired.
        """
        chunks = [[slot.generated[-1]] + plan[id(slot)] for slot in slots]
        try:
            logits_list = self.model.verify_steps_batched(
                chunks,
                [slot.position for slot in slots],
                [slot.policies for slot in slots],
            )
        except Exception:
            self._spec_aborts += 1
            for slot in slots:
                for policy in slot.policies:
                    self._spec_rollback_pages += policy.commit_speculation(0)
                slot.replay.append(slot.generated[-1])
            return []
        self._spec_steps += 1
        retired: List[SequenceSlot] = []
        for slot, logits in zip(slots, logits_list):
            if self._accept_scan(slot, plan[id(slot)], logits, finished):
                retired.append(slot)
        return retired

    def _accept_scan(
        self,
        slot: SequenceSlot,
        drafts: List[int],
        logits: np.ndarray,
        finished: List[ServingResponse],
    ) -> bool:
        """Commit the longest draft prefix the target agrees with.

        ``logits[j]`` is the distribution after feeding chunk row ``j``
        (row 0 = the already-committed token, row ``j>=1`` = draft
        ``j-1``), so ``argmax(logits[j])`` is precisely the token plain
        greedy decode would sample after that row.  The scan walks the
        drafts: a stop id finishes the sequence (kept rows = those plain
        decode fed); a mismatch commits the target's own token instead and
        queues it for next step's feed (the correction was emitted but
        never fed — the replay seam); a match commits the draft and keeps
        its already-fed row.  ``commit_speculation(kept)`` then applies
        the deferred per-layer bookkeeping for the kept rows and rolls the
        rest back out of the KV pool.  Returns ``True`` when the scan
        retired the sequence.
        """
        cfg = self.speculation
        m = len(drafts)
        kept = m + 1  # chunk rows surviving; all of them if fully accepted
        committed = 1  # tokens committed this step (row 0 counted)
        accepted = 0
        finish_reason: Optional[str] = None
        correction: Optional[int] = None
        for j in range(m):
            t_next = int(np.argmax(logits[j]))
            if t_next in slot.stop_set:
                kept = j + 1
                finish_reason = "stop"
                break
            slot.generated.append(t_next)
            if slot.request.keep_logits:
                slot.logits_history.append(
                    np.asarray(logits[j], dtype=np.float64)
                )
            if self.on_token is not None:
                self.on_token(slot.request_id, t_next, len(slot.generated))
            committed += 1
            if t_next != drafts[j]:
                kept = j + 1
                if len(slot.generated) >= slot.request.max_new_tokens:
                    finish_reason = "length"
                else:
                    correction = t_next
                break
            accepted += 1
            if len(slot.generated) >= slot.request.max_new_tokens:
                # The matched draft was emitted, but plain decode never
                # feeds a budget-exhausting token: its row rolls back.
                kept = j + 1
                finish_reason = "length"
                break
        else:
            slot.logits = logits[m]
        rollback_pages = 0
        for policy in slot.policies:
            rollback_pages += policy.commit_speculation(kept)
        slot.position += kept
        slot.spec_drafted += m
        slot.spec_accepted += accepted
        self._spec_chunks += 1
        self._spec_drafted += m
        self._spec_accepted += accepted
        self._spec_rollback_rows += (m + 1) - kept
        self._spec_rollback_pages += rollback_pages
        self._spec_tokens_per_step[committed] = (
            self._spec_tokens_per_step.get(committed, 0) + 1
        )
        if (
            not slot.spec_disabled
            and slot.spec_drafted >= cfg.disable_after
            and slot.spec_accepted < cfg.min_acceptance * slot.spec_drafted
        ):
            slot.spec_disabled = True
            self._spec_disabled_sequences += 1
        if finish_reason is not None:
            finished.append(self._finish(slot, finish_reason))
            return True
        if correction is not None:
            slot.replay.append(correction)
        return False

    def _park(self, slot: SequenceSlot) -> None:
        """Preempt one decode slot: snapshot, release every page, park.

        ``fed`` is derived as ``position - prompt_length`` — the number of
        generated tokens actually fed through the model, which is one
        short of ``len(generated)`` for a mid-step victim (its freshly
        sampled token never fed) and equal to it for a between-steps
        preemption.  The ``PolicyStats`` snapshot, taken *before* the
        release, copies the scalar fields into a new ``records`` list of
        the same :class:`~repro.core.policy.StepRecord` objects (never
        mutated once recorded), so the response's stats stay exact however
        many times the sequence bounces.
        """
        pre = PreemptedSequence(
            request=slot.request,
            prompt=[int(t) for t in slot.request.prompt_ids],
            generated=list(slot.generated),
            fed=slot.position - slot.prompt_length,
            logits_history=list(slot.logits_history),
            stats_snapshot=[
                replace(policy.stats, records=list(policy.stats.records))
                for policy in slot.policies
            ],
            admission_index=slot.admission_index,
            preemptions=slot.preemptions + 1,
        )
        self._preempted_pages_released += sum(
            policy.kv_pages_held() for policy in slot.policies
        )
        for policy in slot.policies:
            policy.release_kv()
        self._preemptions += 1
        self.scheduler.park(pre)

    def preempt(self, request_id: str) -> bool:
        """Forcibly preempt an *active* sequence between steps.

        The sequence's pages return to the arena immediately; it resumes
        through the normal preempted queue with token- and stats-identical
        output.  Returns ``False`` when ``request_id`` is not currently in
        the decode set (pending/prefilling/parked/completed sequences
        cannot be preempted).  Must be called from the stepping thread (or
        while it is quiescent) — it mutates the active set.
        """
        for slot in self.scheduler.active:
            if slot.request_id == request_id:
                self.scheduler.active.remove(slot)
                self._park(slot)
                return True
        return False

    def run(self) -> List[ServingResponse]:
        """Drive :meth:`step` until no work remains.

        Returns every completed response in submission order (including
        requests completed by earlier calls).
        """
        while self.has_work:
            self.step()
        with self._submit_lock:
            order = list(self._submission_order)
        # A concurrent submit_async landing after the final has_work check
        # stays queued for the next run; report only what completed.
        return [self._completed[rid] for rid in order if rid in self._completed]

    def run_until_idle(
        self,
        stop: Optional[threading.Event] = None,
        poll_interval: float = 0.05,
    ) -> List[ServingResponse]:
        """Serve continuously, picking up :meth:`submit_async` requests.

        The async-admission step loop: drives :meth:`step` while work
        exists and, when idle, *blocks* on the engine's work event — set
        by every :meth:`submit` / :meth:`submit_async` (and by
        :meth:`wake`), so a cross-thread submission is admitted
        immediately instead of waiting out a sleep/poll cycle.
        ``poll_interval`` only bounds how long an idle loop can take to
        notice ``stop`` being set without an accompanying :meth:`wake`.
        Returns once ``stop`` is set *and* all accepted work has drained;
        ``stop=None`` degrades to :meth:`run` (return at the first idle
        moment).

        Returns every completed response in submission order.
        """
        while True:
            if self.has_work:
                self.step()
                continue
            if stop is None or stop.is_set():
                break
            # Clear *before* re-checking: a submit landing between the
            # idle check above and the wait below sets the event after the
            # clear, so the wait returns immediately (no lost wakeup).
            self._work_event.clear()
            if self.has_work or stop.is_set():
                continue
            self._work_event.wait(timeout=poll_interval)
        with self._submit_lock:
            order = list(self._submission_order)
        # A request racing in between the final idle check and `stop` being
        # observed stays queued for the next serving loop; report only what
        # completed.
        return [self._completed[rid] for rid in order if rid in self._completed]

    def wake(self) -> None:
        """Wake an idle :meth:`run_until_idle` loop from another thread
        (e.g. right after setting its ``stop`` event)."""
        self._work_event.set()

    def response(self, request_id: str) -> Optional[ServingResponse]:
        """The completed response for ``request_id`` (or ``None`` if in flight)."""
        return self._completed.get(request_id)


__all__ = [
    "BatchedEngine",
    "SequenceSlot",
    "ServingRequest",
    "ServingResponse",
]
