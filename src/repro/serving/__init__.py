"""Batched multi-sequence serving on top of the policy-managed substrate.

The request lifecycle of :class:`~repro.serving.engine.BatchedEngine` is

    ``submit()`` queue -> scheduled (chunked) prefill -> continuous decode
                                   ^                          |
                                   +---- preempted (parked) <-+

Scheduling is iteration-level (:mod:`repro.serving.scheduler`): every
engine step the :class:`~repro.serving.scheduler.Scheduler` emits one
:class:`~repro.serving.scheduler.ScheduleBatch` of decode slots (every
active sequence advances one token, ordered so same-policy sequences are
contiguous) plus prefill chunks under a ``max_tokens_per_step`` token
budget, so a long prompt is absorbed a chunk at a time between decode
steps and in-flight sequences never stall behind it.  Requests sharing a
prompt prefix reuse each other's prefill through a
:class:`~repro.serving.prefix_cache.PrefixCache` (per-layer K/V pool
pages and prefill query rows, keyed by prompt ids; entries
reference the inserting sequence's own pool pages).  Admitted
sequences decode continuously — many independent sequences per step with
per-sequence KV cache policies, mid-flight admission and per-sequence stop
conditions.  Under KV page pressure a victim sequence is *preempted* —
its pages released, its tokens parked — and later resumed through the
chunked-prefill path with token- and stats-identical output
(:class:`~repro.serving.scheduler.PreemptedSequence`), instead of failing
closed.  With a :class:`~repro.serving.speculation.SpeculationConfig` the
engine runs *speculative decoding*: a cheap drafter proposes up to ``k``
tokens per sequence per step, one batched verify forward checks them all,
and the accepted prefix commits several tokens per step — token- and
stats-identical to plain greedy decode, with rejected draft rows rolled
back out of the paged KV store.  Multi-tenant traces that drive the stack
into these regimes live in :mod:`repro.serving.workload`.  Above the
single engine, :mod:`repro.serving.cluster` replicates it: an
:class:`~repro.serving.cluster.EngineCluster` runs N workers (each with
its own arena and prefix cache) behind a pluggable
:class:`~repro.serving.cluster.Router` (round-robin / least-pressure /
cache-aware prefix-affinity) while exposing this same engine surface, so
aggregate request throughput scales with worker count; with
``mode="process"`` the workers are forked processes whose KV arenas live
in shared memory, turning that scaling from lockstep epochs into
wall-clock across cores.  Single-sequence generation
(:func:`repro.llm.generation.greedy_generate`) and the accuracy harness
(:mod:`repro.eval.harness`) both route through the engine.
"""

from .cluster import (
    EngineCluster,
    LeastPressureRouter,
    PrefixAffinityRouter,
    RoundRobinRouter,
    Router,
    RouterConfig,
    WorkerHandle,
    make_router,
    merge_stats,
)
from .engine import BatchedEngine, SequenceSlot, ServingRequest, ServingResponse
from .prefix_cache import PrefixCache, PrefixCacheStats, SequencePrefix
from .scheduler import (
    PreemptedSequence,
    PrefillChunk,
    PrefillingSequence,
    ScheduleBatch,
    Scheduler,
    SchedulerPolicy,
)
from .speculation import (
    Drafter,
    InductionDrafter,
    NGramDrafter,
    SpeculationConfig,
)
from .workload import (
    SCENARIOS,
    Scenario,
    ServingBackend,
    TenantReport,
    TenantSpec,
    TraceRequest,
    WorkloadReport,
    WorkloadSpec,
    generate_trace,
    get_scenario,
    replay,
    run_workload,
)

__all__ = [
    "BatchedEngine",
    "Drafter",
    "EngineCluster",
    "InductionDrafter",
    "LeastPressureRouter",
    "NGramDrafter",
    "PreemptedSequence",
    "PrefillChunk",
    "PrefillingSequence",
    "PrefixAffinityRouter",
    "PrefixCache",
    "PrefixCacheStats",
    "RoundRobinRouter",
    "Router",
    "RouterConfig",
    "SCENARIOS",
    "Scenario",
    "ScheduleBatch",
    "Scheduler",
    "SchedulerPolicy",
    "SequencePrefix",
    "SequenceSlot",
    "ServingBackend",
    "ServingRequest",
    "ServingResponse",
    "SpeculationConfig",
    "TenantReport",
    "TenantSpec",
    "TraceRequest",
    "WorkerHandle",
    "WorkloadReport",
    "WorkloadSpec",
    "generate_trace",
    "get_scenario",
    "make_router",
    "merge_stats",
    "replay",
    "run_workload",
]
