"""Replicated serving: a cache-aware router over N engine workers.

One :class:`~repro.serving.engine.BatchedEngine` is the single-process
ceiling — its step loop, KV arena and prefix cache all live on one core.
:class:`EngineCluster` replicates the engine: N workers, each with its own
model handle, :class:`~repro.core.kv_pool.KVPoolGroup` and
:class:`~repro.serving.prefix_cache.PrefixCache`, behind a pluggable
:class:`Router`.  The cluster exposes the single-engine surface
(``submit``/``submit_async``, ``response``, ``on_token``,
``run_until_idle``/``wake``, ``drain``/``shutdown``, ``stats``), so the
workload harness and benchmarks drive a cluster exactly like one engine.

Routing policies
----------------
``round_robin``
    Cycle through healthy workers — the baseline every smarter policy
    must beat.
``least_pressure``
    Score each worker by outstanding sequences plus worst-layer KV-arena
    occupancy (:meth:`BatchedEngine.load`, a cheap thread-safe snapshot)
    and pick the lowest.  Ties break toward the lowest worker index.
``prefix_affinity``
    Consistent routing on the longest previously routed prompt prefix: a
    prompt that shares a prefix with an earlier request goes to the
    worker whose :class:`PrefixCache` (most likely) already holds that
    prefix, so the cache-hit machinery keeps paying off per worker
    instead of each worker cold-filling every tenant's system prompt.
    Falls back to least-pressure for novel prompts.  The router's sticky
    prefix → worker map is invalidated through
    :attr:`PrefixCache.on_evict` when a worker actually sheds an entry
    (LRU, byte budget or page pressure), so stickiness tracks what the
    workers still hold rather than what they were ever sent.

Execution modes
---------------
*Threaded* (production shape): :meth:`EngineCluster.start` gives each
worker a thread driving :meth:`BatchedEngine.run_until_idle`; submissions
land in the workers' locked pending queues and are admitted at their next
iteration boundaries.  :meth:`drain` / :meth:`shutdown` finish all
in-flight sequences before stopping.  A worker whose loop raises is
marked dead: its requests that have not emitted any token are resubmitted
to a healthy worker, started ones get a ``worker_died`` error response.

*Lockstep* (measurement shape): :meth:`EngineCluster.step` runs one
engine step on every live worker that has work; :meth:`run` drives
lockstep rounds to completion and counts them as *epochs*.  On real
deployments each worker owns a core, so wall-clock time is the slowest
worker's step count — exactly what epochs measure, deterministically and
independently of host core count or the GIL.  The scaling benchmark
(`benchmarks/bench_replicated_scaling.py`) gates on epochs for this
reason; see its docstring.

*Process* (``mode="process"``, the wall-clock shape): each worker is a
forked child process running its own engine loop
(:func:`_process_worker_main`), so N workers really run N numpy forwards
on N cores — no GIL serialization.  Requests travel to workers over a
``multiprocessing`` queue; per-token events and completed
:class:`ServingResponse` objects stream back over a per-worker event
queue drained by a parent-side pump thread (per-request token order is
preserved because a request lives on exactly one worker and its events
share one FIFO queue).  Each child allocates its ``PagedKVPool`` arenas
— and the per-page scale arrays of quantised codecs — in named POSIX
shared-memory segments via the
:class:`~repro.core.kv_pool.SharedArenaAllocator` seam, plus one small
telemetry block the child refreshes every step; the parent maps those
segments (:class:`~repro.core.kv_pool.AttachedArena`) and serves
:meth:`load` / page-utilization snapshots for routing straight from
shared memory — no RPC, no arena pickling.  ``stats()`` (heavyweight,
quiescence-only) goes over a lightweight RPC on the same queues.
Shutdown drains in-flight work, stops the children, and unlinks every
shared-memory segment; a child that dies uncleanly (even ``SIGKILL``)
is reaped by the parent, which sweeps the worker's segments by name
prefix — no leaked ``/dev/shm`` blocks either way.  Dead process
workers get the same treatment as dead threads: unstarted requests are
resubmitted to healthy workers, started ones fail with
``error_cause="worker_died"``.

Supervision and admission (:class:`RouterConfig`): ``restart_workers``
respawns a dead worker (thread or process) through ``engine_factory``
up to ``max_restarts`` times per worker slot, counted in
``stats()["restarts"]``; ``max_pending`` bounds the cluster's pending
depth, rejecting the excess with ``error_cause="cluster_overloaded"``
instead of queueing unboundedly.
"""

from __future__ import annotations

import itertools
import multiprocessing
import os
import pickle
import queue as _queue
import threading
import time
import weakref
from dataclasses import dataclass, field
from typing import (
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from ..core.kv_pool import (
    AttachedArena,
    SharedArenaAllocator,
    arena_allocator,
)
from .engine import (
    STATS_CONFIG_KEYS,
    STATS_PEAK_KEYS,
    STATS_RATIO_KEYS,
    BatchedEngine,
    ServingRequest,
    ServingResponse,
)
from .prefix_cache import common_prefix_length

WorkerLoad = Tuple[int, Dict[str, float]]
"""One routing candidate: ``(worker index, load snapshot)`` where the
snapshot is :meth:`BatchedEngine.load`'s dict."""


# ----------------------------------------------------------------------
# Stats aggregation (satellite: documented stable schema + merge)
# ----------------------------------------------------------------------
def merge_stats(stats_list: Sequence[Optional[Dict]]) -> Optional[Dict]:
    """Aggregate per-worker :meth:`BatchedEngine.stats` dicts into one.

    Merging follows the stable-schema key taxonomy declared next to
    :class:`BatchedEngine`:

    * plain numeric leaves are **summed** (they are counters or occupancy
      gauges — ``steps``, ``completed``, ``pages_in_use``, ...);
    * :data:`STATS_PEAK_KEYS` take the **max** (a high-water mark summed
      across workers would describe a burst no single arena ever saw);
    * :data:`STATS_CONFIG_KEYS` keep the **first** value (configuration
      echoes, assumed homogeneous across replicas);
    * :data:`STATS_RATIO_KEYS` are **recomputed from the summed
      components** where those are siblings in the same section
      (``hit_rate`` = hits/lookups, ``acceptance_rate`` =
      accepted/drafted, ``fp_page_fraction`` = fp-pages/pages-in-use) and
      otherwise averaged (``bytes_per_token``);
    * lists **concatenate**, nested dicts **recurse** (so
      ``failures_by_cause`` and the speculation tokens-per-step histogram
      sum per key), and optional sections merge over the workers that
      have them (``None`` only when every worker reports ``None``).

    ``stats_list`` entries that are ``None`` are skipped; an all-``None``
    (or empty) input returns ``None``.
    """
    present = [s for s in stats_list if s is not None]
    if not present:
        return None
    return _merge_dicts(present)


def _merge_dicts(dicts: Sequence[Dict]) -> Dict:
    out: Dict = {}
    for d in dicts:
        for key in d:
            if key not in out:
                out[key] = _merge_values(key, [e[key] for e in dicts if key in e])
    # Ratios recompute from their (now summed) sibling components.
    if "hit_rate" in out and "lookups" in out and "hits" in out:
        out["hit_rate"] = out["hits"] / out["lookups"] if out["lookups"] else 0.0
    if (
        "acceptance_rate" in out
        and "drafted_tokens" in out
        and "accepted_tokens" in out
    ):
        drafted = out["drafted_tokens"]
        out["acceptance_rate"] = (
            out["accepted_tokens"] / drafted if drafted else 0.0
        )
    if (
        "fp_page_fraction" in out
        and "fp_pages_in_use" in out
        and "pages_in_use" in out
    ):
        in_use = out["pages_in_use"]
        out["fp_page_fraction"] = (
            out["fp_pages_in_use"] / in_use if in_use else 0.0
        )
    return out


def _merge_values(key, values: Sequence) -> object:
    present = [v for v in values if v is not None]
    if not present:
        return None
    if key in STATS_CONFIG_KEYS:
        return present[0]
    if all(isinstance(v, dict) for v in present):
        return _merge_dicts(present)
    if all(isinstance(v, list) for v in present):
        return [item for v in present for item in v]
    if all(isinstance(v, bool) for v in present):
        return present[0]
    if all(isinstance(v, (int, float)) for v in present):
        if key in STATS_PEAK_KEYS:
            return max(present)
        if key in STATS_RATIO_KEYS:
            return sum(present) / len(present)
        return sum(present)
    return present[0]


# ----------------------------------------------------------------------
# Routers
# ----------------------------------------------------------------------
class Router:
    """Routing-policy seam: pick a worker for each submitted request.

    :meth:`route` is called by the cluster under its submission lock with
    the request and the ``(index, load)`` snapshots of every *healthy*
    worker (never empty).  The notification hooks let stateful routers
    track cluster events; the defaults are no-ops.
    """

    name = "router"

    def route(
        self, request: ServingRequest, candidates: Sequence[WorkerLoad]
    ) -> int:
        raise NotImplementedError

    def note_evicted(self, worker: int, key: Tuple[int, ...]) -> None:
        """Worker ``worker``'s prefix cache shed the entry for ``key``."""

    def note_worker_dead(self, worker: int) -> None:
        """Worker ``worker`` died; forget any affinity to it."""

    def stats(self) -> Dict[str, object]:
        return {}


class RoundRobinRouter(Router):
    """Cycle through healthy workers in index order."""

    name = "round_robin"

    def __init__(self) -> None:
        self._count = 0

    def route(
        self, request: ServingRequest, candidates: Sequence[WorkerLoad]
    ) -> int:
        index = candidates[self._count % len(candidates)][0]
        self._count += 1
        return index


class LeastPressureRouter(Router):
    """Pick the worker with the least outstanding work and page pressure.

    Score = ``queued`` (pending + prefilling + active + parked sequences)
    + ``page_weight`` × worst-layer arena occupancy, from the cheap
    :meth:`BatchedEngine.load` snapshot.  ``page_weight`` converts
    occupancy (``[0, 1]``) into sequence-equivalents: at the default 4.0
    a completely full arena weighs like four queued requests, so queue
    depth dominates until pages actually get scarce.  Ties break toward
    the lowest worker index (deterministic).
    """

    name = "least_pressure"

    def __init__(self, page_weight: float = 4.0) -> None:
        self.page_weight = float(page_weight)

    def route(
        self, request: ServingRequest, candidates: Sequence[WorkerLoad]
    ) -> int:
        best_index = candidates[0][0]
        best_score = None
        for index, load in candidates:
            score = (
                load["queued"] + self.page_weight * load["page_utilization"]
            )
            if best_score is None or score < best_score:
                best_score, best_index = score, index
        return best_index


class PrefixAffinityRouter(Router):
    """Sticky cache-aware routing on shared prompt prefixes.

    Keeps an LRU map of previously routed prompt key tuples → worker
    index.  A new prompt routes to the sticky worker of the longest
    recorded prompt it shares at least ``min_prefix_tokens`` tokens with
    (capped at ``len(prompt) - 1``, mirroring
    :meth:`PrefixCache.lookup` semantics — the final position is always
    recomputed, so a full-prompt match still reuses at most ``n-1``
    tokens); novel prompts fall back to ``fallback`` (least-pressure by
    default) and are then recorded.  The map is bounded by
    ``max_entries`` and invalidated by :meth:`note_evicted` when a
    worker's cache actually sheds an entry, so stickiness follows what
    workers still hold.

    Thread safety: the sticky map has its own lock because
    :meth:`note_evicted` fires from *worker* threads (inside the engine's
    admission path via :attr:`PrefixCache.on_evict`) while :meth:`route`
    runs on submitter threads.
    """

    name = "prefix_affinity"

    def __init__(
        self,
        min_prefix_tokens: int = 8,
        max_entries: int = 1024,
        fallback: Optional[Router] = None,
    ) -> None:
        if min_prefix_tokens < 1:
            raise ValueError("min_prefix_tokens must be >= 1")
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        self.min_prefix_tokens = int(min_prefix_tokens)
        self.max_entries = int(max_entries)
        self.fallback = fallback if fallback is not None else LeastPressureRouter()
        self._sticky: Dict[Tuple[int, ...], int] = {}
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._invalidations = 0

    def route(
        self, request: ServingRequest, candidates: Sequence[WorkerLoad]
    ) -> int:
        prompt = tuple(int(t) for t in request.prompt_ids)
        healthy = {index for index, _ in candidates}
        limit = len(prompt) - 1
        with self._lock:
            best_len = 0
            best_worker: Optional[int] = None
            for key, worker in self._sticky.items():
                if worker not in healthy:
                    continue
                shared = min(common_prefix_length(key, prompt), limit)
                if shared > best_len:
                    best_len, best_worker = shared, worker
            if best_worker is not None and best_len >= self.min_prefix_tokens:
                self._hits += 1
                self._record(prompt, best_worker)
                return best_worker
            self._misses += 1
        # Fallback outside the lock — it only reads the candidates.
        chosen = self.fallback.route(request, candidates)
        with self._lock:
            self._record(prompt, chosen)
        return chosen

    def _record(self, prompt: Tuple[int, ...], worker: int) -> None:
        """Remember (LRU-touch) ``prompt`` → ``worker``; lock held."""
        if len(prompt) <= self.min_prefix_tokens:
            return
        self._sticky.pop(prompt, None)
        self._sticky[prompt] = worker
        while len(self._sticky) > self.max_entries:
            self._sticky.pop(next(iter(self._sticky)))

    def note_evicted(self, worker: int, key: Tuple[int, ...]) -> None:
        with self._lock:
            stale = [
                entry
                for entry, w in self._sticky.items()
                if w == worker
                and common_prefix_length(entry, key) >= self.min_prefix_tokens
            ]
            for entry in stale:
                del self._sticky[entry]
            self._invalidations += len(stale)

    def note_worker_dead(self, worker: int) -> None:
        with self._lock:
            stale = [e for e, w in self._sticky.items() if w == worker]
            for entry in stale:
                del self._sticky[entry]

    def stats(self) -> Dict[str, object]:
        with self._lock:
            return {
                "sticky_entries": len(self._sticky),
                "affinity_hits": self._hits,
                "affinity_misses": self._misses,
                "invalidations": self._invalidations,
            }


ROUTERS: Dict[str, Callable[[], Router]] = {
    "round_robin": RoundRobinRouter,
    "least_pressure": LeastPressureRouter,
    "prefix_affinity": PrefixAffinityRouter,
}


def make_router(name: str) -> Router:
    """Build a fresh router by policy name (see :data:`ROUTERS`)."""
    try:
        return ROUTERS[name]()
    except KeyError:
        raise KeyError(
            f"unknown router {name!r}; known: {sorted(ROUTERS)}"
        ) from None


# ----------------------------------------------------------------------
# Supervision / admission configuration
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class RouterConfig:
    """Cluster supervision and admission knobs.

    restart_workers:
        Respawn a dead worker (thread or process) through the cluster's
        ``engine_factory`` instead of only rerouting its requests.  The
        replacement starts empty (its KV arena and prefix cache died with
        the worker) and becomes a routing candidate immediately — in
        particular for the dead worker's own zero-token resubmissions.
    max_restarts:
        Per-worker-slot respawn budget; a slot that exhausts it stays
        dead.  Restarts are counted in ``stats()["restarts"]``.
    max_pending:
        Bound on the cluster-wide pending depth (submitted but not yet
        completed).  A submit over the bound is *rejected* — it completes
        immediately with ``finish_reason="error"``,
        ``error_cause="cluster_overloaded"`` — rather than queued
        unboundedly; rejections are counted in
        ``stats()["overload_rejections"]``.  ``None`` disables the bound.
        Thread-mode depth comes from the live ``load()`` snapshot;
        process-mode depth is tracked parent-side exactly.
    """

    restart_workers: bool = False
    max_restarts: int = 2
    max_pending: Optional[int] = None

    def __post_init__(self) -> None:
        if self.max_restarts < 0:
            raise ValueError("max_restarts must be >= 0")
        if self.max_pending is not None and self.max_pending < 1:
            raise ValueError("max_pending must be >= 1 (or None)")


# ----------------------------------------------------------------------
# Process workers (tentpole: wall-clock parallelism over shared arenas)
# ----------------------------------------------------------------------
#: int64 slots of the per-worker shared-memory telemetry block the child
#: refreshes after every engine step (and while idle).  The parent reads
#: these — not an RPC — to build routing load snapshots:
#: [pending, prefilling, active, parked, queued, page_utilization_ppm,
#:  engine_steps, heartbeat].  Reads are racy across slots, exactly like
#: :meth:`BatchedEngine.load`, which is fine for load balancing.
_TELEMETRY_SLOTS = 8

#: Distinguishes the shared-memory namespaces of clusters living in the
#: same parent process.
_CLUSTER_SEQ = itertools.count()


def _write_telemetry(telemetry: np.ndarray, engine: BatchedEngine) -> None:
    load = engine.load()
    telemetry[0] = int(load["pending"])
    telemetry[1] = int(load["prefilling"])
    telemetry[2] = int(load["active"])
    telemetry[3] = int(load["parked"])
    telemetry[4] = int(load["queued"])
    telemetry[5] = int(load["page_utilization"] * 1_000_000)
    telemetry[6] = int(engine.step_count)
    telemetry[7] += 1


def _process_worker_main(
    index: int,
    engine_factory: Callable[[], BatchedEngine],
    request_queue,
    event_queue,
    arena_prefix: str,
) -> None:
    """Child-process worker loop (the process-mode ``_worker_main``).

    Builds the engine with its fixed KV arenas in shared memory, reports
    the segment manifest (``hello``), then serves: absorb ``submit`` /
    ``stats`` / ``stop`` messages from the request queue, step the
    engine while it has work, stream ``token`` events and completed
    ``response`` objects back, and refresh the shared telemetry block.
    On a clean stop it emits ``bye`` with final stats; on any failure it
    emits ``died``.  Either way the ``finally`` unlinks this worker's
    shared-memory segments (the parent sweeps by prefix as a fallback
    for hard kills that skip ``finally``).
    """
    allocator = SharedArenaAllocator(arena_prefix)
    try:
        with arena_allocator(allocator):
            engine = engine_factory()
        telemetry = allocator.zeros((_TELEMETRY_SLOTS,), np.int64)
        telemetry_name = allocator.segment_names[-1]

        def on_token(request_id: str, token_id: int, num_generated: int) -> None:
            event_queue.put(("token", request_id, int(token_id), int(num_generated)))

        engine.on_token = on_token
        event_queue.put(("hello", index, allocator.manifest(), telemetry_name))
        stopping = False
        while True:
            while True:
                try:
                    if engine.has_work or stopping:
                        message = request_queue.get_nowait()
                    else:
                        message = request_queue.get(timeout=0.05)
                except _queue.Empty:
                    break
                kind = message[0]
                if kind == "submit":
                    request = message[1]
                    try:
                        engine.submit_async(request)
                    except Exception as exc:
                        # Worker-side validation cannot propagate to the
                        # submitter across the process boundary; surface
                        # it as an error response instead.
                        event_queue.put((
                            "response",
                            index,
                            ServingResponse(
                                request_id=request.request_id,
                                token_ids=[],
                                prompt_length=len(request.prompt_ids),
                                finish_reason="error",
                                error=f"{type(exc).__name__}: {exc}",
                                error_cause="invalid_request",
                            ),
                        ))
                elif kind == "stats":
                    event_queue.put(("stats", index, engine.stats()))
                elif kind == "stop":
                    stopping = True
            if engine.has_work:
                for response in engine.step():
                    event_queue.put(("response", index, response))
                _write_telemetry(telemetry, engine)
            elif stopping:
                break
            else:
                _write_telemetry(telemetry, engine)
        event_queue.put(("bye", index, engine.stats()))
        event_queue.close()
        event_queue.join_thread()
    except BaseException as exc:
        try:
            event_queue.put(("died", index, f"{type(exc).__name__}: {exc}"))
            event_queue.close()
            event_queue.join_thread()
        except Exception:
            pass
    finally:
        allocator.unlink()
        allocator.close()


# ----------------------------------------------------------------------
# Cluster
# ----------------------------------------------------------------------
@dataclass
class WorkerHandle:
    """One replicated engine plus its health and thread bookkeeping.

    Thread/lockstep workers own an in-process ``engine``; process-mode
    workers own a child ``process`` plus the queues, pump thread and
    shared-memory attachments the parent talks to it through (``engine``
    is ``None`` — the real engine lives in the child)."""

    index: int
    engine: Optional[BatchedEngine]
    alive: bool = True
    error: Optional[str] = None
    thread: Optional[threading.Thread] = field(default=None, repr=False)
    stop: Optional[threading.Event] = field(default=None, repr=False)
    # --- process mode ---
    process: Optional[object] = field(default=None, repr=False)
    request_queue: Optional[object] = field(default=None, repr=False)
    event_queue: Optional[object] = field(default=None, repr=False)
    pump: Optional[threading.Thread] = field(default=None, repr=False)
    arena: Optional[AttachedArena] = field(default=None, repr=False)
    arena_prefix: Optional[str] = None
    telemetry: Optional[np.ndarray] = field(default=None, repr=False)
    hello: Optional[threading.Event] = field(default=None, repr=False)
    stats_event: Optional[threading.Event] = field(default=None, repr=False)
    stats_payload: Optional[Dict] = field(default=None, repr=False)
    last_stats: Optional[Dict] = field(default=None, repr=False)
    restarts: int = 0
    inflight: int = 0


class EngineCluster:
    """N replicated :class:`BatchedEngine` workers behind a :class:`Router`.

    Parameters
    ----------
    engine_factory:
        Zero-argument callable building one worker engine.  Called
        ``num_workers`` times; each worker must get its *own* model
        handle, ``KVPoolGroup`` and ``PrefixCache`` (replicas share
        nothing), which is what a fresh :class:`BatchedEngine` per call
        gives naturally.  The cluster owns each worker's ``on_token``
        and ``prefix_cache.on_evict`` seams (it installs wrappers; set
        :attr:`on_token` on the *cluster* instead).
    num_workers:
        Worker count (>= 1).
    router:
        Policy name (``"round_robin"`` / ``"least_pressure"`` /
        ``"prefix_affinity"``) or a :class:`Router` instance.
    mode:
        ``"thread"`` (default): in-process workers, threaded or lockstep
        execution.  ``"process"``: forked child processes with
        shared-memory KV arenas — the wall-clock-parallel shape (POSIX
        only; requires the ``fork`` start method so ``engine_factory``
        and per-engine policy factories need not be picklable).  Process
        workers start serving immediately; the lockstep surface is
        unavailable and :meth:`run` / :meth:`run_until_idle` degrade to
        :meth:`drain` semantics.  Per-*request* ``policy_factory``
        objects must be picklable in process mode (they travel over the
        request queue); engine-default policy factories are free to be
        closures.
    config:
        :class:`RouterConfig` supervision/admission knobs (restart
        supervision, bounded pending depth).

    The cluster assigns every request an explicit id (``req-c<n>`` when
    the caller did not choose one) before handing it to a worker, so ids
    are unique cluster-wide even though each worker allocates its own
    ``req-<n>`` ids when driven directly.

    Use either the threaded surface (:meth:`start` /
    :meth:`run_until_idle` / :meth:`drain` / :meth:`shutdown`) or the
    deterministic lockstep surface (:meth:`step` / :meth:`run`) — never
    both at once; :meth:`step` refuses while worker threads run.
    Process-mode clusters should always be :meth:`shutdown` (or used as
    a context manager, which shuts down even on exceptions) so child
    processes exit and shared-memory segments are unlinked; a GC'd or
    crashed parent falls back to a finalizer sweeping the cluster's
    segment prefix.
    """

    def __init__(
        self,
        engine_factory: Callable[[], BatchedEngine],
        num_workers: int,
        router: Union[str, Router] = "least_pressure",
        on_token: Optional[Callable[[str, int, int], None]] = None,
        mode: str = "thread",
        config: Optional[RouterConfig] = None,
    ) -> None:
        if num_workers < 1:
            raise ValueError("num_workers must be >= 1")
        if mode not in ("thread", "process"):
            raise ValueError(f"unknown mode {mode!r}; use 'thread' or 'process'")
        self.mode = mode
        self.config = config if config is not None else RouterConfig()
        self.router: Router = (
            make_router(router) if isinstance(router, str) else router
        )
        self.on_token = on_token
        self._engine_factory = engine_factory
        self._lock = threading.RLock()
        self._completion = threading.Condition(self._lock)
        self._ids = itertools.count()
        self._known_ids: set = set()
        self._submission_order: List[str] = []
        self._requests: Dict[str, ServingRequest] = {}
        self._rid_worker: Dict[str, int] = {}
        self._tokens_seen: Dict[str, int] = {}
        self._overrides: Dict[str, ServingResponse] = {}
        self._responses: Dict[str, ServingResponse] = {}
        self._done_ids: set = set()
        self._resubmissions = 0
        self._restarts = 0
        self._overload_rejections = 0
        self._epochs = 0
        self._threads_running = False
        self._closed = False
        self._wake_event = threading.Event()
        self._stats_lock = threading.Lock()
        self._workers: List[WorkerHandle] = []
        if mode == "process":
            if "fork" not in multiprocessing.get_all_start_methods():
                raise RuntimeError(
                    "mode='process' requires the 'fork' start method "
                    "(POSIX); use mode='thread' on this platform"
                )
            self._mp = multiprocessing.get_context("fork")
            self._arena_prefix = (
                f"repro-cluster-{os.getpid()}-{next(_CLUSTER_SEQ)}-"
            )
            # Crash fallback: if the parent dies without shutdown(), the
            # finalizer sweeps this cluster's segments by name prefix.
            self._finalizer = weakref.finalize(
                self, SharedArenaAllocator.unlink_by_prefix, self._arena_prefix
            )
            for index in range(num_workers):
                worker = WorkerHandle(index=index, engine=None)
                self._workers.append(worker)
                self._spawn_process_worker(worker)
        else:
            self._mp = None
            self._arena_prefix = None
            self._finalizer = None
            for index in range(num_workers):
                engine = engine_factory()
                worker = WorkerHandle(index=index, engine=engine)
                engine.on_token = self._make_on_token(index)
                if engine.prefix_cache is not None:
                    engine.prefix_cache.on_evict = self._make_on_evict(index)
                self._workers.append(worker)

    def __enter__(self) -> "EngineCluster":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.shutdown()
        return False

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def workers(self) -> Tuple[WorkerHandle, ...]:
        return tuple(self._workers)

    @property
    def num_workers(self) -> int:
        return len(self._workers)

    @property
    def alive_workers(self) -> int:
        return sum(1 for w in self._workers if w.alive)

    @property
    def has_work(self) -> bool:
        if self.mode == "process":
            with self._lock:
                return self._pending_depth() > 0
        return any(w.alive and w.engine.has_work for w in self._workers)

    @property
    def step_count(self) -> int:
        """Lockstep epochs driven so far (see the module docstring)."""
        return self._epochs

    def load(self) -> Dict[str, float]:
        """Cluster-wide load: per-key sums of the live workers' loads,
        except ``page_utilization`` which is the worst worker's."""
        out: Dict[str, float] = {}
        for worker in self._workers:
            if not worker.alive:
                continue
            for key, value in self._worker_load(worker).items():
                if key == "page_utilization":
                    out[key] = max(out.get(key, 0.0), value)
                else:
                    out[key] = out.get(key, 0) + value
        return out

    def _worker_load(self, worker: WorkerHandle) -> Dict[str, float]:
        """One worker's routing load snapshot.

        Thread/lockstep mode reads :meth:`BatchedEngine.load` directly.
        Process mode reads the worker's shared-memory telemetry block —
        no RPC round-trip — except ``queued``, which is the parent-side
        in-flight count (dispatched minus completed): the shared block
        lags by up to one engine step, and a burst of submissions must
        show up in routing scores *immediately* or the router would pile
        the whole burst onto one worker.
        """
        if self.mode != "process":
            return worker.engine.load()
        telemetry = worker.telemetry
        if telemetry is None:
            return {
                "pending": 0,
                "prefilling": 0,
                "active": 0,
                "parked": 0,
                "queued": worker.inflight,
                "page_utilization": 0.0,
                "steps": 0,
            }
        snapshot = [int(v) for v in telemetry]
        return {
            "pending": snapshot[0],
            "prefilling": snapshot[1],
            "active": snapshot[2],
            "parked": snapshot[3],
            "queued": worker.inflight,
            "page_utilization": snapshot[5] / 1_000_000,
            "steps": snapshot[6],
        }

    def stats(self) -> Dict[str, object]:
        """Aggregate telemetry: per-worker sections, the
        :func:`merge_stats` cluster-wide view, router and health counters.

        Like :meth:`BatchedEngine.stats`, call at quiescence (after
        :meth:`drain` or between lockstep steps).  Process-mode worker
        sections come from a stats RPC to each live worker (dead or
        stopped workers report their last known stats, captured at their
        ``bye``/most recent reply; ``None`` if they never replied)."""
        if self.mode == "process":
            worker_stats = [
                self._process_worker_stats(w) for w in self._workers
            ]
        else:
            worker_stats = [w.engine.stats() for w in self._workers]
        return {
            "num_workers": len(self._workers),
            "alive_workers": self.alive_workers,
            "dead_workers": [w.index for w in self._workers if not w.alive],
            "resubmissions": self._resubmissions,
            "restarts": self._restarts,
            "overload_rejections": self._overload_rejections,
            "epochs": self._epochs,
            "mode": self.mode,
            "router": {"policy": self.router.name, **self.router.stats()},
            "cluster": merge_stats(worker_stats),
            "workers": worker_stats,
        }

    # ------------------------------------------------------------------
    # Process-worker plumbing
    # ------------------------------------------------------------------
    def _spawn_process_worker(self, worker: WorkerHandle) -> None:
        """Fork a child for ``worker`` (initial spawn and restarts).

        Each generation gets its own shared-memory name prefix so the
        parent can sweep a crashed generation's segments without
        touching its replacement's."""
        prefix = f"{self._arena_prefix}w{worker.index}g{worker.restarts}-"
        worker.arena_prefix = prefix
        worker.request_queue = self._mp.Queue()
        worker.event_queue = self._mp.Queue()
        worker.hello = threading.Event()
        worker.stats_event = threading.Event()
        worker.stats_payload = None
        worker.arena = None
        worker.telemetry = None
        worker.inflight = 0
        worker.process = self._mp.Process(
            target=_process_worker_main,
            args=(
                worker.index,
                self._engine_factory,
                worker.request_queue,
                worker.event_queue,
                prefix,
            ),
            name=f"engine-worker-{worker.index}",
            daemon=True,
        )
        worker.process.start()
        worker.pump = threading.Thread(
            target=self._pump_main,
            args=(worker, worker.process, worker.event_queue),
            name=f"engine-pump-{worker.index}",
            daemon=True,
        )
        worker.pump.start()

    def _pump_main(self, worker: WorkerHandle, process, event_queue) -> None:
        """Parent-side event pump: drain one worker's event queue.

        One pump thread per worker (per generation — restarts get fresh
        queues and a fresh pump), so per-request token/response order is
        the child's emission order.  Returns on ``bye``/``died``, or
        after marking the worker dead when its process vanished without
        a farewell (crash/``SIGKILL``)."""
        while True:
            try:
                message = event_queue.get(timeout=0.1)
            except _queue.Empty:
                if process.is_alive():
                    continue
                # Process gone: give the queue feeder a moment to flush
                # a late farewell, then declare it dead.
                try:
                    message = event_queue.get(timeout=0.5)
                except _queue.Empty:
                    self._mark_dead(
                        worker,
                        RuntimeError(
                            "worker process exited uncleanly "
                            f"(exit code {process.exitcode})"
                        ),
                    )
                    return
            if self._dispatch_event(worker, message):
                return

    def _dispatch_event(self, worker: WorkerHandle, message: Tuple) -> bool:
        """Handle one child event; returns True when the pump should exit."""
        kind = message[0]
        if kind == "token":
            _, request_id, token_id, num_generated = message
            self._tokens_seen[request_id] = num_generated
            callback = self.on_token
            if callback is not None:
                callback(request_id, token_id, num_generated)
        elif kind == "response":
            response = message[2]
            with self._completion:
                self._responses[response.request_id] = response
                self._note_done(response.request_id)
                self._completion.notify_all()
            self._wake_event.set()
        elif kind == "hello":
            _, _, manifest, telemetry_name = message
            try:
                arena = AttachedArena(manifest)
            except FileNotFoundError:
                # The child crashed and unlinked before we attached; its
                # death is reported separately.
                arena = None
            worker.arena = arena
            if arena is not None:
                worker.telemetry = arena.arrays.get(telemetry_name)
            worker.hello.set()
        elif kind == "stats":
            worker.stats_payload = message[2]
            worker.stats_event.set()
        elif kind == "bye":
            worker.last_stats = message[2]
            return True
        elif kind == "died":
            self._mark_dead(worker, RuntimeError(message[2]))
            return True
        return False

    def _note_done(self, request_id: str) -> None:
        """First-completion bookkeeping (lock held): pending depth and
        the dispatching worker's in-flight count."""
        if request_id in self._done_ids:
            return
        self._done_ids.add(request_id)
        index = self._rid_worker.get(request_id)
        if index is not None:
            handle = self._workers[index]
            handle.inflight = max(0, handle.inflight - 1)

    def _pending_depth(self) -> int:
        """Submitted-but-uncompleted count (lock held).

        Exact in process mode (the parent observes every completion);
        thread/lockstep mode reads the live load snapshot, which counts
        queued work the instant ``submit`` hands it to an engine."""
        if self.mode == "process":
            return len(self._known_ids) - len(self._done_ids)
        return int(self.load().get("queued", 0))

    def _process_worker_stats(self, worker: WorkerHandle) -> Optional[Dict]:
        """Stats RPC to a live process worker; last known stats otherwise."""
        process = worker.process
        if (
            not worker.alive
            or process is None
            or not process.is_alive()
            or worker.request_queue is None
        ):
            return worker.last_stats
        with self._stats_lock:
            worker.stats_event.clear()
            try:
                worker.request_queue.put(("stats",))
            except Exception:
                return worker.last_stats
            if worker.stats_event.wait(timeout=60.0):
                worker.last_stats = worker.stats_payload
        return worker.last_stats

    def _reap_process_worker(self, worker: WorkerHandle) -> None:
        """Join a dead worker's process and release its shared memory
        (lock held).  The sweep-by-prefix covers children killed too
        hard to run their own unlink."""
        process = worker.process
        if process is not None:
            process.join(timeout=5.0)
            if process.is_alive():
                process.terminate()
                process.join(timeout=5.0)
        worker.process = None
        worker.telemetry = None
        if worker.arena is not None:
            worker.arena.close()
            worker.arena = None
        if worker.request_queue is not None:
            worker.request_queue.close()
            worker.request_queue.cancel_join_thread()
            worker.request_queue = None
        if worker.arena_prefix:
            SharedArenaAllocator.unlink_by_prefix(worker.arena_prefix)

    # ------------------------------------------------------------------
    # Worker seams
    # ------------------------------------------------------------------
    def _make_on_token(self, index: int) -> Callable[[str, int, int], None]:
        def on_token(request_id: str, token_id: int, num_generated: int) -> None:
            # Progress accounting for dead-worker resubmission decisions:
            # once a request has emitted tokens it cannot transparently
            # restart elsewhere.
            self._tokens_seen[request_id] = num_generated
            callback = self.on_token
            if callback is not None:
                callback(request_id, token_id, num_generated)

        return on_token

    def _make_on_evict(self, index: int) -> Callable[[Tuple[int, ...]], None]:
        def on_evict(key: Tuple[int, ...]) -> None:
            self.router.note_evicted(index, key)

        return on_evict

    # ------------------------------------------------------------------
    # Submission / responses (single-engine surface)
    # ------------------------------------------------------------------
    def submit(self, request: ServingRequest) -> str:
        """Route ``request`` to a worker; returns its cluster-unique id.

        Thread-safe.  Raises ``RuntimeError`` after :meth:`shutdown`,
        ``ValueError`` on duplicate explicit ids or invalid requests
        (worker-side validation propagates before any state is recorded).
        """
        with self._lock:
            if self._closed:
                raise RuntimeError("cluster is shut down")
            request_id = request.request_id
            if request_id is None:
                request_id = f"req-c{next(self._ids)}"
            if request_id in self._known_ids:
                raise ValueError(f"duplicate request id {request_id!r}")
            queued = ServingRequest(
                prompt_ids=request.prompt_ids,
                max_new_tokens=request.max_new_tokens,
                request_id=request_id,
                stop_ids=request.stop_ids,
                policy_factory=request.policy_factory,
                keep_logits=request.keep_logits,
                priority=request.priority,
                tenant=request.tenant,
            )
            # Admission backpressure: reject over the pending bound
            # instead of queueing unboundedly (the caller still gets a
            # response through the normal channel).
            max_pending = self.config.max_pending
            if max_pending is not None and self._pending_depth() >= max_pending:
                self._overload_rejections += 1
                self._known_ids.add(request_id)
                self._submission_order.append(request_id)
                self._requests[request_id] = queued
                self._tokens_seen[request_id] = 0
                self._overrides[request_id] = ServingResponse(
                    request_id=request_id,
                    token_ids=[],
                    prompt_length=len(queued.prompt_ids),
                    finish_reason="error",
                    error=(
                        f"cluster pending depth >= max_pending="
                        f"{max_pending}"
                    ),
                    error_cause="cluster_overloaded",
                )
                self._note_done(request_id)
                self._completion.notify_all()
                return request_id
            candidates = self._healthy_loads()
            if not candidates:
                raise RuntimeError("no healthy workers")
            if self.mode == "process" and queued.policy_factory is not None:
                try:
                    pickle.dumps(queued.policy_factory)
                except Exception as exc:
                    raise ValueError(
                        "process-mode clusters require a picklable "
                        "per-request policy_factory (it crosses the "
                        "worker process boundary); use a module-level "
                        "function or set the factory on the engine in "
                        "engine_factory instead"
                    ) from exc
            index = self.router.route(queued, candidates)
            worker = self._workers[index]
            if not self._routable(worker):
                # The worker died between its load snapshot and the
                # handoff (a process can vanish without raising in the
                # parent).  Mark it dead now and route around it rather
                # than waiting for the pump's next health sweep.
                self._mark_dead(
                    worker, RuntimeError("worker found dead at submit")
                )
                candidates = self._healthy_loads()
                if not candidates:
                    raise RuntimeError("no healthy workers")
                index = self.router.route(queued, candidates)
                worker = self._workers[index]
            # Worker-side validation (thread mode) runs before the
            # cluster records anything, so a rejected request leaves no
            # trace; process workers report validation failures as error
            # responses instead (exceptions cannot cross the boundary).
            self._dispatch(worker, queued)
            self._known_ids.add(request_id)
            self._submission_order.append(request_id)
            self._requests[request_id] = queued
            self._rid_worker[request_id] = index
            self._tokens_seen[request_id] = 0
        return request_id

    def _dispatch(self, worker: WorkerHandle, request: ServingRequest) -> None:
        """Hand a routed request to its worker (lock held)."""
        if self.mode == "process":
            worker.request_queue.put(("submit", request))
            worker.inflight += 1
        else:
            worker.engine.submit_async(request)

    def _routable(self, worker: WorkerHandle) -> bool:
        """Is the worker actually able to receive a request right now?

        Thread-mode workers die only through :meth:`_mark_dead` (the
        ``alive`` flag is authoritative); a process worker can be gone
        before the parent has noticed, so probe the process itself."""
        if not worker.alive:
            return False
        if self.mode == "process":
            process = worker.process
            return (
                process is not None
                and process.is_alive()
                and worker.request_queue is not None
            )
        return True

    def submit_async(self, request: ServingRequest) -> str:
        """Alias of :meth:`submit` (which is already thread-safe)."""
        return self.submit(request)

    def response(self, request_id: str) -> Optional[ServingResponse]:
        """The completed response for ``request_id`` (``None`` if in
        flight); cluster-level ``worker_died`` / ``cluster_overloaded``
        errors take precedence."""
        override = self._overrides.get(request_id)
        if override is not None:
            return override
        if self.mode == "process":
            return self._responses.get(request_id)
        index = self._rid_worker.get(request_id)
        if index is None:
            return None
        return self._workers[index].engine.response(request_id)

    def _healthy_loads(self) -> List[WorkerLoad]:
        return [
            (w.index, self._worker_load(w)) for w in self._workers if w.alive
        ]

    def _completed_in_order(self) -> List[ServingResponse]:
        with self._lock:
            order = list(self._submission_order)
        out = []
        for rid in order:
            response = self.response(rid)
            if response is not None:
                out.append(response)
        return out

    # ------------------------------------------------------------------
    # Worker health
    # ------------------------------------------------------------------
    def _mark_dead(self, worker: WorkerHandle, exc: BaseException) -> None:
        """Record a worker death, optionally respawn, reroute requests.

        Requests that never emitted a token restart cleanly on a healthy
        worker (the router picks it; counted in ``resubmissions``).
        Requests already mid-generation lost committed tokens with the
        worker, so they fail with ``error_cause="worker_died"`` — as do
        all unserved requests when no healthy worker remains.  With
        :attr:`RouterConfig.restart_workers` the slot is respawned
        through ``engine_factory`` *before* rerouting, so the (empty)
        replacement is a candidate for its predecessor's resubmissions.
        """
        with self._lock:
            if not worker.alive:
                return
            worker.alive = False
            worker.error = f"{type(exc).__name__}: {exc}"
            if self.mode == "process":
                self._reap_process_worker(worker)
            orphans = [
                rid
                for rid, index in self._rid_worker.items()
                if index == worker.index
                and rid not in self._overrides
                and self._worker_response(worker, rid) is None
            ]
            dead_error = worker.error
            self._maybe_restart(worker)
            for rid in orphans:
                queued = self._requests[rid]
                candidates = self._healthy_loads()
                if candidates and self._tokens_seen.get(rid, 0) == 0:
                    index = self.router.route(queued, candidates)
                    self._dispatch(self._workers[index], queued)
                    self._rid_worker[rid] = index
                    self._resubmissions += 1
                else:
                    self._overrides[rid] = ServingResponse(
                        request_id=rid,
                        token_ids=[],
                        prompt_length=len(queued.prompt_ids),
                        finish_reason="error",
                        error=f"worker {worker.index} died: {dead_error}",
                        error_cause="worker_died",
                    )
                    self._note_done(rid)
            self._completion.notify_all()
        # The replica's caches died with it either way — affinity state
        # for this slot is stale even if a fresh worker took it over.
        self.router.note_worker_dead(worker.index)

    def _worker_response(self, worker: WorkerHandle, rid: str) -> Optional[ServingResponse]:
        if self.mode == "process":
            return self._responses.get(rid)
        return worker.engine.response(rid)

    def _maybe_restart(self, worker: WorkerHandle) -> bool:
        """Respawn a dead worker slot if supervision allows (lock held)."""
        config = self.config
        if not config.restart_workers or self._closed:
            return False
        if worker.restarts >= config.max_restarts:
            return False
        worker.restarts += 1
        self._restarts += 1
        try:
            if self.mode == "process":
                self._spawn_process_worker(worker)
            else:
                engine = self._engine_factory()
                engine.on_token = self._make_on_token(worker.index)
                if engine.prefix_cache is not None:
                    engine.prefix_cache.on_evict = self._make_on_evict(
                        worker.index
                    )
                worker.engine = engine
                if self._threads_running:
                    worker.stop = threading.Event()
                    worker.thread = threading.Thread(
                        target=self._worker_main,
                        args=(worker,),
                        name=f"engine-worker-{worker.index}",
                        daemon=True,
                    )
                    worker.thread.start()
        except Exception as restart_exc:
            worker.error = (
                f"{worker.error}; restart failed: "
                f"{type(restart_exc).__name__}: {restart_exc}"
            )
            return False
        worker.alive = True
        worker.error = None
        return True

    # ------------------------------------------------------------------
    # Lockstep execution (deterministic; measurement + tests)
    # ------------------------------------------------------------------
    def step(self) -> int:
        """One lockstep round: every live worker with work takes one
        engine step.  Returns how many workers stepped (0 = idle); each
        non-empty round counts one *epoch*."""
        if self._threads_running:
            raise RuntimeError(
                "lockstep step() while worker threads are running; "
                "use the threaded surface or drain first"
            )
        if self.mode == "process":
            raise RuntimeError(
                "lockstep step() is unavailable in process mode: workers "
                "serve continuously in their own processes"
            )
        stepped = 0
        for worker in self._workers:
            if not worker.alive or not worker.engine.has_work:
                continue
            try:
                worker.engine.step()
            except Exception as exc:
                self._mark_dead(worker, exc)
                continue
            stepped += 1
        if stepped:
            self._epochs += 1
        return stepped

    def run(self) -> List[ServingResponse]:
        """Drive all submitted work to completion; returns every
        completed response in submission order.  Thread mode drives
        lockstep rounds (counting epochs); process workers serve
        continuously, so this just waits for completion."""
        if self.mode == "process":
            return self.drain()
        while self.step():
            pass
        return self._completed_in_order()

    # ------------------------------------------------------------------
    # Threaded execution (production shape)
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Give every live worker a thread driving ``run_until_idle``.

        Idempotent while running; restartable after :meth:`drain`.
        No-op in process mode (workers serve from the moment they fork).
        """
        if self.mode == "process":
            with self._lock:
                if self._closed:
                    raise RuntimeError("cluster is shut down")
            return
        with self._lock:
            if self._closed:
                raise RuntimeError("cluster is shut down")
            if self._threads_running:
                return
            self._threads_running = True
            workers = [w for w in self._workers if w.alive]
        for worker in workers:
            worker.stop = threading.Event()
            worker.thread = threading.Thread(
                target=self._worker_main,
                args=(worker,),
                name=f"engine-worker-{worker.index}",
                daemon=True,
            )
            worker.thread.start()

    def _worker_main(self, worker: WorkerHandle) -> None:
        try:
            worker.engine.run_until_idle(worker.stop)
        except Exception as exc:
            self._mark_dead(worker, exc)

    def _stop_threads(self) -> None:
        """Stop worker threads, letting each drain its accepted work
        (the engine loop honours ``stop`` only once idle), then serve
        any resubmissions that landed on already-stopped workers."""
        for worker in self._workers:
            if worker.thread is not None and worker.stop is not None:
                worker.stop.set()
                worker.engine.wake()
        for worker in self._workers:
            if worker.thread is not None:
                worker.thread.join(timeout=300.0)
                worker.thread = None
                worker.stop = None
        self._threads_running = False
        # Orphan drain: a death during shutdown may have rerouted work to
        # a worker whose thread had already exited.
        while self.step():
            pass

    def run_until_idle(
        self,
        stop: Optional[threading.Event] = None,
        poll_interval: float = 0.05,
    ) -> List[ServingResponse]:
        """Serve on worker threads until ``stop`` is set, then drain.

        Mirrors :meth:`BatchedEngine.run_until_idle` so trace replay
        (:func:`repro.serving.workload.run_workload`) can drive a cluster
        unchanged: returns once ``stop`` is set and all accepted work has
        finished, ``stop=None`` returns at the first idle moment.
        Returns every completed response in submission order.
        """
        if self.mode == "process":
            if stop is not None:
                while not stop.is_set():
                    self._wake_event.wait(timeout=poll_interval)
                    self._wake_event.clear()
            return self.drain()
        self.start()
        if stop is None:
            while self.has_work:
                time.sleep(poll_interval)
        else:
            while not stop.is_set():
                self._wake_event.wait(timeout=poll_interval)
                self._wake_event.clear()
        self._stop_threads()
        return self._completed_in_order()

    def wake(self) -> None:
        """Wake a blocked :meth:`run_until_idle` (e.g. after ``stop``)."""
        self._wake_event.set()
        if self.mode == "process":
            return
        for worker in self._workers:
            worker.engine.wake()

    def drain(self) -> List[ServingResponse]:
        """Finish all accepted work; returns completed responses in
        submission order.  Thread mode stops worker threads (restartable
        afterwards); process workers keep serving (idle) and accept new
        submissions until :meth:`shutdown`."""
        if self.mode == "process":
            with self._completion:
                while self._pending_depth() > 0:
                    if not any(self._routable(w) for w in self._workers):
                        # Every remaining request belongs to a dead
                        # worker; _mark_dead settles them as it runs.
                        if not any(w.alive for w in self._workers):
                            break
                    self._completion.wait(timeout=0.1)
            return self._completed_in_order()
        if self._threads_running:
            self._stop_threads()
        else:
            while self.step():
                pass
        return self._completed_in_order()

    def shutdown(self) -> List[ServingResponse]:
        """Graceful shutdown: :meth:`drain`, then refuse new submissions.

        Process mode additionally stops the child processes (each
        finishes its in-flight work first), joins them and their pumps,
        and releases every shared-memory segment — the parent's sweep by
        name prefix covers any child that died too hard to unlink its
        own.  Idempotent."""
        with self._lock:
            already_closed = self._closed
            self._closed = True
        if self.mode != "process":
            return self.drain()
        responses = self.drain()
        if already_closed and all(w.process is None for w in self._workers):
            return responses
        for worker in self._workers:
            if worker.request_queue is not None and self._routable(worker):
                try:
                    worker.request_queue.put(("stop",))
                except Exception:
                    pass
        for worker in self._workers:
            process = worker.process
            if process is not None:
                process.join(timeout=60.0)
                if process.is_alive():
                    process.terminate()
                    process.join(timeout=10.0)
                worker.process = None
        for worker in self._workers:
            pump = worker.pump
            if pump is not None:
                pump.join(timeout=10.0)
                worker.pump = None
            worker.telemetry = None
            if worker.arena is not None:
                worker.arena.close()
                worker.arena = None
            if worker.request_queue is not None:
                worker.request_queue.close()
                worker.request_queue.cancel_join_thread()
                worker.request_queue = None
        if self._arena_prefix:
            SharedArenaAllocator.unlink_by_prefix(self._arena_prefix)
        if self._finalizer is not None:
            self._finalizer.detach()
            self._finalizer = None
        return responses


__all__ = [
    "EngineCluster",
    "LeastPressureRouter",
    "PrefixAffinityRouter",
    "ROUTERS",
    "RoundRobinRouter",
    "Router",
    "RouterConfig",
    "WorkerHandle",
    "make_router",
    "merge_stats",
]
