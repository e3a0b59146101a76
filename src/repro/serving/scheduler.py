"""Iteration-level scheduling: chunked prefill co-scheduled with decode.

Until this subsystem existed, :class:`~repro.serving.engine.BatchedEngine`
prefilled an entire admission wave before any in-flight sequence got its
next token — one long prompt froze every active decode (head-of-line
blocking).  The :class:`Scheduler` fixes that with Sarathi/Orca-style
iteration-level scheduling: every engine step it emits one
:class:`ScheduleBatch` containing

* **decode slots** — every active sequence advances one token, every step,
  unconditionally (decode never waits for prefill), ordered so that
  same-policy sequences are contiguous (*policy-homogeneous grouping*):
  each span then executes its selector/eviction/attention math as one
  vectorized ``decode_step_group`` call per layer (see
  :mod:`repro.core.group_decode`) instead of per-sequence ``decode_step``
  loops; and
* **prefill chunks** — each in-flight prompt contributes at most the token
  budget left after decode (``SchedulerPolicy.max_tokens_per_step`` minus
  one token per active sequence), so a 10k-token prompt is absorbed over
  many steps instead of stalling the step it arrives in.

``max_tokens_per_step=None`` (the default) disables chunking: prompts are
prefilled whole at admission, reproducing the classic wave behaviour.
Generated tokens and ``PolicyStats`` are chunk-size-invariant for every
policy (asserted across all seven in the test suite), so the budget is a
pure latency/throughput knob.

Admission control
-----------------
The scheduler also owns page-gated admission, with *allocated-so-far*
accounting that is tighter than the previous worst-case lifetime
reservations: per layer it maintains

    ``sum over admitted sequences of remaining_kv_pages() <= free pages``

where :meth:`~repro.core.policy.KVCachePolicy.remaining_kv_pages` counts
only the pages a policy could still *allocate* (its worst case minus pages
already held, plus one per held shared page for potential copy-on-write
splits).  Every allocation a sequence makes moves one page from the free
list while shrinking that sequence's remaining demand, so the inequality —
and with it the run-to-completion guarantee — is preserved as the batch
runs, while the slack between a request's admission-time worst case and
what it actually holds is returned to the admission budget the moment its
prefill lands.  The reclaimed slack is reported as ``reservation_delta``
in :meth:`BatchedEngine.stats`.

Admission counts *pages*, which are codec-independent — a page holds the
same ``page_size`` tokens whether the arena stores fp64 or quantised
int8/int4 rows.  Storage precision enters only through pool sizing: at a
fixed byte budget a quantised codec affords ~4x/8x the pages
(:meth:`~repro.core.kv_pool.KVPoolGroup.from_byte_budget`), so the same
admission inequality admits proportionally more concurrent sequences.

A request that cannot fit *now* waits in the queue (``page_deferrals``);
the policies built to probe it are held and reused while it stays the
blocked head, so a waiting head costs a demand check per step, not a
policy rebuild.  One that could never fit — even after shedding
prefix-cache pages — fails closed with
``error_cause="admission_infeasible"``.  Requests whose best
prefix match is a prompt still being prefilled are deferred until that
prefill publishes its cache entry, so a shared prefix is computed exactly
once (the former intra-wave deferral, generalised to chunked prefill).

``SchedulerPolicy.admission`` picks the accounting: ``"reserve"`` (the
default, above) guarantees run-to-completion for everything admitted,
while ``"optimistic"`` admits on near-term demand (prefill now, one page
of decode headroom) after a feasibility pre-check, packing more
concurrency into the arena and relying on preemption to absorb the
pressure when decodes grow.

Preemption (``SchedulerPolicy.preemption``, default on)
-------------------------------------------------------
When decode-time page pressure cannot be relieved by shedding prefix-cache
entries, the scheduler picks a victim (:meth:`Scheduler.select_victim`:
``"recency"`` — newest admission, ``"priority"`` — lowest
``ServingRequest.priority`` then newest, or ``"fairness"`` — most pages
held), the engine releases its pages and parks it as a
:class:`PreemptedSequence` on a FCFS queue that is resumed *ahead of* new
admissions through the ordinary chunked-prefill path — exact re-prefill
of prompt+generated when every layer policy certifies
:meth:`~repro.core.policy.KVCachePolicy.exact_resume_by_reprefill`,
otherwise prompt re-prefill plus deterministic decode replay of the
generated tokens.  Resumed output is token- and stats-identical to an
uninterrupted run.  With ``preemption=False`` the old fail-closed
behaviour is restored (``error_cause="decode_page_exhaustion"``).
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Callable,
    Deque,
    Dict,
    List,
    Optional,
    Tuple,
)

from ..core.group_decode import GroupDecodeStats, policy_group_key
from ..core.kv_pool import KVPoolGroup, PoolExhaustedError
from ..core.policy import KVCachePolicy, PolicyStats
from .prefix_cache import PrefixCache, SequencePrefix, common_prefix_length

if TYPE_CHECKING:  # imported lazily to avoid cycles
    from ..llm.model import PrefillState, TransformerLM
    from .engine import SequenceSlot, ServingRequest


@dataclass
class SchedulerPolicy:
    """Knobs of the iteration-level scheduler.

    Attributes
    ----------
    max_tokens_per_step:
        Token budget of one engine step.  Each active decode sequence
        consumes one token; the remainder is handed to prefill chunks in
        submission order.  ``None`` disables chunking (whole-prompt
        prefill at admission).
    min_prefill_tokens_per_step:
        Floor on prefill progress when active decodes fill (or exceed) the
        budget, so a saturated decode batch cannot starve prefill forever.
        Ignored when nothing is prefilling.
    preemption:
        Page pressure during decode preempts a victim (pages released,
        sequence parked and later resumed token-identically) instead of
        failing it closed with ``finish_reason="error"``.  ``False``
        restores the fail-closed behaviour — kept as the baseline the
        preemption goodput benchmark measures against.
    victim:
        Which active sequence is preempted under page pressure:
        ``"recency"`` (newest admission first — oldest work is protected,
        which is also what guarantees global progress), ``"priority"``
        (lowest :attr:`ServingRequest.priority` first, newest-admitted
        among equals) or ``"fairness"`` (most pool pages held first, so
        one page-hungry sequence cannot squeeze everyone else out).
    admission:
        Page-gating mode.  ``"reserve"`` (default) admits only when the
        request's worst-case *lifetime* demand fits the free pages —
        sequences then run to completion without ever hitting pressure.
        ``"optimistic"`` admits when the *prefill* demand fits and only
        requires the lifetime worst case to fit the whole arena
        (feasibility alone): concurrency is higher, decode-time pressure
        becomes real, and preemption (or the fail-closed path) absorbs
        it.  This is the overload regime the workload harness drives.
    """

    max_tokens_per_step: Optional[int] = None
    min_prefill_tokens_per_step: int = 1
    preemption: bool = True
    victim: str = "recency"
    admission: str = "reserve"

    def __post_init__(self) -> None:
        if self.max_tokens_per_step is not None and self.max_tokens_per_step < 1:
            raise ValueError("max_tokens_per_step must be >= 1 (or None)")
        if self.min_prefill_tokens_per_step < 0:
            raise ValueError("min_prefill_tokens_per_step must be >= 0")
        if self.victim not in ("recency", "priority", "fairness"):
            raise ValueError(
                "victim must be 'recency', 'priority' or 'fairness'"
            )
        if self.admission not in ("reserve", "optimistic"):
            raise ValueError("admission must be 'reserve' or 'optimistic'")


@dataclass(eq=False)
class PreemptedSequence:
    """A mid-decode sequence parked after its pages were released.

    Everything needed to resume token-identically from nothing but ids:
    ``generated`` are the tokens already emitted (all of them — they are
    part of the response), of which the first ``fed`` had actually been
    fed through the model when the preemption hit (a decode-pressure
    victim is parked with its freshly sampled token still unfed).
    ``stats_snapshot`` holds a copy of the per-layer
    :class:`~repro.core.policy.PolicyStats` at the preemption point (its
    scalar fields plus a new ``records`` list; a recorded
    :class:`~repro.core.policy.StepRecord` is never mutated): the
    fast re-prefill resume restores it wholesale; the replay resume
    regenerates everything except ``prefill_reused_tokens`` (a resume may
    see different prefix-cache contents) and patches that one field.
    ``admission_index`` is preserved so victim selection keeps treating
    resumed work as old work — which is what makes progress monotone.
    """

    request: "ServingRequest"
    prompt: List[int]
    generated: List[int]
    fed: int
    logits_history: List
    stats_snapshot: List[PolicyStats]
    admission_index: int
    preemptions: int = 1


@dataclass(eq=False)
class PrefillingSequence:
    """An admitted request whose prompt is not fully prefilled yet.

    ``done`` counts prompt tokens covered so far (including a reused
    prefix); ``state`` is the model-layer accumulated
    :class:`~repro.llm.model.PrefillState` threading chunk iterations.
    ``initial_demand`` is the page-credit-adjusted admission demand used
    for page accounting until the first chunk lands (after which the
    policies' own allocated-so-far accounting takes over);
    ``worst_case_pages`` is the admission-time worst case kept for the
    ``reservation_delta`` telemetry.

    A resuming preempted sequence re-enters the engine as a
    ``PrefillingSequence`` whose ``resume`` payload carries the generated
    tokens: ``prompt`` is then what gets *prefilled* — the original
    prompt plus the already-fed tokens when every layer policy supports
    the exact re-prefill resume (``reprefill_resume=True``), or just the
    original prompt when the generated tokens must be replayed through
    the decode path instead.
    """

    request: "ServingRequest"
    prompt: List[int]
    policies: List[KVCachePolicy]
    prefix: Optional[SequencePrefix] = None
    state: Optional["PrefillState"] = None
    done: int = 0
    chunks_taken: int = 0
    initial_demand: List[int] = field(default_factory=list)
    worst_case_pages: List[int] = field(default_factory=list)
    resume: Optional[PreemptedSequence] = None
    reprefill_resume: bool = False

    @property
    def started(self) -> bool:
        return self.state is not None and self.state.fed > 0

    @property
    def tokens_left(self) -> int:
        return len(self.prompt) - self.done


@dataclass
class PrefillChunk:
    """One scheduled span of one sequence's prompt."""

    seq: PrefillingSequence
    tokens: List[int]
    final: bool


@dataclass
class ScheduleBatch:
    """What one engine step executes: prefill chunks, then decode slots.

    ``decode``/``decode_groups`` are filled by :meth:`Scheduler.decode_plan`
    *after* the chunks ran — sequences whose final chunk lands this step
    join the decode set the same step, so the executed decode order (and
    its policy-homogeneous grouping) can only be known post-prefill.
    ``failures`` are requests that failed admission (bad policy factory,
    infeasible page demand) for the engine to complete as error
    responses.
    """

    prefill: List[PrefillChunk] = field(default_factory=list)
    decode: List["SequenceSlot"] = field(default_factory=list)
    decode_groups: List[Tuple[str, int, int]] = field(default_factory=list)
    failures: List[Tuple["ServingRequest", Exception]] = field(default_factory=list)


# ``policy_group_key`` now lives with the batched group-decode machinery in
# :mod:`repro.core.group_decode`; the import above keeps the serving-layer
# path (`repro.serving.scheduler.policy_group_key`) working.


class Scheduler:
    """Owns the request queue, in-flight prefills and active decode set.

    The engine's ``step()`` is a thin execution loop around this class:
    ``next_batch()`` performs admission (policy construction, prefix
    lookup/deferral, page gating) and chunk budgeting; the engine runs the
    returned work against the model and reports transitions back via
    :meth:`promote` / :meth:`remove_prefilling` / :meth:`set_active`.
    """

    def __init__(
        self,
        model: "TransformerLM",
        policy: SchedulerPolicy,
        default_policy_factory,
        max_batch_size: Optional[int],
        kv_pools: KVPoolGroup,
        prefix_cache: Optional[PrefixCache],
    ) -> None:
        self.model = model
        self.policy = policy
        self.default_policy_factory = default_policy_factory
        self.max_batch_size = max_batch_size
        self.kv_pools = kv_pools
        self.prefix_cache = prefix_cache
        self._pending: Deque["ServingRequest"] = deque()
        # Async admission seam: ``enqueue`` may be called from another
        # thread while the engine's step loop runs, so every ``_pending``
        # mutation goes through this lock.  Everything else remains
        # single-threaded (owned by the stepping thread).
        self._pending_lock = threading.Lock()
        self._prefilling: List[PrefillingSequence] = []
        self._active: List["SequenceSlot"] = []
        # Sequences preempted mid-decode: pages released, tokens kept.
        # A deque because resumption is FCFS from the front — parked work
        # is strictly older than anything in ``_pending`` and re-acquires
        # pages first (anti-starvation).
        self._preempted: Deque[PreemptedSequence] = deque()
        # Per queue, the head its last probe left waiting for pages, with
        # the policies built for that probe: re-probing the same head
        # reuses them instead of rebuilding them every step, and any
        # probe drops them.  Matched by identity on a strong reference
        # (an ``id()`` can be reused after collection).  A built policy
        # is only bound to its pool, so a held one pins no page.
        self._held_request: Optional[
            Tuple["ServingRequest", List[KVCachePolicy]]
        ] = None
        self._held_resume: Optional[
            Tuple[PreemptedSequence, List[KVCachePolicy]]
        ] = None
        # telemetry
        self._page_deferrals = 0
        self._infeasible_failures = 0
        self._prefill_chunks_scheduled = 0
        self._prefill_tokens_scheduled = 0
        self._chunked_prompts = 0
        self._budget_throttled_steps = 0
        self._last_decode_groups: List[Tuple[str, int, int]] = []
        self._grouped_decode_steps = 0
        # Cumulative group-decode dispatch counters (the model layer
        # accumulates into this record every step; unlike
        # ``decode_groups``, which only reflects the last step, these
        # survive across steps).
        self.group_decode = GroupDecodeStats()
        # Optional per-slot decode token estimate installed by the engine
        # when speculative decoding is on: an eligible slot's verify chunk
        # consumes up to ``1 + k`` forward tokens, which the chunked
        # prefill budget must reserve instead of one token per slot.
        self.decode_token_estimate: Optional[
            Callable[["SequenceSlot"], int]
        ] = None

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def num_pending(self) -> int:
        return len(self._pending)

    @property
    def num_prefilling(self) -> int:
        return len(self._prefilling)

    @property
    def active(self) -> List["SequenceSlot"]:
        return self._active

    @property
    def num_preempted(self) -> int:
        return len(self._preempted)

    @property
    def has_work(self) -> bool:
        return bool(
            self._pending or self._prefilling or self._active or self._preempted
        )

    @property
    def page_deferrals(self) -> int:
        return self._page_deferrals

    @property
    def infeasible_failures(self) -> int:
        return self._infeasible_failures

    def stats(self) -> Dict[str, object]:
        """Scheduler telemetry.  ``decode_groups`` reflects only the last
        step's spans; ``group_calls`` / ``fallback_calls`` /
        ``vectorized_sequences`` are the *cumulative* group-decode dispatch
        counters (vectorized span calls per layer, per-sequence
        ``decode_step`` dispatches, and sequence-steps served vectorized),
        durable across steps.  Single-sequence decode steps ride the
        bit-exact serial path and are not counted."""
        return {
            "max_tokens_per_step": self.policy.max_tokens_per_step,
            "prefill_chunks_scheduled": self._prefill_chunks_scheduled,
            "prefill_tokens_scheduled": self._prefill_tokens_scheduled,
            "chunked_prompts": self._chunked_prompts,
            "budget_throttled_steps": self._budget_throttled_steps,
            "decode_groups": list(self._last_decode_groups),
            "grouped_decode_steps": self._grouped_decode_steps,
            "group_calls": self.group_decode.group_calls,
            "fallback_calls": self.group_decode.fallback_calls,
            "vectorized_sequences": self.group_decode.vectorized_sequences,
        }

    # ------------------------------------------------------------------
    # Queue / lifecycle transitions (driven by the engine)
    # ------------------------------------------------------------------
    def enqueue(self, request: "ServingRequest") -> None:
        """Queue a request for admission (thread-safe).

        This is the async-admission seam: an admission thread only needs
        to feed this queue — the stepping thread drains it at the next
        iteration boundary (:meth:`next_batch`), so no other scheduler
        state is ever touched concurrently.
        """
        with self._pending_lock:
            self._pending.append(request)

    def promote(self, seq: PrefillingSequence, slot: "SequenceSlot") -> None:
        """Move a fully prefilled sequence into the decode set."""
        self._prefilling.remove(seq)
        self._active.append(slot)

    def park(self, pre: PreemptedSequence) -> None:
        """Append a preempted sequence to the resume queue."""
        self._preempted.append(pre)

    def requeue_request_front(self, request: "ServingRequest") -> None:
        """Put a request back at the *head* of the pending queue.

        Used when a prefill ran out of pool pages mid-chunk: the request
        lost its policies and partial state but keeps its place in line.
        """
        with self._pending_lock:
            self._pending.appendleft(request)

    def requeue_preempted_front(self, pre: PreemptedSequence) -> None:
        """Put a resume payload back at the head of the preempted queue
        (its resume prefill could not complete; it retries first)."""
        self._preempted.appendleft(pre)

    def select_victim(self, slots: List["SequenceSlot"]) -> "SequenceSlot":
        """Pick which active sequence to preempt under page pressure.

        ``recency`` protects the oldest admission — together with
        front-of-queue resume this gives a global progress guarantee (the
        oldest sequence is never preempted, so *some* request always runs
        to completion).  ``priority`` sacrifices the lowest
        :attr:`ServingRequest.priority` (newest-admitted among equals);
        ``fairness`` sacrifices the sequence holding the most pool pages
        (newest among equals), spreading pressure away from page hogs.
        """
        mode = self.policy.victim
        if mode == "priority":
            return min(
                slots,
                key=lambda s: (s.request.priority, -s.admission_index),
            )
        if mode == "fairness":
            return max(
                slots,
                key=lambda s: (
                    sum(policy.kv_pages_held() for policy in s.policies),
                    s.admission_index,
                ),
            )
        return max(slots, key=lambda s: s.admission_index)

    def remove_prefilling(self, seq: PrefillingSequence) -> None:
        self._prefilling.remove(seq)

    def set_active(self, slots: List["SequenceSlot"]) -> None:
        self._active = slots

    # ------------------------------------------------------------------
    # Page accounting (allocated-so-far + remaining demand)
    # ------------------------------------------------------------------
    def _seq_remaining(self, request, policies, started, initial_demand, layer):
        if not started:
            return initial_demand[layer]
        pool = self.kv_pools.layer(layer)
        return policies[layer].remaining_kv_pages(
            len(request.prompt_ids), request.max_new_tokens, pool.page_size
        )

    def remaining_page_totals(self) -> List[int]:
        """Per-layer outstanding page demand of every admitted sequence."""
        num_layers = self.kv_pools.num_layers
        totals = [0] * num_layers
        for layer in range(num_layers):
            for seq in self._prefilling:
                totals[layer] += self._seq_remaining(
                    seq.request, seq.policies, seq.started,
                    seq.initial_demand, layer,
                )
            for slot in self._active:
                totals[layer] += self._seq_remaining(
                    slot.request, slot.policies, True, None, layer,
                )
        return totals

    def worst_case_page_totals(self) -> List[int]:
        """What the old worst-case-lifetime scheme would still reserve."""
        num_layers = self.kv_pools.num_layers
        totals = [0] * num_layers
        for layer in range(num_layers):
            for seq in self._prefilling:
                totals[layer] += seq.worst_case_pages[layer]
            for slot in self._active:
                totals[layer] += slot.worst_case_pages[layer]
        return totals

    def _initial_demand(
        self,
        policies: List[KVCachePolicy],
        prompt_len: int,
        new_tokens: int,
        prefix: Optional[SequencePrefix],
    ) -> List[int]:
        """Per-layer page demand of prefilling ``prompt_len`` tokens and
        then generating ``new_tokens``, minus prefix credit.

        The full pages of an adoptable cached prefix are credited: they
        are already allocated (held by the cache), shared, and never
        written by a whole-prompt-retaining policy (the partial tail page
        *is* counted — its copy-on-write split needs a fresh page).
        ``new_tokens=0`` gives the prefill-only demand the optimistic
        admission mode gates on; a resume passes the pseudo-prompt length
        and the not-yet-generated remainder.
        """
        demands: List[int] = []
        for layer, policy in enumerate(policies):
            pool = self.kv_pools.layer(layer)
            pages = policy.max_kv_pages(
                prompt_len, new_tokens, pool.page_size
            )
            if prefix is not None and policy.adopts_prefix_pages:
                pages = max(0, pages - prefix.pages[layer].full_pages)
            demands.append(pages)
        return demands

    def _demand_fits(self, demand: List[int], totals: List[int]) -> bool:
        for layer, pages in enumerate(demand):
            if totals[layer] + pages > self.kv_pools.layer(layer).free_pages:
                return False
        return True

    def _near_term_totals(self) -> List[int]:
        """Optimistic-mode outstanding demand: the prefill still owed to
        admitted prompts plus one append's worth of decode growth — not
        the whole remaining lifetime.  Gating on this is what allows
        over-subscription (and hence real decode-time page pressure that
        preemption absorbs)."""
        num_layers = self.kv_pools.num_layers
        totals = [0] * num_layers
        for layer in range(num_layers):
            page_size = self.kv_pools.layer(layer).page_size
            for seq in self._prefilling:
                if not seq.started:
                    totals[layer] += seq.initial_demand[layer]
                else:
                    totals[layer] += -(-seq.tokens_left // page_size) + 1
            for slot in self._active:
                totals[layer] += slot.policies[layer].decode_page_demand()
        return totals

    def _admission_totals(self) -> List[int]:
        if self.policy.admission == "optimistic":
            return self._near_term_totals()
        return self.remaining_page_totals()

    def can_insert_pages(self, extra_per_layer: List[int]) -> bool:
        """Whether the prefix cache may claim ``extra_per_layer`` pages (or
        shared-page CoW risk) without starving an admitted sequence."""
        totals = self._admission_totals()
        for layer, extra in enumerate(extra_per_layer):
            pool = self.kv_pools.layer(layer)
            if pool.free_pages - extra < totals[layer]:
                return False
        return True

    def _page_verdict(self, demand: List[int], totals: List[int]) -> str:
        """``"admit"``, ``"wait"`` (retry once pages free up) or
        ``"infeasible"`` (could never fit, even after shedding the cache).

        ``totals`` is the drain's running per-layer outstanding-demand sum
        (computed once per :meth:`_admit` call, not per candidate);
        shedding cache entries frees pages without touching it.
        """
        while True:
            if self._demand_fits(demand, totals):
                return "admit"
            if self._active or self._prefilling:
                return "wait"
            if self.prefix_cache is not None and self.prefix_cache.drop_lru_entry():
                continue
            return "infeasible"

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def next_batch(self) -> ScheduleBatch:
        """Admit what fits, then budget this step's prefill chunks.

        ``batch.decode`` is left empty here: the engine fills it via
        :meth:`decode_plan` once the chunks ran, so the executed decode
        set includes sequences promoted this very step.
        """
        batch = ScheduleBatch()
        self._admit(batch.failures)
        batch.prefill = self._schedule_chunks()
        return batch

    def _probe_policies(
        self,
        head: object,
        request: "ServingRequest",
        held: Optional[Tuple[object, List[KVCachePolicy]]],
    ) -> List[KVCachePolicy]:
        """Per-layer policies to probe queue ``head`` with: the ones held
        from its last ``"wait"`` verdict, else freshly built ones."""
        if held is not None and held[0] is head:
            return held[1]
        return self.model.make_policies(
            request.policy_factory or self.default_policy_factory,
            kv_pools=self.kv_pools,
        )

    def _has_free_slot(self) -> bool:
        if self.max_batch_size is None:
            return True
        return len(self._active) + len(self._prefilling) < self.max_batch_size

    def _admit(self, failures: List[Tuple["ServingRequest", Exception]]) -> None:
        """Drain queued requests into the prefilling set, in order.

        Mirrors the former wave admission: a request whose longest prompt
        prefix match is another request admitted-but-not-yet-cached (in
        this call or still prefilling from earlier steps) is deferred so
        the shared part is computed once; a request that does not fit the
        page budget right now blocks the drain (order is preserved).
        """
        if not self._pending and not self._preempted:
            return  # keep the per-step decode path free of totals scans
        cache = self.prefix_cache
        # One totals derivation per drain; admitted requests extend it
        # incrementally (no pool allocations happen during admission).
        totals = self._admission_totals()
        # Parked sequences resume ahead of any new admission: they are
        # strictly older than everything in the pending queue.
        self._resume_preempted(failures, totals)
        if not self._pending:
            return
        deferred: List["ServingRequest"] = []
        blocked: List["ServingRequest"] = []
        in_flight_prompts = [seq.prompt for seq in self._prefilling]
        while self._has_free_slot():
            with self._pending_lock:
                if not self._pending:
                    break
                request = self._pending.popleft()
            prompt = [int(t) for t in request.prompt_ids]
            if cache is not None and in_flight_prompts:
                intra = max(
                    common_prefix_length(prompt, other)
                    for other in in_flight_prompts
                )
                intra = min(intra, len(prompt) - 1)
                # peek_length keeps the defer decision free of lookup side
                # effects (stats, LRU order): only requests that actually
                # prefill count as cache traffic.
                if intra >= cache.min_prefix_tokens and intra > cache.peek_length(prompt):
                    deferred.append(request)
                    continue
            prefix = cache.lookup(prompt) if cache is not None else None
            held, self._held_request = self._held_request, None
            try:
                policies = self._probe_policies(request, request, held)
            except Exception as exc:
                if prefix is not None:
                    prefix.release()
                failures.append((request, exc))
                continue
            worst = self._initial_demand(
                policies, len(prompt), request.max_new_tokens, prefix
            )
            if self.policy.admission == "optimistic":
                # Gate on the prefill footprint only; the lifetime worst
                # case just has to be *feasible* (fit the whole arena) so
                # the sequence can always complete alone.
                if any(
                    pages > self.kv_pools.layer(layer).total_pages
                    for layer, pages in enumerate(worst)
                ):
                    verdict = "infeasible"
                    demand = worst
                else:
                    demand = self._initial_demand(
                        policies, len(prompt), 0, prefix
                    )
                    verdict = self._page_verdict(demand, totals)
            else:
                demand = worst
                verdict = self._page_verdict(demand, totals)
            if verdict != "admit":
                # Unpin the looked-up prefix pages: a re-queued request
                # repeats its lookup later, a failed one never prefills.
                if prefix is not None:
                    prefix.release()
                if verdict == "wait":
                    self._page_deferrals += 1
                    self._held_request = (request, policies)
                    blocked.append(request)
                    break
                self._infeasible_failures += 1
                failures.append(
                    (
                        request,
                        PoolExhaustedError(
                            "request needs more KV pool pages than the "
                            f"arena holds (demand {demand} pages/layer)"
                        ),
                    )
                )
                continue
            seq = PrefillingSequence(
                request=request,
                prompt=prompt,
                policies=policies,
                prefix=prefix,
                done=prefix.length if prefix is not None else 0,
                initial_demand=demand,
                worst_case_pages=list(worst),
            )
            self._setup_prefill_state(seq)
            self._prefilling.append(seq)
            for layer, pages in enumerate(demand):
                totals[layer] += pages
            in_flight_prompts.append(prompt)
        with self._pending_lock:
            for request in reversed(blocked + deferred):
                self._pending.appendleft(request)

    def _setup_prefill_state(self, seq: PrefillingSequence) -> None:
        """Size the prompt's prefill buffers and seed a reused prefix.

        The state is O(prompt length) — K/V/Q rows plus the policies'
        column sums — so every prompt gets one at admission, chunked or
        not, and chunks write into it in place.
        """
        from ..llm.model import PrefillState  # local: avoids cycle

        config = self.model.config
        prefix = seq.prefix
        seq.state = PrefillState.preallocate(
            config.num_layers,
            len(seq.prompt),
            config.num_heads,
            config.head_dim,
            prefix=prefix.layer_states() if prefix is not None else None,
        )

    def _resume_preempted(
        self,
        failures: List[Tuple["ServingRequest", Exception]],
        totals: List[int],
    ) -> None:
        """Re-admit parked sequences, oldest first, through prefill.

        When every layer policy certifies
        :meth:`~repro.core.policy.KVCachePolicy.exact_resume_by_reprefill`,
        the original prompt plus the already-*fed* generated tokens are
        prefilled as one pseudo-prompt and decode picks up exactly where
        it stopped (prefill hidden states are computed with dense causal
        attention regardless of policy, so this is exact whenever the
        policy's own decode was dense-equivalent so far).  Otherwise only
        the prompt is prefilled and the generated tokens are *replayed*
        through the decode path — identical math to the original run, so
        exact by construction for any policy.  A resume that does not fit
        the page budget right now stays at the front of the queue and
        blocks newer resumes (FCFS, like the pending drain).
        """
        if not self._preempted:
            return
        cache = self.prefix_cache
        while self._preempted and self._has_free_slot():
            pre = self._preempted[0]
            request = pre.request
            held, self._held_resume = self._held_resume, None
            try:
                policies = self._probe_policies(pre, request, held)
            except Exception as exc:
                self._preempted.popleft()
                failures.append((request, exc))
                continue
            prompt_len = len(pre.prompt)
            fast = all(
                policy.exact_resume_by_reprefill(
                    prompt_len,
                    prompt_len + pre.fed,
                    prompt_len + request.max_new_tokens,
                )
                for policy in policies
            )
            prefill_tokens = (
                pre.prompt + pre.generated[: pre.fed]
                if fast
                else list(pre.prompt)
            )
            new_tokens = request.max_new_tokens - (
                len(prefill_tokens) - prompt_len
            )
            prefix = cache.lookup(prefill_tokens) if cache is not None else None
            worst = self._initial_demand(
                policies, len(prefill_tokens), new_tokens, prefix
            )
            demand = (
                self._initial_demand(policies, len(prefill_tokens), 0, prefix)
                if self.policy.admission == "optimistic"
                else worst
            )
            verdict = self._page_verdict(demand, totals)
            if verdict != "admit":
                if prefix is not None:
                    prefix.release()
                if verdict == "wait":
                    self._page_deferrals += 1
                    self._held_resume = (pre, policies)
                    break
                # Unreachable in practice (the sequence already ran in this
                # arena), kept fail-closed for safety.
                self._preempted.popleft()
                self._infeasible_failures += 1
                failures.append(
                    (
                        request,
                        PoolExhaustedError(
                            "preempted sequence no longer fits the KV "
                            f"arena on resume (demand {demand} pages/layer)"
                        ),
                    )
                )
                continue
            self._preempted.popleft()
            seq = PrefillingSequence(
                request=request,
                prompt=prefill_tokens,
                policies=policies,
                prefix=prefix,
                done=prefix.length if prefix is not None else 0,
                initial_demand=demand,
                worst_case_pages=list(worst),
                resume=pre,
                reprefill_resume=fast,
            )
            self._setup_prefill_state(seq)
            self._prefilling.append(seq)
            for layer, pages in enumerate(demand):
                totals[layer] += pages

    def _schedule_chunks(self) -> List[PrefillChunk]:
        """Split this step's prefill budget over in-flight prompts, FCFS."""
        if not self._prefilling:
            return []
        budget = self.policy.max_tokens_per_step
        if budget is None:
            available = None
        else:
            if self.decode_token_estimate is None:
                decode_reserve = len(self._active)
            else:
                decode_reserve = sum(
                    self.decode_token_estimate(slot) for slot in self._active
                )
            available = budget - decode_reserve
            floor = self.policy.min_prefill_tokens_per_step
            if available < floor:
                available = floor
        chunks: List[PrefillChunk] = []
        throttled = False
        for seq in self._prefilling:
            left = seq.tokens_left
            if left <= 0:
                continue  # unreachable; defensive
            take = left if available is None else min(left, available)
            if take <= 0:
                throttled = True
                break
            chunk_tokens = seq.prompt[seq.done : seq.done + take]
            final = seq.done + take == len(seq.prompt)
            chunks.append(PrefillChunk(seq=seq, tokens=chunk_tokens, final=final))
            seq.chunks_taken += 1
            if final and seq.chunks_taken > 1:
                self._chunked_prompts += 1
            if not final:
                throttled = True
            self._prefill_chunks_scheduled += 1
            self._prefill_tokens_scheduled += take
            if available is not None:
                available -= take
        if throttled:
            self._budget_throttled_steps += 1
        return chunks

    def decode_plan(
        self, batch: Optional[ScheduleBatch] = None
    ) -> Tuple[List["SequenceSlot"], List[Tuple[str, int, int]]]:
        """Active slots in decode order plus their policy-group spans.

        Called by the engine after this step's prefill chunks ran, so
        newly promoted sequences are included.  The slots are stably
        ordered (submission order kept within a group) so sequences with
        the same :func:`policy_group_key` are contiguous; the spans
        ``(key, start, length)`` are recorded in telemetry and are the
        contiguous runs the model's group-vectorized decode executes.
        When ``batch`` is given its ``decode``/``decode_groups`` are filled
        in, making the batch the record of what actually executed.
        """
        slots = list(self._active)
        spans: List[Tuple[str, int, int]] = []
        if len(slots) > 1:
            slots.sort(key=lambda slot: policy_group_key(slot.policies))
        for i, slot in enumerate(slots):
            key = policy_group_key(slot.policies)
            if not spans or spans[-1][0] != key:
                spans.append((key, i, 1))
            else:
                name, begin, length = spans[-1]
                spans[-1] = (name, begin, length + 1)
        if len(spans) > 1:
            self._grouped_decode_steps += 1
        self._last_decode_groups = spans
        if batch is not None:
            batch.decode = slots
            batch.decode_groups = spans
        return slots, spans


__all__ = [
    "PreemptedSequence",
    "PrefillChunk",
    "PrefillingSequence",
    "ScheduleBatch",
    "Scheduler",
    "SchedulerPolicy",
    "policy_group_key",
]
