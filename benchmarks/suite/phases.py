"""Set-up, warm-up and the timed phases of one workload.

The benchmark *is* the stepping thread of a single-engine workload: it
calls ``engine.submit()`` / ``engine.step()`` itself, so there is no
driver/server thread pair fighting over the GIL and offline-phase counts
repeat exactly.  The cluster workload cannot be stepped from outside; it
is driven through ``submit_async`` / ``drain`` with a parent-side
``on_token`` stamp.

* **offline** (closed): the whole trace is submitted, then stepped to
  quiescence — throughput at the stated input size.
* **paced** (open loop): each request is submitted at the first step
  boundary after its due time; latency is timed *from the due time*, and
  how late the generator ran is reported.

Every phase runs in its own forked process (:func:`isolated`): numpy's
large temporaries make the first pass in a process pay ~15 % more page
faults than later ones, so phases sharing a process would warm each
other's heap and the traced/untraced comparison would depend on order.
"""

from __future__ import annotations

import glob
import multiprocessing
import os
import time
import traceback
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

import spans
from tracegen import Record, request_id
from workloads import POLICY_TABLE, Workload, build_model

PHASE_TIMEOUT_S = 170.0


@dataclass
class PhaseResult:
    """What one phase observed, as plain picklable data."""

    wall_s: float
    sent: int
    tokens: Dict[str, List[int]]  # request id -> output tokens
    finish: Dict[str, str]  # request id -> finish reason
    terminal_counts: Dict[str, int]  # request id -> terminal responses seen
    stats: Dict[str, object]  # engine stats() (cluster: merged worker stats)
    policy: Dict[str, float]  # totals over the responses' PolicyStats
    raw_stats: Dict[str, object] = field(default_factory=dict)  # cluster.stats()
    due_s: Dict[str, float] = field(default_factory=dict)  # wall-clock due offsets
    stamps: Dict[str, List[float]] = field(default_factory=dict)  # token times
    lag_s: List[float] = field(default_factory=list)  # actual submit - due
    start_s: float = 0.0  # perf_counter at phase start
    setup_s: float = 0.0
    rss_mb: float = 0.0  # phase process + its workers, peak
    backend_start_s: float = 0.0  # cluster: construct -> all workers ready
    backend_shutdown_s: float = 0.0
    submit_s: List[float] = field(default_factory=list)  # cluster: per submit call
    summary: Optional[Dict[str, object]] = None  # traced: this process's spans
    span_records: List[Dict[str, object]] = field(default_factory=list)

    @property
    def succeeded(self) -> int:
        return sum(1 for reason in self.finish.values() if reason != "error")

    @property
    def failed(self) -> int:
        return self.sent - self.succeeded

    @property
    def tokens_out(self) -> int:
        return sum(
            len(tokens)
            for rid, tokens in self.tokens.items()
            if self.finish[rid] != "error"
        )


def policy_totals(responses: Sequence[object]) -> Dict[str, float]:
    """Sums over the normally finished responses' per-layer PolicyStats."""
    out = dict.fromkeys(
        ("layers", "prefill_tokens", "retained", "peak_cache", "decode_steps",
         "attended", "cached", "evictions", "first_pass_tokens"), 0,
    )
    for response in responses:
        if response.finish_reason == "error":
            continue
        reused = response.policy_stats[0].prefill_reused_tokens if response.policy_stats else 0
        out["first_pass_tokens"] += (
            response.prompt_length - reused + max(len(response.token_ids) - 1, 0)
        )
        for layer in response.policy_stats:
            out["layers"] += 1
            out["prefill_tokens"] += layer.prefill_tokens
            out["retained"] += layer.retained_after_prefill
            out["peak_cache"] += layer.peak_cache_size
            out["decode_steps"] += layer.decode_steps
            out["attended"] += layer.total_attended
            out["evictions"] += layer.total_evictions
            out["cached"] += sum(record.cache_size for record in layer.records)
    return out


def to_request(index: int, record: Record):
    from repro.serving import ServingRequest

    return ServingRequest(
        prompt_ids=list(record.prompt_ids),
        max_new_tokens=record.max_new_tokens,
        request_id=request_id(index),
        policy_factory=POLICY_TABLE[record.policy],
        priority=record.priority,
        tenant=record.tenant,
    )


def engine_factory(workload: Workload, model, tracer=None) -> Callable[[], object]:
    """Zero-argument builder of one fresh engine (arena + prefix cache).

    ``tracer`` is the installed span handle of a traced run: a forked
    cluster worker starts from a copy of its parent's recorder, which the
    factory — the first benchmark code the worker runs — clears."""

    def build():
        from repro.core.kv_pool import KVPoolGroup
        from repro.serving import BatchedEngine, SchedulerPolicy

        if tracer is not None and tracer.recorder.in_forked_child():
            tracer.recorder.reset()
        shape = workload.model
        return BatchedEngine(
            model,
            max_batch_size=workload.max_batch_size,
            kv_pools=KVPoolGroup(
                shape.num_layers,
                page_size=workload.page_size,
                num_heads=shape.num_heads,
                head_dim=shape.head_dim,
                num_pages=workload.num_pages,
                codec=workload.codec,
            ),
            scheduler_policy=SchedulerPolicy(
                max_tokens_per_step=workload.max_tokens_per_step,
                preemption=True,
                admission=workload.admission,
            ),
        )

    return build


def warm_up(factory: Callable[[], object], trace: Sequence[Record]) -> None:
    """Push the trace's longest prompt (whole) and a few truncated requests
    through a throw-away engine, so lazy imports, numpy dispatch caches and
    the allocator's first growth are paid before any timed phase."""
    from repro.serving import ServingRequest

    engine = factory()
    longest = max(range(len(trace)), key=lambda i: len(trace[i].prompt_ids))
    picks = [(longest, len(trace[longest].prompt_ids))]
    picks += [(i, 48) for i in range(min(len(trace), 7)) if i != longest]
    for index, keep in picks:
        record = trace[index]
        engine.submit(
            ServingRequest(
                prompt_ids=list(record.prompt_ids[:keep]),
                max_new_tokens=min(record.max_new_tokens, 6),
                request_id=f"warmup-{index}",
                policy_factory=POLICY_TABLE[record.policy],
            )
        )
    engine.run()


@dataclass
class Backend:
    """A ready-to-drive serving backend plus what set-up cost."""

    setup_s: float
    engine: object = None  # single-engine workloads
    cluster: object = None  # cluster workload
    start_s: float = 0.0  # cluster: construct -> all workers ready


def set_up(workload: Workload, trace: Sequence[Record], tracer=None) -> Backend:
    """Model build + warm-up + arena/cluster start, timed as ``setup_s``."""
    started = time.perf_counter()
    model = build_model(workload.model)
    factory = engine_factory(workload, model, tracer)
    warm_up(factory, trace)
    if not workload.cluster_workers:
        engine = factory()
        return Backend(setup_s=time.perf_counter() - started, engine=engine)
    from repro.serving import EngineCluster

    cluster_started = time.perf_counter()
    cluster = EngineCluster(
        factory,
        num_workers=workload.cluster_workers,
        router="least_pressure",
        mode="process",
    )
    for worker in cluster.workers:
        if not worker.hello.wait(timeout=60.0):
            cluster.shutdown()
            raise RuntimeError("cluster worker did not come up")
    cluster.start()
    now = time.perf_counter()
    return Backend(
        setup_s=now - started, cluster=cluster, start_s=now - cluster_started
    )


# ----------------------------------------------------------------------
# Phase drivers
# ----------------------------------------------------------------------
def _plan(trace: Sequence[Record], rate: Optional[float]):
    """Requests, wall-clock due offsets (all 0 offline) and the token-stamp
    table with the ``on_token`` callback that fills it."""
    requests = [to_request(i, record) for i, record in enumerate(trace)]
    due = [0.0 if rate is None else record.due_s / rate for record in trace]
    stamps: Dict[str, List[float]] = {r.request_id: [] for r in requests}

    def on_token(rid: str, token_id: int, num_generated: int) -> None:
        stamps[rid].append(time.perf_counter())

    return requests, due, stamps, on_token


def _result(requests, due, responses, terminal, paced: bool, **fields) -> PhaseResult:
    """Assemble a :class:`PhaseResult` from the responses found for
    ``requests`` and the terminal responses the phase saw go by."""
    counts: Dict[str, int] = {}
    for response in terminal:
        counts[response.request_id] = counts.get(response.request_id, 0) + 1
    responses = [r for r in responses if r is not None]
    if not paced:
        fields["stamps"], fields["lag_s"] = {}, []
    return PhaseResult(
        sent=len(requests),
        tokens={r.request_id: list(r.token_ids) for r in responses},
        finish={r.request_id: r.finish_reason for r in responses},
        terminal_counts=counts,
        policy=policy_totals(responses),
        due_s={r.request_id: d for r, d in zip(requests, due)},
        **fields,
    )


def _single(engine, trace: Sequence[Record], rate: Optional[float]) -> PhaseResult:
    """Offline (``rate=None``: everything submitted before the first step)
    or paced phase on one engine; the benchmark is the stepping thread."""
    requests, due, stamps, on_token = _plan(trace, rate)
    if rate is not None:
        engine.on_token = on_token
    finished: List[object] = []
    lag: List[float] = []
    n = len(requests)
    sent = 0
    start = time.perf_counter()
    while sent < n or engine.has_work:
        now = time.perf_counter() - start
        while sent < n and due[sent] <= now:
            engine.submit(requests[sent])
            lag.append(time.perf_counter() - start - due[sent])
            sent += 1
        if engine.has_work:
            finished.extend(engine.step())
        elif sent < n:
            time.sleep(max(0.0, due[sent] - (time.perf_counter() - start)))
    wall = time.perf_counter() - start
    engine.on_token = None
    return _result(
        requests, due, [engine.response(r.request_id) for r in requests], finished,
        rate is not None,
        wall_s=wall, stats=engine.stats(), stamps=stamps, lag_s=lag, start_s=start,
    )


def _vm_hwm_mb(pid: int) -> float:
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def _cluster(backend: Backend, trace: Sequence[Record], rate: Optional[float]) -> PhaseResult:
    """Offline or paced phase on the cluster — ``submit_async`` / ``drain``
    with a parent-side ``on_token`` stamp — then stats and shutdown."""
    cluster = backend.cluster
    requests, due, stamps, on_token = _plan(trace, rate)
    if rate is not None:
        cluster.on_token = on_token
    lag: List[float] = []
    submit_s: List[float] = []
    try:
        start = time.perf_counter()
        for request, due_at in zip(requests, due):
            delay = due_at - (time.perf_counter() - start)
            if delay > 0:
                time.sleep(delay)
            before = time.perf_counter()
            cluster.submit_async(request)
            after = time.perf_counter()
            lag.append(before - start - due_at)
            submit_s.append(after - before)
        drained = cluster.drain()
        wall = time.perf_counter() - start
        raw = cluster.stats()
        worker_rss = sum(
            _vm_hwm_mb(w.process.pid) for w in cluster.workers if w.process is not None
        )
    finally:
        stopping = time.perf_counter()
        cluster.shutdown()
        shutdown_s = time.perf_counter() - stopping
    return _result(
        requests, due, [cluster.response(r.request_id) for r in requests], drained,
        rate is not None,
        wall_s=wall, stats=raw["cluster"] or {}, raw_stats=raw, stamps=stamps,
        lag_s=lag, start_s=start, rss_mb=worker_rss,
        backend_start_s=backend.start_s, backend_shutdown_s=shutdown_s,
        submit_s=submit_s,
    )


def run_phase(
    workload: Workload, trace: Sequence[Record], rate: Optional[float], traced: bool
) -> PhaseResult:
    """Set up a fresh backend and run one phase on it (``rate=None``:
    offline).  With ``traced`` the layer wrappers are installed first —
    cluster workers are forked after that and inherit them — and removed
    again afterwards."""
    handle = spans.install() if traced else None
    try:
        backend = set_up(workload, trace, handle)
        if handle is not None:
            handle.recorder.reset()  # spans of the timed phase only, not of warm-up
        if backend.cluster is not None:
            result = _cluster(backend, trace, rate)
        else:
            result = _single(backend.engine, trace, rate)
    finally:
        if handle is not None:
            spans.uninstall(handle)
    result.setup_s = backend.setup_s
    result.rss_mb += _vm_hwm_mb(os.getpid())
    if handle is not None:
        result.summary = spans.summarize(handle.recorder)
        result.span_records = spans.span_records(handle.recorder, result.start_s)
    return result


def set_up_only(workload: Workload, trace: Sequence[Record]) -> float:
    """One more ``setup_s`` sample: set up, tear down, report the time."""
    backend = set_up(workload, trace)
    if backend.cluster is not None:
        backend.cluster.shutdown()
    return backend.setup_s


# ----------------------------------------------------------------------
# Process isolation
# ----------------------------------------------------------------------
def _child_main(conn, fn, args) -> None:
    try:
        conn.send((True, fn(*args)))
    except BaseException:  # reported to the parent, which raises
        conn.send((False, traceback.format_exc()))
    finally:
        conn.close()


def isolated(fn: Callable, *args):
    """Run ``fn(*args)`` in a forked child and return its result.

    The parent holds no threads when it forks and only waits, so at most
    the child (plus the cluster workers it starts) generates or serves
    load.  The result is received before the child is joined."""
    context = multiprocessing.get_context("fork")
    receiver, sender = context.Pipe(duplex=False)
    child = context.Process(target=_child_main, args=(sender, fn, args))
    child.start()
    sender.close()
    try:
        if not receiver.poll(PHASE_TIMEOUT_S):
            raise RuntimeError(f"phase did not finish within {PHASE_TIMEOUT_S}s")
        ok, payload = receiver.recv()
    except EOFError:
        ok, payload = False, "phase process died without reporting"
    finally:
        receiver.close()
        child.join(timeout=10.0)
        if child.is_alive():
            child.terminate()
            child.join()
    if not ok:
        raise RuntimeError(f"phase failed:\n{payload}")
    return payload


PRETOUCH_MB = 768


def _touch(megabytes: int) -> None:
    import numpy as np

    np.ones(megabytes * 1024 * 1024 // 8)


def pretouch_host_memory() -> None:
    """Touch ``PRETOUCH_MB`` of fresh memory in a child that then exits.

    In a VM whose free pages are handed back to the hypervisor, the first
    process to touch memory after an idle spell pays the hypervisor's
    first-touch cost: without this, whichever phase runs first is ~15 %
    slower and phase order shows up in the numbers (the traced run came
    out *faster* than the untraced one before it)."""
    isolated(_touch, PRETOUCH_MB)


def leaked_shm_segments() -> List[str]:
    return sorted(glob.glob("/dev/shm/repro-*"))
