"""Outside-in layer tracing: spans recorded by wrappers the benchmark installs.

Nothing under ``src/`` knows about tracing.  For the traced run only,
:func:`install` replaces the public entry points of each layer (see
:func:`targets`) with wrappers that record one span per call into a
:class:`Recorder` — name, start, end, the enclosing span on the same
thread, and a count of tokens / rows / bytes handled — and
:func:`uninstall` puts the original function objects back, so the untraced
phases run unmodified code.

A span's *self time* is its duration minus the part its child spans cover;
summing self times by layer attributes the traced wall to layers without
double counting (:func:`summarize`).

Process workers of the cluster workload are forked *after* the wrappers
are installed, so they inherit them and record their own spans.  The only
road back to the parent that exists without touching ``src/`` is the
cluster's stats RPC: the ``BatchedEngine.stats`` wrapper, when it runs in
a forked child, attaches the child's span summary under
``SUMMARY_KEY`` and the parent reads it from the per-worker stats.
"""

from __future__ import annotations

import os
import sys
import threading
import time
from typing import Callable, Dict, List, Sequence, Tuple

SUMMARY_KEY = "suite_span_summary"

# Every this-many engine steps the step wrapper samples the scheduler's
# outstanding page demand (for ``kv_pool.reserved_unused_share``).
SAMPLE_EVERY = 4

Span = List  # [name, start_s, end_s, parent_index, count]


class Recorder:
    """In-memory span store with one open-span stack per thread."""

    def __init__(self) -> None:
        self.owner_pid = os.getpid()
        self.reset()

    def reset(self) -> None:
        self.spans: List[Span] = []
        self._stacks: Dict[int, List[int]] = {}
        self.submit_time: Dict[str, float] = {}
        self.first_scheduled: Dict[str, float] = {}
        self.reserved_samples: List[float] = []
        self.steps_seen = 0

    def begin(self, name: str) -> int:
        stack = self._stacks.setdefault(threading.get_ident(), [])
        index = len(self.spans)
        self.spans.append([name, 0.0, 0.0, stack[-1] if stack else -1, 0])
        stack.append(index)
        self.spans[index][1] = time.perf_counter()
        return index

    def end(self, index: int) -> None:
        now = time.perf_counter()
        self.spans[index][2] = now
        self._stacks[threading.get_ident()].pop()

    def in_forked_child(self) -> bool:
        return os.getpid() != self.owner_pid


def self_times(spans: Sequence[Span]) -> List[float]:
    """Per-span self time: duration minus the time covered by children.

    Children of one span run on its thread, nested and non-overlapping, so
    the covered part is the sum of the direct children's durations."""
    covered = [0.0] * len(spans)
    for _name, start, end, parent, _count in spans:
        if parent >= 0:
            covered[parent] += end - start
    return [
        (span[2] - span[1]) - covered[i] for i, span in enumerate(spans)
    ]


def summarize(recorder: Recorder) -> Dict[str, object]:
    """Aggregate a recorder into a picklable per-name summary.

    ``names[name]`` = ``{"calls", "dur_s", "self_s", "count", "durs"}``
    (``durs`` the individual durations, for percentiles), plus the
    queue-wait samples and the reserved-page samples."""
    names: Dict[str, Dict[str, object]] = {}
    for span, self_s in zip(recorder.spans, self_times(recorder.spans)):
        entry = names.setdefault(
            span[0],
            {"calls": 0, "dur_s": 0.0, "self_s": 0.0, "count": 0, "durs": []},
        )
        dur = span[2] - span[1]
        entry["calls"] += 1
        entry["dur_s"] += dur
        entry["self_s"] += self_s
        entry["count"] += span[4]
        entry["durs"].append(dur)
    waits = [
        recorder.first_scheduled[rid] - submitted
        for rid, submitted in recorder.submit_time.items()
        if rid in recorder.first_scheduled
    ]
    return {
        "names": names,
        "queue_wait_s": waits,
        "reserved_samples": list(recorder.reserved_samples),
    }


def merge_summaries(summaries: Sequence[Dict[str, object]]) -> Dict[str, object]:
    """Sum per-name aggregates of several recorders (parent + workers)."""
    out: Dict[str, object] = {"names": {}, "queue_wait_s": [], "reserved_samples": []}
    for summary in summaries:
        for name, entry in summary["names"].items():
            into = out["names"].setdefault(
                name,
                {"calls": 0, "dur_s": 0.0, "self_s": 0.0, "count": 0, "durs": []},
            )
            for key in ("calls", "dur_s", "self_s", "count"):
                into[key] += entry[key]
            into["durs"].extend(entry["durs"])
        out["queue_wait_s"].extend(summary["queue_wait_s"])
        out["reserved_samples"].extend(summary["reserved_samples"])
    return out


# ----------------------------------------------------------------------
# Span counts: what one call handled (tokens, rows, sequences or bytes)
# ----------------------------------------------------------------------
def _nbytes_pair(args, kwargs, result) -> int:
    return int(result[0].nbytes + result[1].nbytes)


def _count_prefill_tokens(args, kwargs, result) -> int:
    return sum(len(chunk) for chunk in args[1])


COUNTS: Dict[str, Callable] = {
    "engine.step": lambda a, k, r: len(r),
    "engine.submit": lambda a, k, r: len(a[1].prompt_ids),
    "scheduler.next_batch": lambda a, k, r: sum(len(c.tokens) for c in r.prefill),
    "scheduler.select_victim": lambda a, k, r: len(a[1]),
    "prefix_cache.lookup": lambda a, k, r: r.length if r is not None else 0,
    "prefix_cache.insert": lambda a, k, r: len(a[1]),
    "model.prefill_chunk_batched": _count_prefill_tokens,
    "model.decode_steps_batched": lambda a, k, r: len(a[1]),
    "policy.run_group_decode": lambda a, k, r: len(a[4] if len(a) > 4 else k["policies"]),
    "policy.prefill": lambda a, k, r: int(a[1].shape[0]),
    "policy.prefill_precomputed": lambda a, k, r: int(a[1].shape[0]),
    "policy.prefill_extend": lambda a, k, r: int(a[1].shape[0]),
    "policy.decode_step": lambda a, k, r: 1,
    "policy.decode_step_group": lambda a, k, r: len(a[5] if len(a) > 5 else k["policies"]),
    "kv_pool.gather_padded": _nbytes_pair,
    "kv_pool.store_gather": _nbytes_pair,
    "kv_pool.write_rows": lambda a, k, r: int(a[3].shape[0]),
    "kv_pool.alloc": lambda a, k, r: 1,
    "kv_pool.copy_page": lambda a, k, r: 1,
    "kv_codec.encode": lambda a, k, r: int(a[1].nbytes),
    "kv_codec.decode": lambda a, k, r: int(r.nbytes),
    "cluster.submit_async": lambda a, k, r: len(a[1].prompt_ids),
    "cluster.route": lambda a, k, r: len(a[2]),
}


def _make_wrapper(recorder: Recorder, name: str, fn: Callable) -> Callable:
    count_fn = COUNTS.get(name)

    def wrapper(*args, **kwargs):
        index = recorder.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            recorder.end(index)
        if count_fn is not None:
            recorder.spans[index][4] = count_fn(args, kwargs, result)
        return result

    wrapper.__wrapped__ = fn
    wrapper.__name__ = getattr(fn, "__name__", name)
    return wrapper


def _wrap_submit(recorder: Recorder, fn: Callable) -> Callable:
    inner = _make_wrapper(recorder, "engine.submit", fn)

    def submit(engine, request):
        started = time.perf_counter()
        rid = inner(engine, request)
        recorder.submit_time.setdefault(rid, started)
        return rid

    submit.__wrapped__ = fn
    return submit


def _wrap_next_batch(recorder: Recorder, fn: Callable) -> Callable:
    inner = _make_wrapper(recorder, "scheduler.next_batch", fn)

    def next_batch(scheduler):
        batch = inner(scheduler)
        now = time.perf_counter()
        for chunk in batch.prefill:
            seq = chunk.seq
            if seq.resume is None:
                recorder.first_scheduled.setdefault(seq.request.request_id, now)
        return batch

    next_batch.__wrapped__ = fn
    return next_batch


def _wrap_step(recorder: Recorder, fn: Callable) -> Callable:
    inner = _make_wrapper(recorder, "engine.step", fn)

    def step(engine):
        finished = inner(engine)
        recorder.steps_seen += 1
        if engine.kv_pools is not None and recorder.steps_seen % SAMPLE_EVERY == 0:
            index = recorder.begin("bench.sample")
            pools = engine.kv_pools.pools
            reserved = sum(engine.scheduler.remaining_page_totals())
            free = sum(pool.free_pages for pool in pools)
            total = sum(pool.total_pages for pool in pools)
            recorder.reserved_samples.append(min(reserved, free) / total)
            recorder.end(index)
        return finished

    step.__wrapped__ = fn
    return step


def _wrap_stats(recorder: Recorder, fn: Callable) -> Callable:
    def stats(engine):
        out = fn(engine)
        if recorder.in_forked_child():
            out[SUMMARY_KEY] = summarize(recorder)
        return out

    stats.__wrapped__ = fn
    return stats


def _defining_classes(base: type, attr: str) -> List[type]:
    """Every class in the MRO of ``base`` or a loaded subclass (mixins
    included) that defines ``attr`` itself.

    Patching only where the attribute lives in the class ``__dict__``
    keeps MRO-based dispatch checks (``supports_group_decode``) seeing the
    same defining classes as without tracing."""
    seen, stack, out = set(), [base], []
    while stack:
        cls = stack.pop()
        if cls in seen:
            continue
        seen.add(cls)
        stack.extend(cls.__subclasses__())
        for klass in cls.__mro__:
            if klass is not object and attr in vars(klass) and klass not in out:
                out.append(klass)
    return out


def targets() -> List[Tuple[object, str, str]]:
    """``(owner, attribute, span name)`` for every wrapped entry point."""
    from repro.core import group_decode, kv_pool
    from repro.core.kv_codec import PageCodec
    from repro.core.policy import KVCachePolicy
    from repro.llm.model import TransformerLM
    from repro.serving.cluster import EngineCluster, Router
    from repro.serving.engine import BatchedEngine
    from repro.serving.prefix_cache import PrefixCache
    from repro.serving.scheduler import Scheduler

    out: List[Tuple[object, str, str]] = [
        (BatchedEngine, "step", "engine.step"),
        (BatchedEngine, "submit", "engine.submit"),
        (BatchedEngine, "stats", "engine.stats"),
        (Scheduler, "next_batch", "scheduler.next_batch"),
        (Scheduler, "select_victim", "scheduler.select_victim"),
        (PrefixCache, "lookup", "prefix_cache.lookup"),
        (PrefixCache, "insert", "prefix_cache.insert"),
        (TransformerLM, "prefill_chunk_batched", "model.prefill_chunk_batched"),
        (TransformerLM, "decode_steps_batched", "model.decode_steps_batched"),
        (kv_pool.PagedKVStore, "gather", "kv_pool.store_gather"),
        (kv_pool.PagedKVPool, "write_rows", "kv_pool.write_rows"),
        (kv_pool.PagedKVPool, "alloc", "kv_pool.alloc"),
        (kv_pool.PagedKVPool, "copy_page", "kv_pool.copy_page"),
        (EngineCluster, "submit_async", "cluster.submit_async"),
        (EngineCluster, "start", "cluster.start"),
        (EngineCluster, "shutdown", "cluster.shutdown"),
    ]
    for attr in ("prefill", "prefill_precomputed", "prefill_extend",
                 "decode_step", "decode_step_group"):
        for cls in _defining_classes(KVCachePolicy, attr):
            out.append((cls, attr, f"policy.{attr}"))
    for attr in ("encode", "decode"):
        for cls in _defining_classes(PageCodec, attr):
            out.append((cls, attr, f"kv_codec.{attr}"))
    for cls in _defining_classes(Router, "route"):
        out.append((cls, "route", "cluster.route"))
    # Module-level functions: patch every binding of the function object
    # in every loaded ``repro`` module (``from x import f`` copies it).
    for fn, name in (
        (kv_pool.gather_padded, "kv_pool.gather_padded"),
        (group_decode.run_group_decode, "policy.run_group_decode"),
    ):
        for module in list(sys.modules.values()):
            if module is None or not getattr(module, "__name__", "").startswith("repro"):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    out.append((module, attr, name))
    return out


_SPECIAL = {
    "engine.step": _wrap_step,
    "engine.submit": _wrap_submit,
    "engine.stats": _wrap_stats,
    "scheduler.next_batch": _wrap_next_batch,
}


class Installed:
    """Handle returned by :func:`install`; pass to :func:`uninstall`."""

    def __init__(self, recorder: Recorder) -> None:
        self.recorder = recorder
        self.originals: List[Tuple[object, str, object]] = []


def install() -> Installed:
    """Wrap every target; returns the handle that undoes it."""
    handle = Installed(Recorder())
    for owner, attr, name in targets():
        original = vars(owner)[attr]
        if isinstance(original, (staticmethod, classmethod)):
            raise TypeError(f"cannot wrap {owner}.{attr}")
        special = _SPECIAL.get(name)
        wrapped = (
            special(handle.recorder, original)
            if special is not None
            else _make_wrapper(handle.recorder, name, original)
        )
        handle.originals.append((owner, attr, original))
        setattr(owner, attr, wrapped)
    return handle


def uninstall(handle: Installed) -> None:
    """Put every original function object back."""
    while handle.originals:
        owner, attr, original = handle.originals.pop()
        setattr(owner, attr, original)


def span_records(recorder: Recorder, origin_s: float) -> List[Dict[str, object]]:
    """Spans as ``{id, name, start_s, end_s, parent, count}`` dicts, times
    relative to ``origin_s``."""
    return [
        {
            "id": i,
            "name": name,
            "start_s": start - origin_s,
            "end_s": end - origin_s,
            "parent": parent,
            "count": count,
        }
        for i, (name, start, end, parent, count) in enumerate(recorder.spans)
    ]
