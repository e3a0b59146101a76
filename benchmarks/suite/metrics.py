"""Metric definitions and the arithmetic that turns phase results into them.

``END_TO_END`` and ``PER_LAYER`` are exactly the metric lists of the root
``BENCHMARK.json`` (the self-tests compare them): every workload reports
every one of them as a measured number.  ``DIAGNOSTICS`` are printed and
written to the trace file but are not part of ``BENCHMARK.json`` — each
entry says why.
"""

from __future__ import annotations

import statistics
from typing import Dict, List, NamedTuple, Sequence, Tuple

import numpy as np

from spans import SUMMARY_KEY, merge_summaries


class MetricDef(NamedTuple):
    name: str
    unit: str
    better: str
    definition: str


END_TO_END: Tuple[MetricDef, ...] = (
    MetricDef("setup_s", "s", "lower",
              "model build + warm-up + arena/cluster start, before any timed phase; median of the run's set-ups"),
    MetricDef("offline_tokens_per_s", "tok/s", "higher",
              "committed output tokens of normally finished requests / offline-phase wall"),
    MetricDef("paced_ttft_p50_ms", "ms", "lower",
              "first on_token - due time, median over requests sent"),
    MetricDef("paced_itl8_p50_ms", "ms", "lower",
              "inter-token latency averaged over 8 consecutive tokens of one request, (t[i+8] - t[i]) / 8, median over all such windows"),
    MetricDef("paced_slo_share", "share", "higher",
              "requests sent that finish normally with TTFT <= limit and mean ITL <= limit; a failed request is a miss"),
    MetricDef("peak_rss_mb", "MB", "lower",
              "peak resident set of the run (parent + worker processes)"),
)

PER_LAYER: Tuple[MetricDef, ...] = (
    MetricDef("engine.steps", "count", "lower", "engine steps of the offline phase (exact)"),
    MetricDef("engine.step_ms_p50", "ms", "lower", "BatchedEngine.step duration, median"),
    MetricDef("engine.step_ms_p99", "ms", "lower", "BatchedEngine.step duration, p99"),
    MetricDef("engine.step_self_share", "share", "lower",
              "self time of step+submit (bookkeeping outside every other layer) / traced wall"),
    MetricDef("engine.batch_size_mean", "seqs", "higher",
              "sequences per decode_steps_batched call"),
    MetricDef("engine.preemptions", "count", "lower", "sequences parked under page pressure (exact)"),
    MetricDef("engine.wasted_token_share", "share", "lower",
              "tokens fed through the model beyond each request's first pass (re-prefill, replay, discarded chunks) / all tokens fed"),
    MetricDef("scheduler.busy_share", "share", "lower",
              "self time of next_batch + select_victim / traced wall"),
    MetricDef("scheduler.next_batch_us_p50", "us", "lower", "Scheduler.next_batch duration, median"),
    MetricDef("scheduler.queue_wait_ms_p50", "ms", "lower",
              "submit -> first step whose ScheduleBatch carries the request, median"),
    MetricDef("scheduler.page_deferrals", "count", "lower", "admissions deferred for pages (exact)"),
    MetricDef("scheduler.prefill_tokens_per_step_mean", "tok", "higher",
              "prompt tokens through prefill_chunk_batched / engine steps"),
    MetricDef("prefix_cache.hit_rate", "share", "higher", "lookup hits / lookups"),
    MetricDef("prefix_cache.tokens_reused_share", "share", "higher",
              "prompt tokens skipped by prefix reuse / prompt tokens submitted"),
    MetricDef("prefix_cache.busy_share", "share", "lower", "self time of lookup + insert / traced wall"),
    MetricDef("prefix_cache.lookup_us_p50", "us", "lower", "PrefixCache.lookup duration, median"),
    MetricDef("model.prefill_busy_share", "share", "lower",
              "self time of prefill_chunk_batched (projections, attention, MLP) / traced wall"),
    MetricDef("model.prefill_ms_per_ktoken", "ms/ktok", "lower",
              "prefill_chunk_batched duration (children included) per 1000 prompt tokens"),
    MetricDef("model.decode_ms_per_step_p50", "ms", "lower",
              "decode_steps_batched duration (children included), median"),
    MetricDef("model.dense_self_share", "share", "lower",
              "self time of decode_steps_batched (projections, MLP, unembed) / traced wall"),
    MetricDef("policy.decode_busy_share", "share", "lower",
              "self time of run_group_decode + policy decode entry points / traced wall"),
    MetricDef("policy.decode_group_ms_p50", "ms", "lower", "run_group_decode duration, median"),
    MetricDef("policy.group_span_mean", "seqs", "higher", "sequences per run_group_decode call"),
    MetricDef("policy.prefill_prune_ms_per_request", "ms", "lower",
              "self time of policy prefill entry points, all layers, per request"),
    MetricDef("policy.attended_share", "share", "lower",
              "attended / cached tokens over all decode steps, from PolicyStats (exact)"),
    MetricDef("policy.cache_tokens_mean", "tok", "lower",
              "mean cache size over all decode steps, from PolicyStats (exact)"),
    MetricDef("policy.evictions", "count", "lower", "decode-time evictions, from PolicyStats (exact)"),
    MetricDef("kv_pool.gather_busy_share", "share", "lower",
              "self time of gather_padded + PagedKVStore.gather / traced wall"),
    MetricDef("kv_pool.write_busy_share", "share", "lower",
              "self time of write_rows + alloc + copy_page / traced wall"),
    MetricDef("kv_pool.gather_mbytes_per_step", "MB", "lower",
              "bytes gathered per engine step, computed from returned shapes x itemsize"),
    MetricDef("kv_pool.page_allocs", "count", "lower", "pages allocated (exact)"),
    MetricDef("kv_pool.cow_splits", "count", "lower", "copy-on-write page splits (exact)"),
    MetricDef("kv_pool.peak_pages_share", "share", "lower", "peak pages in use / arena pages"),
    MetricDef("kv_pool.reserved_unused_share", "share", "lower",
              "free pages already spoken for by admitted sequences' outstanding demand / arena, sampled every 4th step"),
    MetricDef("kv_pool.bytes_per_token", "B", "lower", "storage bytes per cached token (codec and scales included)"),
    MetricDef("kv_codec.encode_busy_share", "share", "lower",
              "self time of PageCodec.encode / traced wall (float arenas bypass the codec: measured 0)"),
    MetricDef("kv_codec.decode_busy_share", "share", "lower", "self time of PageCodec.decode / traced wall"),
    MetricDef("kv_codec.decode_mbytes_per_step", "MB", "lower",
              "bytes dequantised per engine step, computed from returned shapes x itemsize"),
    MetricDef("cluster.worker_token_imbalance", "share", "lower",
              "(max - min) / mean tokens fed per worker; one engine is one worker"),
    MetricDef("cluster.shm_leaked_segments", "count", "lower", "/dev/shm/repro-* segments the run left behind"),
    MetricDef("energy.sim_energy_per_token_nj", "nJ", "lower",
              "repro.energy UniCAIM model on an AttentionWorkload built from the run's PolicyStats (simulated, exact)"),
    MetricDef("energy.sim_delay_per_token_ns", "ns", "lower", "same model, step delay (simulated, exact)"),
    MetricDef("energy.sim_aedp", "mm2.nJ.ns", "lower", "same model, area x energy x delay (simulated, exact)"),
    MetricDef("trace.overhead_share", "share", "lower", "traced / untraced offline wall - 1"),
    MetricDef("quality.token_match_share", "share", "higher",
              "share of the first 64 output tokens of 8 sampled requests equal to greedy_generate_serial before the first divergence"),
)

DIAGNOSTICS: Tuple[MetricDef, ...] = (
    MetricDef("paced_ttft_tail_ms", "ms", "lower",
              "TTFT at the tail percentile the sample supports; seed-to-seed spread 0.2-0.4 (p95 of the bursty pair), equal to the median below 40 requests"),
    MetricDef("paced_itl_p50_ms", "ms", "lower",
              "median over all gaps between consecutive on_token stamps; bimodal behind the cluster's pump (spread 0.9)"),
    MetricDef("paced_itl_tail_ms", "ms", "lower",
              "same gaps at their tail percentile; one interleaved prefill chunk moves it 5x on the prefill pair (spread 0.4-4)"),
    MetricDef("paced_ttft_max_ms", "ms", "lower",
              "the slowest request's TTFT; the SLO's TTFT limit is 2x its median over the seed commit's runs"),
    MetricDef("paced_mean_itl_max_ms", "ms", "lower",
              "the largest per-request mean gap; the SLO's ITL limit is 2x its median over the seed commit's runs"),
    MetricDef("offline_requests_per_s", "1/s", "higher",
              "requests sent / offline-phase wall: the base the frozen paced rate is 0.6x of"),
    MetricDef("paced.generator_lag_ms_p99", "ms", "lower",
              "actual submit - due; measured in the paced phase, which only the untraced run has"),
    MetricDef("cluster.tokens_per_s_vs_single", "ratio", "higher",
              "cluster offline tok/s / single-engine tok/s on the same trace; cluster workload only"),
    MetricDef("cluster.submit_us_p50", "us", "lower", "EngineCluster.submit_async duration; cluster workload only"),
    MetricDef("cluster.start_s", "s", "lower", "EngineCluster construct -> all workers ready; cluster workload only"),
    MetricDef("cluster.shutdown_s", "s", "lower", "EngineCluster.shutdown duration; cluster workload only"),
)

# Which spans make up which layer's busy time.
LAYER_SPANS: Dict[str, Tuple[str, ...]] = {
    "engine": ("engine.step", "engine.submit"),
    "scheduler": ("scheduler.next_batch", "scheduler.select_victim"),
    "prefix_cache": ("prefix_cache.lookup", "prefix_cache.insert"),
    "model": ("model.prefill_chunk_batched", "model.decode_steps_batched"),
    "policy": (
        "policy.run_group_decode", "policy.decode_step", "policy.decode_step_group",
        "policy.prefill", "policy.prefill_precomputed", "policy.prefill_extend",
    ),
    "kv_pool": (
        "kv_pool.gather_padded", "kv_pool.store_gather",
        "kv_pool.write_rows", "kv_pool.alloc", "kv_pool.copy_page",
    ),
    "kv_codec": ("kv_codec.encode", "kv_codec.decode"),
    "cluster": (
        "cluster.submit_async", "cluster.route", "cluster.start", "cluster.shutdown",
    ),
    "benchmark": ("bench.sample",),
}

TAIL_CANDIDATES = (99, 95, 90, 75, 50)


def tail_percentile(num_samples: int) -> int:
    """Highest of {50, 75, 90, 95, 99} with at least ten samples beyond it
    (50 when the sample supports no tail at all)."""
    for p in TAIL_CANDIDATES:
        if num_samples * (100 - p) / 100.0 >= 10:
            return p
    return 50


def percentile(values: Sequence[float], p: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), p)) if len(values) else 0.0


def quartile_spread(values: Sequence[float]) -> Tuple[float, float, float, float]:
    """``(median, q1, q3, (q3 - q1) / median)`` as the driver computes it."""
    median = statistics.median(values)
    if len(values) < 2:
        return median, median, median, 0.0
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / abs(median) if median else 0.0


# ----------------------------------------------------------------------
# End to end
# ----------------------------------------------------------------------
ITL_WINDOW = 8


def latency_samples(paced):
    """Seconds: TTFT per request sent (from its due time), every gap
    between consecutive tokens, every ``ITL_WINDOW``-token window's mean
    gap, and the mean gap per request."""
    ttft: List[float] = []
    itl: List[float] = []
    windows: List[float] = []
    mean_itl: Dict[str, float] = {}
    for rid, times in paced.stamps.items():
        if not times:
            continue
        ttft.append(times[0] - (paced.start_s + paced.due_s[rid]))
        itl.extend(b - a for a, b in zip(times, times[1:]))
        k = min(ITL_WINDOW, len(times) - 1)
        if k:
            windows.extend((b - a) / k for a, b in zip(times, times[k:]))
            mean_itl[rid] = (times[-1] - times[0]) / (len(times) - 1)
    return ttft, itl, windows, mean_itl


def end_to_end(workload, setups, offline, paced, rss_mb):
    """``(end-to-end values, latency diagnostics, sample counts and limits)``."""
    ttft, itl, windows, mean_itl = latency_samples(paced)
    ttft_tail = tail_percentile(len(ttft))
    itl_tail = tail_percentile(len(itl))
    per_request = list(mean_itl.values())
    in_slo = 0
    for rid, reason in paced.finish.items():
        times = paced.stamps.get(rid) or []
        if reason == "error" or not times:
            continue
        first = times[0] - (paced.start_s + paced.due_s[rid])
        if (
            first * 1e3 <= workload.slo_ttft_ms
            and mean_itl.get(rid, 0.0) * 1e3 <= workload.slo_itl_ms
        ):
            in_slo += 1
    values = {
        "setup_s": statistics.median(setups),
        "offline_tokens_per_s": offline.tokens_out / offline.wall_s,
        "paced_ttft_p50_ms": percentile(ttft, 50) * 1e3,
        "paced_itl8_p50_ms": percentile(windows, 50) * 1e3,
        "paced_slo_share": in_slo / paced.sent,
        "peak_rss_mb": rss_mb,
    }
    diagnostics = {
        "paced_ttft_tail_ms": percentile(ttft, ttft_tail) * 1e3,
        "paced_itl_p50_ms": percentile(itl, 50) * 1e3,
        "paced_itl_tail_ms": percentile(itl, itl_tail) * 1e3,
        "paced_ttft_max_ms": max(ttft, default=0.0) * 1e3,
        "paced_mean_itl_max_ms": max(per_request, default=0.0) * 1e3,
        "offline_requests_per_s": offline.sent / offline.wall_s,
        "paced.generator_lag_ms_p99": percentile(paced.lag_s, 99) * 1e3,
    }
    detail = {
        "setup_samples": len(setups),
        "ttft_samples": len(ttft),
        "ttft_tail_percentile": ttft_tail,
        "itl_samples": len(itl),
        "itl_tail_percentile": itl_tail,
        "slo_ttft_ms": workload.slo_ttft_ms,
        "slo_itl_ms": workload.slo_itl_ms,
        "paced_rate_per_s": workload.paced_rate,
        "itl8_samples": len(windows),
    }
    return values, diagnostics, detail


# ----------------------------------------------------------------------
# Per layer
# ----------------------------------------------------------------------
_EMPTY = {"calls": 0, "dur_s": 0.0, "self_s": 0.0, "count": 0, "durs": []}


def worker_summaries(traced, parent_summary) -> List[Dict[str, object]]:
    """Span summaries of the processes that served requests: the parent on
    a single engine, the forked workers on the cluster."""
    workers = (traced.raw_stats or {}).get("workers")
    if not workers:
        return [parent_summary]
    return [w[SUMMARY_KEY] for w in workers if w and SUMMARY_KEY in w]


def layer_self_seconds(summary) -> Dict[str, float]:
    names = summary["names"]
    return {
        layer: sum(names.get(span, _EMPTY)["self_s"] for span in spans)
        for layer, spans in LAYER_SPANS.items()
    }


def per_layer(workload, trace, traced, untraced_wall_s,
              match_share, leaked_segments) -> Tuple[Dict[str, float], Dict[str, object]]:
    """Every ``PER_LAYER`` value from the traced offline run.

    Busy shares divide by the traced wall times the number of serving
    processes (worker-seconds), so they stay comparable between one engine
    and the 2-process cluster."""
    parent_summary = traced.summary
    serving = worker_summaries(traced, parent_summary)
    merged = merge_summaries(serving)
    names = merged["names"]
    wall = traced.wall_s * len(serving)
    stats = traced.stats

    def span(name):
        return names.get(name, _EMPTY)

    def self_s(*span_names):
        return sum(span(n)["self_s"] for n in span_names)

    def p(name, q):
        return percentile(span(name)["durs"], q)

    steps = stats["steps"]
    step, decode = span("engine.step"), span("model.decode_steps_batched")
    prefill, group = span("model.prefill_chunk_batched"), span("policy.run_group_decode")
    gathered = span("kv_pool.gather_padded")["count"] + span("kv_pool.store_gather")["count"]

    fed = prefill["count"] + decode["count"]
    totals = traced.policy
    first_pass, attended, cached = totals["first_pass_tokens"], totals["attended"], totals["cached"]
    decode_steps, evictions = totals["decode_steps"], totals["evictions"]
    prompt_tokens = sum(len(record.prompt_ids) for record in trace)
    cache = stats.get("prefix_cache") or {}
    pool = stats.get("kv_pool") or {}
    admission = stats.get("admission") or {}
    prune_self = self_s("policy.prefill", "policy.prefill_precomputed", "policy.prefill_extend")
    per_worker_fed = [
        s["names"].get("model.prefill_chunk_batched", _EMPTY)["count"]
        + s["names"].get("model.decode_steps_batched", _EMPTY)["count"]
        for s in serving
    ]
    mean_fed = sum(per_worker_fed) / len(per_worker_fed)
    energy = simulated_energy(workload, totals)

    values = {
        "engine.steps": steps,
        "engine.step_ms_p50": p("engine.step", 50) * 1e3,
        "engine.step_ms_p99": p("engine.step", 99) * 1e3,
        "engine.step_self_share": self_s(*LAYER_SPANS["engine"]) / wall,
        "engine.batch_size_mean": decode["count"] / decode["calls"] if decode["calls"] else 0.0,
        "engine.preemptions": stats["preemption"]["preemptions"],
        "engine.wasted_token_share": max(fed - first_pass, 0) / fed if fed else 0.0,
        "scheduler.busy_share": self_s(*LAYER_SPANS["scheduler"]) / wall,
        "scheduler.next_batch_us_p50": p("scheduler.next_batch", 50) * 1e6,
        "scheduler.queue_wait_ms_p50": percentile(merged["queue_wait_s"], 50) * 1e3,
        "scheduler.page_deferrals": admission.get("page_deferrals", 0),
        "scheduler.prefill_tokens_per_step_mean": prefill["count"] / steps if steps else 0.0,
        "prefix_cache.hit_rate": cache.get("hit_rate", 0.0),
        "prefix_cache.tokens_reused_share": cache.get("tokens_reused", 0) / prompt_tokens,
        "prefix_cache.busy_share": self_s(*LAYER_SPANS["prefix_cache"]) / wall,
        "prefix_cache.lookup_us_p50": p("prefix_cache.lookup", 50) * 1e6,
        "model.prefill_busy_share": prefill["self_s"] / wall,
        "model.prefill_ms_per_ktoken": prefill["dur_s"] * 1e6 / prefill["count"] if prefill["count"] else 0.0,
        "model.decode_ms_per_step_p50": p("model.decode_steps_batched", 50) * 1e3,
        "model.dense_self_share": decode["self_s"] / wall,
        "policy.decode_busy_share": self_s(
            "policy.run_group_decode", "policy.decode_step", "policy.decode_step_group"
        ) / wall,
        "policy.decode_group_ms_p50": p("policy.run_group_decode", 50) * 1e3,
        "policy.group_span_mean": group["count"] / group["calls"] if group["calls"] else 0.0,
        "policy.prefill_prune_ms_per_request": prune_self * 1e3 / len(trace),
        "policy.attended_share": attended / cached if cached else 0.0,
        "policy.cache_tokens_mean": cached / decode_steps if decode_steps else 0.0,
        "policy.evictions": evictions,
        "kv_pool.gather_busy_share": self_s("kv_pool.gather_padded", "kv_pool.store_gather") / wall,
        "kv_pool.write_busy_share": self_s("kv_pool.write_rows", "kv_pool.alloc", "kv_pool.copy_page") / wall,
        "kv_pool.gather_mbytes_per_step": gathered / 1e6 / steps if steps else 0.0,
        "kv_pool.page_allocs": pool.get("page_allocs", 0),
        "kv_pool.cow_splits": pool.get("cow_splits", 0),
        "kv_pool.peak_pages_share": _peak_pages_share(traced),
        "kv_pool.reserved_unused_share": float(np.mean(merged["reserved_samples"])) if merged["reserved_samples"] else 0.0,
        "kv_pool.bytes_per_token": pool.get("bytes_per_token", 0.0),
        "kv_codec.encode_busy_share": span("kv_codec.encode")["self_s"] / wall,
        "kv_codec.decode_busy_share": span("kv_codec.decode")["self_s"] / wall,
        "kv_codec.decode_mbytes_per_step": span("kv_codec.decode")["count"] / 1e6 / steps if steps else 0.0,
        "cluster.worker_token_imbalance": (max(per_worker_fed) - min(per_worker_fed)) / mean_fed if mean_fed else 0.0,
        "cluster.shm_leaked_segments": leaked_segments,
        "energy.sim_energy_per_token_nj": energy[0],
        "energy.sim_delay_per_token_ns": energy[1],
        "energy.sim_aedp": energy[2],
        "trace.overhead_share": traced.wall_s / untraced_wall_s - 1.0,
        "quality.token_match_share": match_share,
    }
    layer_self = layer_self_seconds(merged)
    # On the cluster the parent's own spans (submit, route, shutdown)
    # overlap the workers' wall: reported, but kept out of worker-seconds.
    parent_layers = layer_self_seconds(parent_summary) if traced.raw_stats else {}
    detail = {
        "serving_processes": len(serving),
        "traced_wall_s": traced.wall_s,
        "untraced_wall_s": untraced_wall_s,
        "layer_self_s": layer_self,
        "layer_self_share": {k: v / wall for k, v in layer_self.items()},
        "self_time_coverage": sum(layer_self.values()) / wall,
        "parent_layer_self_s": parent_layers,
        "span_calls": {name: entry["calls"] for name, entry in sorted(names.items())},
        "sample_counts": {
            "engine.step": step["calls"],
            "scheduler.next_batch": span("scheduler.next_batch")["calls"],
            "scheduler.queue_wait": len(merged["queue_wait_s"]),
            "prefix_cache.lookup": span("prefix_cache.lookup")["calls"],
            "model.decode_steps_batched": decode["calls"],
            "policy.run_group_decode": group["calls"],
        },
    }
    return values, detail


def _peak_pages_share(phase) -> float:
    """Peak pages in use / arena pages, summed over serving processes
    (merged cluster stats keep only the *max* worker peak)."""
    sections = [
        (w or {}).get("kv_pool") for w in (phase.raw_stats or {}).get("workers") or []
    ] or [phase.stats.get("kv_pool")]
    sections = [s for s in sections if s]
    total = sum(s["pages_total"] for s in sections)
    return sum(s["peak_pages_in_use"] for s in sections) / total if total else 0.0


def simulated_energy(workload, totals) -> Tuple[float, float, float]:
    """``repro.energy``'s UniCAIM accelerator model evaluated on an
    ``AttentionWorkload`` derived from what the policies actually did:
    mean prompt length, static keep ratio, mean cache size and attended
    share of the run's own ``PolicyStats``.  Simulated device time, not
    host time — deterministic for a seed."""
    from repro.energy import AttentionWorkload, UniCAIMModel

    layers = totals["layers"]
    if not layers:
        return 0.0, 0.0, 0.0
    prompt = totals["prefill_tokens"] / layers
    retained = totals["retained"] / layers
    peak = totals["peak_cache"] / layers
    attended, cached = totals["attended"], totals["cached"]
    shape = workload.model
    sim = AttentionWorkload(
        input_len=max(1, round(prompt)),
        output_len=max(0, round(totals["decode_steps"] / layers)),
        head_dim=shape.head_dim,
        num_heads=shape.num_heads,
        static_keep_ratio=min(1.0, max(retained / prompt, 1e-6)) if prompt else 1.0,
        dynamic_keep_ratio=min(1.0, max(attended / cached, 1e-6)) if cached else 1.0,
        reserved_tokens=max(1, round(peak - retained)),
    )
    result = UniCAIMModel().metrics(sim)
    return result.step_energy * 1e9, result.step_delay * 1e9, result.aedp * 1e18
