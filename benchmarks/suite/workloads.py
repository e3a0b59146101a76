"""The six named serving workloads: inputs, engine configuration, frozen rates.

Everything that defines *what is measured* lives here as data, so the
measurement cannot drift with ``src/``: trace shapes (via
:mod:`tracegen`), KV policies with explicit parameters, engine knobs, the
paced phase's fixed arrival rate and the SLO limits.  ``REF_SECONDS`` is
the ``run_seconds`` of ``BENCHMARK.json``; request counts are stated for it
and scale linearly with ``--seconds``.

The paced rates are frozen at 0.5-0.7x the offline request rate measured
at the seed commit on the 2-core reference host (the two partner workloads
run at their control's rate), and the SLO limits at 2x the slowest
request of a typical seed-commit run (see README.md for the numbers).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Dict, Optional

from tracegen import Tenant, TraceSpec

REF_SECONDS = 14


# ----------------------------------------------------------------------
# Models (both fp64)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ModelShape:
    vocab_size: int
    model_dim: int
    num_heads: int
    head_dim: int
    num_layers: int
    mlp_hidden_dim: int


M128 = ModelShape(4096, 128, 4, 32, 2, 256)
T16 = ModelShape(89, 16, 2, 8, 2, 24)


def build_model(shape: ModelShape):
    from repro.llm.config import ModelConfig
    from repro.llm.model import TransformerLM

    return TransformerLM(
        ModelConfig(
            vocab_size=shape.vocab_size,
            model_dim=shape.model_dim,
            num_heads=shape.num_heads,
            head_dim=shape.head_dim,
            num_layers=shape.num_layers,
            mlp_hidden_dim=shape.mlp_hidden_dim,
            seed=5,
        )
    )


# ----------------------------------------------------------------------
# KV policies (module-level factories: explicit parameters, picklable)
# ----------------------------------------------------------------------
def unicaim_reference(heads: int, dim: int):
    """The paper's Sec. IV-A reference point: 512 heavy + 64 reserved
    tokens, 20 % dynamic keep (top-k 115 of 576)."""
    from repro.core.config import PruningConfig
    from repro.core.hybrid import UniCAIMPolicy

    return UniCAIMPolicy(
        heads, dim, config=PruningConfig(heavy_budget=512, reserved_budget=64, top_k=115)
    )


# The seven-policy mix runs every policy at a 128-token budget (cache
# ratio 0.5 of a 256-token prompt), 25 % of it attended per step.
MIX_BUDGET = 128


def _mix_unicaim_config():
    from repro.core.config import PruningConfig

    return PruningConfig(
        heavy_budget=112, reserved_budget=16, top_k=32, sink_tokens=2, recent_protect=4
    )


def mix_full(heads: int, dim: int):
    from repro.core.policy import FullCachePolicy

    return FullCachePolicy(heads, dim)


def mix_unicaim(heads: int, dim: int):
    from repro.core.hybrid import UniCAIMPolicy

    return UniCAIMPolicy(heads, dim, config=_mix_unicaim_config())


def mix_unicaim_cam(heads: int, dim: int):
    from repro.core.dynamic_pruning import CAMApproximateSelector, CAMSelectorConfig
    from repro.core.hybrid import UniCAIMPolicy

    selector = CAMApproximateSelector(CAMSelectorConfig(key_bits=3, query_bits=2, seed=0))
    return UniCAIMPolicy(heads, dim, config=_mix_unicaim_config(), selector=selector)


def mix_snapkv(heads: int, dim: int):
    from repro.core.baselines import SnapKVPolicy

    return SnapKVPolicy.from_budget(heads, dim, budget=MIX_BUDGET, observation_window=16)


def mix_streaming_llm(heads: int, dim: int):
    from repro.core.baselines import StreamingLLMPolicy

    return StreamingLLMPolicy.from_budget(heads, dim, budget=MIX_BUDGET, sink_tokens=4)


def mix_h2o(heads: int, dim: int):
    from repro.core.baselines import H2OPolicy

    return H2OPolicy.from_budget(heads, dim, budget=MIX_BUDGET)


def mix_quest(heads: int, dim: int):
    from repro.core.baselines import QuestPolicy

    return QuestPolicy.from_budget(heads, dim, budget=MIX_BUDGET // 4, page_size=16)


PolicyFactory = Callable[[int, int], object]

# ``None`` = the engine default (full cache), which needs no pickling when
# requests cross the process boundary of the cluster workload.
POLICY_TABLE: Dict[str, Optional[PolicyFactory]] = {
    "default": None,
    "unicaim_ref": unicaim_reference,
    "full": mix_full,
    "unicaim": mix_unicaim,
    "unicaim_cam": mix_unicaim_cam,
    "snapkv": mix_snapkv,
    "streaming_llm": mix_streaming_llm,
    "h2o": mix_h2o,
    "quest": mix_quest,
}

SEVEN_POLICIES = (
    "full", "unicaim", "unicaim_cam", "snapkv", "streaming_llm", "h2o", "quest",
)


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    model: ModelShape
    trace: TraceSpec
    num_requests: int  # at REF_SECONDS
    paced_rate: float  # requests/s, frozen (see module docstring)
    slo_ttft_ms: float
    slo_itl_ms: float
    page_size: int
    num_pages: int  # per layer
    max_batch_size: Optional[int]
    max_tokens_per_step: Optional[int] = None
    codec: Optional[str] = None
    admission: str = "reserve"
    cluster_workers: int = 0
    # Name that seeds the trace: the cluster workload replays the bursty
    # workload's trace, request for request.
    trace_name: Optional[str] = None
    # Serial-reference identity is only promised for float storage.
    exact_vs_serial: bool = True

    def requests_for(self, seconds: float) -> int:
        return max(2, round(self.num_requests * seconds / REF_SECONDS))


def _single_tenant(prompt, output, policies=("unicaim_ref",), **kwargs) -> TraceSpec:
    return TraceSpec(
        tenants=(Tenant("main", 1.0, prompt, output, policies=policies, **kwargs),),
        vocab_size=M128.vocab_size,
    )


_BURSTY_TRACE = TraceSpec(
    tenants=(
        Tenant("interactive", 10, (8, 14), (16, 24), priority=2, policies=("default",)),
        Tenant("batch", 8, (10, 16), (32, 48), priority=0, policies=("default",)),
        Tenant("steady", 8, (8, 14), (32, 48), priority=1, policies=("default",)),
    ),
    vocab_size=T16.vocab_size,
    burst=4,
)

_BURSTY = dict(
    model=T16,
    trace=_BURSTY_TRACE,
    page_size=8,
    num_pages=20,
    max_batch_size=None,
    admission="optimistic",
)

WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="long_context_decode",
            why="paper regime: UniCAIM 512+64 cache, hundreds of top-k/accumulate/evict decode steps; policy, gathers and decode GEMMs do the work",
            model=M128,
            trace=_single_tenant((512, 640), (384, 512)),
            num_requests=8,
            paced_rate=0.95,
            slo_ttft_ms=730.0,
            slo_itl_ms=6.0,
            page_size=16,
            num_pages=1024,
            max_batch_size=8,
            max_tokens_per_step=256,
        ),
        Workload(
            name="long_prompt_prefill",
            why="TTFT-bound unshared long prompts: batched chunked prefill, static prune and span writes dominate; prefix-cache bypass control",
            model=M128,
            trace=_single_tenant((384, 640), (16, 32)),
            num_requests=24,
            paced_rate=2.8,
            slo_ttft_ms=870.0,
            slo_itl_ms=45.0,
            page_size=16,
            num_pages=1024,
            max_batch_size=8,
            max_tokens_per_step=256,
        ),
        Workload(
            name="shared_prefix_prefill",
            why="same lengths, two tenants, 80% of prompts share a 384-token tenant prefix: prefix-cache lookup, CoW adoption and cached admission decide TTFT",
            model=M128,
            trace=TraceSpec(
                tenants=tuple(
                    Tenant(
                        name, 1.0, (384, 640), (16, 32), policies=("unicaim_ref",),
                        shared_prefix=384, shared_fraction=0.8,
                    )
                    for name in ("alpha", "beta")
                ),
                vocab_size=M128.vocab_size,
            ),
            num_requests=24,
            paced_rate=2.8,
            slo_ttft_ms=870.0,
            slo_itl_ms=45.0,
            page_size=16,
            num_pages=1024,
            max_batch_size=8,
            max_tokens_per_step=256,
        ),
        Workload(
            name="bursty_short_decode",
            why="tiny model under page pressure: scheduler, step bookkeeping, page alloc/free and preempt/re-prefill are the cost, math is not",
            num_requests=780,
            paced_rate=95.0,
            slo_ttft_ms=115.0,
            slo_itl_ms=6.5,
            **_BURSTY,
        ),
        Workload(
            name="int8_policy_mix_decode",
            why="int8 arena and seven policies in one batch: quantise on write, dequantise in gathers, short group-decode spans",
            model=M128,
            trace=_single_tenant((192, 320), (48, 96), policies=SEVEN_POLICIES),
            num_requests=35,
            paced_rate=4.3,
            slo_ttft_ms=180.0,
            slo_itl_ms=6.0,
            page_size=16,
            num_pages=1024,
            max_batch_size=16,
            max_tokens_per_step=256,
            codec="int8",
            exact_vs_serial=False,
        ),
        Workload(
            name="cluster_bursty_2proc",
            why="the bursty trace behind a 2-process cluster: queues, pump fan-in, shared-memory arenas and routing are on the path; per-token IPC is most of the wall",
            num_requests=780,
            paced_rate=95.0,
            slo_ttft_ms=115.0,
            slo_itl_ms=6.5,
            cluster_workers=2,
            trace_name="bursty_short_decode",
            **_BURSTY,
        ),
    )
}


def smoke_variant(workload: Workload) -> Workload:
    """A tiny profile of ``workload`` for the self-tests (``--smoke``):
    same code paths, an eighth of the M128 lengths, a handful of requests,
    a paced phase of a quarter second.  Not a measurement."""
    num_requests = 26 if workload.model is T16 else 7
    trace = workload.trace
    if workload.model is M128:
        trace = replace(
            trace,
            tenants=tuple(
                replace(
                    t,
                    prompt_len=(t.prompt_len[0] // 8, t.prompt_len[1] // 8),
                    output_len=(min(t.output_len[0], 4), min(t.output_len[1], 8)),
                    shared_prefix=t.shared_prefix // 8,
                )
                for t in trace.tenants
            ),
        )
    return replace(
        workload,
        trace=trace,
        num_requests=num_requests,
        paced_rate=num_requests / 0.25,
    )
