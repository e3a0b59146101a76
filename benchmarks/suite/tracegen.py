"""The suite's own request-trace generator.

Every workload's inputs come from here and from nothing under ``src/``:
a change to ``repro.serving.workload`` (or any other library module) can
never change what the benchmark feeds the system.  A trace is a list of
plain :class:`Record` tuples drawn from ``numpy.random.default_rng`` seeded
with ``(seed, crc32(workload name))``; the same seed gives the same trace
byte for byte, and :func:`trace_sha256` fingerprints it.

Three deliberate variance reductions keep a *regression* benchmark steady
across seeds without making every seed the same trace:

* prompt and output lengths are a seeded permutation of an even grid over
  the tenant's range, so total token volume is identical for every seed
  and only which request gets which length (and every token id) varies;
* the number of prompts that carry a tenant's shared prefix is exact
  (``round(fraction * n)``) and the unshared ones sit at evenly spaced
  length ranks; only their place in the arrival order is drawn;
* arrivals are evenly spaced with a seeded jitter of +-``JITTER`` of the
  gap (bursty traces: evenly spaced clusters of ``burst`` simultaneous
  requests), at exactly 1 request per virtual second; the paced phase
  divides by the workload's frozen rate to get wall-clock due times.
  Poisson arrivals were tried first: with the 8-56 requests a 14-second
  run affords on the M128 workloads, median TTFT moved by 30-130 % of
  itself from seed to seed, which measures the draw, not the system.
"""

from __future__ import annotations

import hashlib
import json
import zlib
from dataclasses import dataclass
from typing import List, NamedTuple, Sequence, Tuple

import numpy as np


class Record(NamedTuple):
    """One request of a trace.  ``due_s`` is in *virtual* seconds at a mean
    rate of 1 request/s; ``policy`` names a KV policy of the workload's
    policy table."""

    due_s: float
    prompt_ids: Tuple[int, ...]
    max_new_tokens: int
    policy: str
    priority: int
    tenant: str


@dataclass(frozen=True)
class Tenant:
    """One tenant's traffic shape.

    ``weight`` is the tenant's share of the trace's requests;
    ``policies`` are assigned round-robin in the tenant's request order;
    a ``shared_fraction`` of prompts start with the tenant's own
    ``shared_prefix``-token prefix (drawn once per trace)."""

    name: str
    weight: float
    prompt_len: Tuple[int, int]
    output_len: Tuple[int, int]
    priority: int = 0
    policies: Tuple[str, ...] = ("full",)
    shared_prefix: int = 0
    shared_fraction: float = 0.0


@dataclass(frozen=True)
class TraceSpec:
    """Tenants plus the arrival process.  ``burst`` > 1 groups each
    tenant's requests into back-to-back clusters of that size."""

    tenants: Tuple[Tenant, ...]
    vocab_size: int
    burst: int = 1


def request_id(index: int) -> str:
    return f"r{index:05d}"


def _even_lengths(lo: int, hi: int, n: int, rng: np.random.Generator) -> np.ndarray:
    grid = np.rint(np.linspace(lo, hi, n)).astype(np.int64)
    return rng.permutation(grid)


JITTER = 0.2


def _arrivals(n: int, burst: int, phase: float, rng: np.random.Generator) -> np.ndarray:
    """``n`` arrival times at unit mean rate: one cluster of ``burst``
    requests every ``burst`` virtual seconds, each cluster start jittered.
    ``phase`` in [0, 1) offsets the stream by that share of its period, so
    tenants interleave evenly instead of moving in lockstep (a random
    phase made two same-period tenants coincide on some seeds and not on
    others, which doubled the decode batch and the ITL with it)."""
    burst = max(burst, 1)
    clusters = -(-n // burst)
    jitter = rng.uniform(-JITTER, JITTER, size=clusters)
    starts = (phase + np.arange(clusters) + jitter) * burst
    index = np.arange(n)
    return starts[index // burst] + 1e-3 * (index % burst)


def _shared_flags(prompts: np.ndarray, num_shared: int) -> np.ndarray:
    """Which prompts carry the tenant's prefix: all but ``n - num_shared``
    picked at evenly spaced *length ranks*, so the mix of shared and
    unshared lengths is the same for every seed (a hit's TTFT grows with
    its unshared suffix; a random pick moved the median TTFT by 30 %)."""
    n = len(prompts)
    rank = np.argsort(np.argsort(prompts, kind="stable"), kind="stable")
    unshared = np.rint(np.linspace(0, n - 1, n - num_shared + 2)[1:-1]).astype(int)
    return ~np.isin(rank, unshared)


def tenant_counts(spec: TraceSpec, num_requests: int) -> List[int]:
    """Split ``num_requests`` over tenants by weight (largest remainder)."""
    weights = np.asarray([t.weight for t in spec.tenants], dtype=np.float64)
    exact = weights / weights.sum() * num_requests
    counts = np.floor(exact).astype(int)
    for i in np.argsort(-(exact - counts), kind="stable")[: num_requests - counts.sum()]:
        counts[i] += 1
    return [int(c) for c in counts]


def generate(spec: TraceSpec, num_requests: int, seed: int, name: str) -> List[Record]:
    """Expand ``spec`` into an arrival-ordered trace of ``num_requests``."""
    if num_requests < 1:
        raise ValueError("num_requests must be >= 1")
    rng = np.random.default_rng([int(seed), zlib.crc32(name.encode())])
    rows = []
    for t_index, (tenant, n) in enumerate(
        zip(spec.tenants, tenant_counts(spec, num_requests))
    ):
        if n == 0:
            continue
        # Each tenant offers weight-proportional load: unit-rate arrivals
        # stretched by its share, merged below.
        phase = t_index / len(spec.tenants)
        times = _arrivals(n, spec.burst, phase, rng) * (num_requests / n)
        prompts = _even_lengths(*tenant.prompt_len, n, rng)
        outputs = _even_lengths(*tenant.output_len, n, rng)
        prefix = rng.integers(0, spec.vocab_size, size=tenant.shared_prefix)
        shared = _shared_flags(prompts, round(tenant.shared_fraction * n))
        for i in range(n):
            length = int(prompts[i])
            if shared[i] and length > prefix.size:
                tail = rng.integers(0, spec.vocab_size, size=length - prefix.size)
                ids = np.concatenate([prefix, tail])
            else:
                ids = rng.integers(0, spec.vocab_size, size=length)
            rows.append(
                (
                    float(times[i]),
                    t_index,
                    i,
                    tuple(int(t) for t in ids),
                    int(outputs[i]),
                    tenant.policies[i % len(tenant.policies)],
                    tenant.priority,
                    tenant.name,
                )
            )
    rows.sort(key=lambda row: row[:3])
    first = rows[0][0]
    return [Record(row[0] - first, *row[3:]) for row in rows]


def trace_sha256(trace: Sequence[Record]) -> str:
    payload = json.dumps([list(record) for record in trace], separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()
