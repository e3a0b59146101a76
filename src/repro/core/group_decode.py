"""Group-vectorized decode: one batched call per policy-homogeneous span.

The serving scheduler orders decode slots so that sequences running the
same policy flavour are contiguous (``policy-homogeneous grouping``, see
:func:`policy_group_key`).  This module holds the machinery that turns each
such span into **one** vectorized selector/eviction/attention call instead
of ``S`` per-sequence ``decode_step`` invocations:

* :func:`group_spans_for` — contiguous same-key runs of a batch's policy
  stacks (the model-level fallback when the scheduler's spans are not
  available).
* :func:`supports_group_decode` — whether a policy instance can safely take
  the vectorized path.  A subclass that overrides ``decode_step`` *below*
  the class providing ``decode_step_group`` changed the per-step semantics
  without updating the group path, so it is routed through the per-sequence
  loop — external policy subclasses keep working unmodified.
* :func:`gather_group_kv` — stacked gather of every member's cached K/V
  rows through the paged pool's block tables into one padded
  ``[S, T_max, h, d]`` tensor plus a length mask (sequences sharing a pool
  arena cost a single arena gather for the whole span).  The full-attention
  policies (full cache, H2O, StreamingLLM, SnapKV) attend every row and
  read this way.
* :func:`read_group_keys` / :func:`attend_selected` — the select-then-
  attend flow of the *selection* policies (UniCAIM, Quest), which attend
  only a top-k subset: score every cached row, pick each member's rows
  (:func:`~repro.core.attention.top_k_rows`, padded to the group's
  largest pick), then read V for the selected rows only and attend over
  ``[S, k_max]`` — about a fifth of the V bytes at the paper's reference
  point, and on quantised arenas only those rows are dequantised.  Quest
  reads K of every row through :func:`read_group_keys`; UniCAIM scores
  its slot-resident key mirror in place
  (:meth:`~repro.core.kv_cache.SlotKVCache.search`) and reads no K.
* :func:`batched_group_attention` — multi-sequence single-query attention
  over padded row sets; padding entries are masked to ``-inf`` so their
  softmax weight is exactly zero.
* :func:`run_group_decode` — the dispatch loop used by the attention layer:
  vectorized spans go through ``decode_step_group``, everything else falls
  back to the per-sequence ``decode_step`` loop, with both paths counted in
  a :class:`GroupDecodeStats` telemetry record.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

import numpy as np

from .attention import softmax
from .kv_pool import (
    PaddedAddresses,
    gather_padded,
    poison_padding_enabled,
    resolve_padded,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .kv_pool import BlockTable
    from .policy import KVCachePolicy


@dataclass
class GroupDecodeStats:
    """Cumulative decode-dispatch telemetry (survives across engine steps).

    ``group_calls`` counts vectorized ``decode_step_group`` invocations
    (one per policy-group span per layer); ``fallback_calls`` counts
    per-sequence ``decode_step`` dispatches (unsupported policies,
    heterogeneous spans and singleton spans); ``vectorized_sequences``
    counts sequence-steps served by a vectorized call.  All three cover
    *multi-sequence* decode steps only: a batch of one rides the
    bit-exact serial path, which is not a group dispatch and is not
    counted.
    """

    group_calls: int = 0
    fallback_calls: int = 0
    vectorized_sequences: int = 0


def policy_group_key(policies: Sequence["KVCachePolicy"]) -> str:
    """Grouping key of one sequence's policy stack.

    Class name of the layer-0 policy, refined by the selector type for
    policies that carry one (UniCAIM exact vs CAM) — sequences with equal
    keys run identical selector math, which is what the batched per-group
    selector implementation needs to be contiguous.
    """
    head = policies[0]
    key = type(head).__name__
    selector = getattr(head, "selector", None)
    if selector is not None:
        key = f"{key}/{type(selector).__name__}"
    return key


def group_spans_for(
    policy_stacks: Sequence[Sequence["KVCachePolicy"]],
) -> List[Tuple[str, int, int]]:
    """Contiguous same-key runs ``(key, start, length)`` over a batch.

    The batch order is taken as given (never re-sorted here); the serving
    scheduler already emits decode slots policy-homogeneously, so its spans
    and these runs coincide.
    """
    spans: List[Tuple[str, int, int]] = []
    for i, stack in enumerate(policy_stacks):
        key = policy_group_key(stack)
        if spans and spans[-1][0] == key:
            name, start, length = spans[-1]
            spans[-1] = (name, start, length + 1)
        else:
            spans.append((key, i, 1))
    return spans


def _mro_definer(cls: type, name: str) -> Optional[type]:
    for klass in cls.__mro__:
        if name in vars(klass):
            return klass
    return None


def supports_group_decode(policy: "KVCachePolicy") -> bool:
    """Whether ``policy`` can take the vectorized group-decode path.

    True when its class provides a real ``decode_step_group`` override
    *and* ``decode_step`` has not been re-overridden by a more derived
    class (which would change per-step semantics the group path does not
    know about — such subclasses fall back to the per-sequence loop).
    """
    from .policy import KVCachePolicy  # local: avoids a module cycle

    cls = type(policy)
    group_owner = _mro_definer(cls, "decode_step_group")
    if group_owner is None or group_owner is KVCachePolicy:
        return False
    step_owner = _mro_definer(cls, "decode_step")
    if step_owner is None:
        return False
    if step_owner is not group_owner and issubclass(step_owner, group_owner):
        return False
    return True


def gather_group_kv(
    tables: Sequence["BlockTable"],
    slot_lists: Sequence[np.ndarray],
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Stacked gather of a group's cached rows into padded tensors.

    Returns ``(keys [S, T, h, d], values [S, T, h, d], lengths [S],
    valid [S, T])`` where row ``s`` holds member ``s``'s rows in the order
    of ``slot_lists[s]`` and ``valid`` masks the padding tail.
    """
    keys, values, lengths = gather_padded(tables, slot_lists)
    T = keys.shape[1]
    valid = np.arange(T)[None, :] < lengths[:, None]
    return keys, values, lengths, valid


def read_group_keys(
    tables: Sequence["BlockTable"],
    slot_lists: Sequence[np.ndarray],
) -> Tuple[PaddedAddresses, np.ndarray, np.ndarray]:
    """Read K (not V) of a group's cached rows; keep the addresses for V.

    Returns ``(addresses, keys [S, T, h, d], valid [S, T])``.  The
    addresses are resolved once; ``addresses.take(...)`` narrows them to
    the selected rows for the value read that :func:`attend_selected`
    consumes.
    """
    addresses = resolve_padded(tables, slot_lists)
    keys = addresses.keys()
    valid = np.arange(keys.shape[1])[None, :] < addresses.lengths[:, None]
    return addresses, keys, valid


def attend_selected(
    queries: np.ndarray,
    selected_raw: np.ndarray,
    values: np.ndarray,
    counts: np.ndarray,
    scales: np.ndarray,
) -> np.ndarray:
    """Attention over each member's selected rows only.

    ``values [S, k_max, h, d]`` are the V rows of each member's selected
    tokens and ``selected_raw [S, h, k_max]`` their unscaled dot products;
    member ``s`` attends its first ``counts[s]`` of them (the rest is
    padding).  Returns ``[S, h, d]``.
    """
    attend = np.arange(values.shape[1])[None, :] < counts[:, None]
    outputs, _ = batched_group_attention(
        queries, None, values, attend, scales=scales, raw_scores=selected_raw
    )
    return outputs


def batched_group_attention(
    queries: np.ndarray,
    keys: Optional[np.ndarray],
    values: np.ndarray,
    valid: np.ndarray,
    scales: Optional[np.ndarray] = None,
    raw_scores: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Multi-sequence single-query attention over padded row sets.

    ``queries [S, h, d]``, padded ``keys``/``values [S, T, h, d]`` and a
    boolean ``valid [S, T]`` padding mask.  Padding entries are scored
    ``-inf``, so their softmax weight is exactly ``0.0`` and the output
    equals attention over each member's own rows alone.  ``scales`` is the
    per-member softmax scale; ``raw_scores [S, h, T]`` (the *unscaled* dot
    products) may be passed in instead of ``keys`` when the caller already
    computed them.

    Returns ``(outputs [S, h, d], raw_scores [S, h, T])``.
    """
    q = np.asarray(queries, dtype=np.float64)
    v = np.asarray(values, dtype=np.float64)
    if raw_scores is None:
        k = np.asarray(keys, dtype=np.float64)
        raw_scores = np.einsum("sthd,shd->sht", k, q)
    if scales is not None:
        masked = raw_scores * np.asarray(scales, dtype=np.float64)[:, None, None]
    else:
        masked = raw_scores.copy()
    np.copyto(masked, -np.inf, where=~valid[:, None, :])
    probs = softmax(masked, axis=-1)
    if poison_padding_enabled():
        # Poisoned padding rows are NaN and 0.0 * NaN is NaN, so the
        # contraction below would smear the poison into every output even
        # though the masked softmax weight is exactly zero.  Zeroing the
        # masked rows keeps the debug mode transparent: a 0.0 weight times
        # a 0.0 value contributes the same exact 0.0 as in normal mode.
        v = np.where(valid[:, :, None, None], v, 0.0)
    outputs = np.einsum("sht,sthd->shd", probs, v)
    return outputs, raw_scores


def run_group_decode(
    queries: np.ndarray,
    keys: np.ndarray,
    values: np.ndarray,
    positions: Sequence[int],
    policies: Sequence["KVCachePolicy"],
    spans: Optional[Sequence[Tuple[str, int, int]]] = None,
    telemetry: Optional[GroupDecodeStats] = None,
) -> np.ndarray:
    """One decode step for ``B`` sequences, dispatched per policy group.

    ``queries``/``keys``/``values`` are the projected per-sequence tensors
    ``[B, h, d]`` (one row per sequence).  Each span whose policies support
    the vectorized path executes as a single
    :meth:`~repro.core.policy.KVCachePolicy.decode_step_group` call; spans
    of length one, heterogeneous spans and unsupported policies run the
    per-sequence ``decode_step`` loop.  Returns head outputs ``[B, h, d]``.
    """
    batch = len(policies)
    if spans is None:
        spans = group_spans_for([[p] for p in policies])
    head_out = np.empty(
        (batch, queries.shape[1], queries.shape[2]), dtype=np.float64
    )
    for _key, start, length in spans:
        stop = start + length
        members = list(policies[start:stop])
        vectorized = False
        if length > 1 and supports_group_decode(members[0]) and all(
            type(p) is type(members[0]) for p in members
        ):
            out = members[0].decode_step_group(
                queries[start:stop],
                keys[start:stop],
                values[start:stop],
                [int(p) for p in positions[start:stop]],
                members,
            )
            if out is not None:
                head_out[start:stop] = out
                vectorized = True
                if telemetry is not None:
                    telemetry.group_calls += 1
                    telemetry.vectorized_sequences += length
        if not vectorized:
            for b in range(start, stop):
                head_out[b] = policies[b].decode_step(
                    queries[b], keys[b], values[b], int(positions[b])
                )
                if telemetry is not None:
                    telemetry.fallback_calls += 1
    return head_out


__all__ = [
    "GroupDecodeStats",
    "attend_selected",
    "batched_group_attention",
    "gather_group_kv",
    "group_spans_for",
    "policy_group_key",
    "read_group_keys",
    "run_group_decode",
    "supports_group_decode",
]
