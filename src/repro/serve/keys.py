"""Cache-key scheme for shareable serving assets.

Every asset the server caches — targeted RR sketches, warm query
results — is addressed by an :class:`AssetKey`, a flat hashable tuple
of:

``kind``
    What the asset is (``"trs_sketch"``, ``"result"``); distinct kinds
    never collide even for identical queries.
``targets_digest``
    SHA-256 over the canonical target array (sorted unique ``int64``
    bytes, see :func:`targets_digest`). Any change to the target set —
    adding, removing, or substituting a single node — produces a
    different digest and therefore a cache miss; permutations and
    duplicates of the *same* set digest identically.
``tags``
    The canonical tag tuple (sorted, deduplicated — see
    :func:`canonical_tags`). The server canonicalizes tags before
    executing a query, so two requests naming the same tag *set* in
    different orders share one asset and one (bit-identical) answer.
``params``
    Everything else the asset's bytes depend on, flattened to a
    hashable tuple: the op, ``k``/``r``, the RNG seed, and a digest of
    the sketch configuration. For RR sketches this is the "θ key": θ is
    a deterministic function of ``(graph, targets, tags, k, config,
    seed)``, so two queries agree on the cached sketch *iff* they agree
    on ``(targets_digest, tags, params)`` — the property suite checks
    both directions.
``epoch``
    Graph epoch the asset was computed against. Immutable graphs stay
    at epoch 0 forever, so the field is invisible to them; a mutable
    graph bumps its epoch on every applied edit batch, and assets
    whose touch trace intersected the edit are *not* migrated to the
    new epoch — their keys keep the old epoch and can never satisfy a
    newer query (including the degraded ``find_stale`` tier, which
    filters on epoch).
"""

from __future__ import annotations

import functools
import hashlib
from typing import Iterable, NamedTuple, Sequence

from repro.utils.validation import as_target_array

__all__ = [
    "AssetKey",
    "canonical_tags",
    "config_digest",
    "routing_token",
    "targets_digest",
]


#: Bound on the id-set memos below: at most this many sets, each of at
#: most ``_MEMO_MAX_IDS`` ids, so a memo holds a few MB at worst however
#: many distinct campaigns arrive.
_MEMO_ENTRIES = 256
_MEMO_MAX_IDS = 1024


def _memoized(fn, values, *args):
    """``fn(values, *args)`` through its LRU memo when ``values`` fits.

    The memo is keyed on ``tuple(values)``. Equal keys give equal
    answers: both memoized functions read each id through ``int``,
    and ids that compare equal (``1``, ``1.0``, ``True``) convert to
    the same integer. Unhashable ids and oversized sets bypass it.
    """
    if type(values) in (list, tuple) and len(values) <= _MEMO_MAX_IDS:
        try:
            return fn(tuple(values), *args)
        except TypeError:  # an unhashable id: compute it directly
            pass
    return fn.__wrapped__(values, *args)


def targets_digest(targets: Iterable[int], num_nodes: int) -> str:
    """Collision-resistant digest of a target set.

    Validates exactly like the library entry points (via
    :func:`~repro.utils.validation.as_target_array`) and hashes the
    canonical sorted-unique ``int64`` array, so the digest is a pure
    function of the target *set*: order and duplicates don't matter,
    any single-node mutation does.

    A list or tuple of ids (what a decoded wire request carries) is
    digested through a bounded LRU memo, so a repeated campaign skips
    the validation pass and the hash. Invalid sets raise and are never
    memoized.
    """
    return _memoized(_digest, targets, num_nodes)


@functools.lru_cache(maxsize=_MEMO_ENTRIES)
def _digest(targets: Iterable[int], num_nodes: int) -> str:
    arr = as_target_array(targets, num_nodes, context="targets_digest")
    return hashlib.sha256(arr.tobytes()).hexdigest()


def canonical_tags(tags: Sequence[str]) -> tuple[str, ...]:
    """Canonical form of a tag set: sorted, deduplicated tuple.

    Tag aggregation multiplies per-tag survival probabilities in
    iteration order, so different orders could differ in the last float
    ulp; the server always executes queries with the canonical order so
    all permutations of one tag set share one bit-identical answer.
    """
    return tuple(sorted(dict.fromkeys(tags)))


def config_digest(config: object) -> str:
    """Digest of a (frozen, repr-stable) configuration object."""
    return hashlib.sha256(repr(config).encode("utf-8")).hexdigest()[:16]


#: Request fields that participate in routing. Everything that selects
#: the *asset* a query consumes is included; per-call execution knobs
#: (deadline, QoS class, budget caps, report flag) are not — the same
#: campaign asked politely or urgently must land on the same worker.
_ROUTING_FIELDS = (
    "targets", "tags", "seeds", "k", "r", "seed", "engine", "method",
    "num_samples", "theta_c",
)


def routing_token(request: dict) -> str:
    """Stable placement key for one wire-protocol request.

    A pure function of the request's asset-identifying fields with the
    same canonicalization the :class:`AssetKey` scheme applies (tag
    sets sorted/deduplicated, node-id sets sorted/deduplicated), so two
    requests that would share a cached asset always share a routing
    token — and therefore a worker — while unrelated campaigns spread
    across the ring. Malformed values are kept verbatim: they still
    route deterministically and fail validation on the worker. Each
    present field contributes ``name=repr(value)`` in a fixed order.
    """
    parts = [str(request.get("op", ""))]
    for field in _ROUTING_FIELDS:
        if field not in request:
            continue
        value = request[field]
        if isinstance(value, (list, tuple)):
            if field in ("targets", "seeds"):
                parts.append(f"{field}={_memoized(_id_set_text, value)}")
                continue
            if field == "tags":
                value = list(canonical_tags([str(t) for t in value]))
            else:
                value = list(value)
        parts.append(f"{field}={value!r}")
    return "|".join(parts)


@functools.lru_cache(maxsize=_MEMO_ENTRIES)
def _id_set_text(ids: Sequence) -> str:
    """Canonical text of a node-id set: sorted unique ints, or verbatim."""
    try:
        return repr(sorted(set(map(int, ids))))
    except (TypeError, ValueError):
        return repr(list(ids))


class AssetKey(NamedTuple):
    """Hashable address of one cached serving asset."""

    kind: str
    targets_digest: str
    tags: tuple[str, ...]
    params: tuple
    epoch: int = 0

    def describe(self) -> str:
        """Short human-readable form for logs and metrics labels."""
        return (
            f"{self.kind}[targets={self.targets_digest[:8]}, "
            f"tags={','.join(self.tags)}, params={self.params!r}, "
            f"epoch={self.epoch}]"
        )
