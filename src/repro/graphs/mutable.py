"""Mutable, versioned graph substrate: edit layers over an immutable base.

A :class:`MutableTagGraph` stacks an append-only sequence of *edit
layers* copy-on-write over an immutable :class:`~repro.graphs.TagGraph`
base, in the spirit of layered views (layers record deltas; views
materialize them). Each :meth:`MutableTagGraph.apply` call appends one
layer and advances the *epoch* — a monotonically increasing version
number. Epoch ``0`` (or whatever the base was compacted at) is the base
snapshot; :meth:`MutableTagGraph.snapshot` materializes any epoch as a
plain immutable :class:`TagGraph`, sharing the per-tag arrays of every
tag the edits never touched.

Edit semantics
--------------
* Node count is fixed at construction; edits never add or remove nodes.
* :class:`EdgeAdd` appends a new edge and returns it the next free edge
  id (``m``, ``m+1``, …). Existing edge ids never shift.
* :class:`EdgeRemove` *tombstones* an edge: every ``P(e | c)`` entry is
  cleared so the edge can never activate, but the ``src``/``dst`` rows
  and the edge id remain. Keeping ids stable is what lets downstream
  RR-sketch repair (:mod:`repro.sketch.incremental`) re-use per-edge
  coin streams: edge ``e``'s random coins are a function of ``e``'s id,
  so a tombstone changes *which* coins matter, never which coins exist.
* :class:`TagSet` sets ``P(e | c) = p`` (creating or overwriting the
  sparse entry); :class:`TagUnset` deletes it (``P(e | c) = 0``).

Dirty tracking
--------------
``dirty_edges(since)`` / ``dirty_nodes(since)`` report which edge ids —
and which edge *destination* nodes — were touched by any layer after
epoch ``since``. The destination-node form is exactly the key the
incremental sketch repair needs: a reverse-reachable set sampled before
the edit can only change if the destination of an edited edge was a
member of the set (the reverse BFS examines an edge's coin only while
dequeuing its destination).
"""

from __future__ import annotations

import threading
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass, field

import numpy as np

from repro.exceptions import GraphConstructionError, InvalidQueryError
from repro.graphs.tag_graph import TagGraph

__all__ = [
    "EdgeAdd",
    "EdgeRemove",
    "GraphEdit",
    "MutableTagGraph",
    "TagSet",
    "TagUnset",
    "edit_from_dict",
    "edits_from_dicts",
]


@dataclass(frozen=True)
class EdgeAdd:
    """Append a new directed edge ``src -> dst`` with per-tag probabilities.

    ``tag_probs`` maps tag name to ``P(e | c) ∈ (0, 1]``; it may be empty
    (an edge no tag activates — useful as a placeholder for later
    :class:`TagSet` edits).
    """

    src: int
    dst: int
    tag_probs: Mapping[str, float] = field(default_factory=dict)

    op = "edge_add"


@dataclass(frozen=True)
class EdgeRemove:
    """Tombstone edge ``edge_id``: clear all its tag probabilities."""

    edge_id: int

    op = "edge_remove"


@dataclass(frozen=True)
class TagSet:
    """Set ``P(edge_id | tag) = prob`` (create or overwrite the entry)."""

    edge_id: int
    tag: str
    prob: float

    op = "tag_set"


@dataclass(frozen=True)
class TagUnset:
    """Delete the ``(edge_id, tag)`` entry — ``P(edge_id | tag) = 0``."""

    edge_id: int
    tag: str

    op = "tag_unset"


GraphEdit = EdgeAdd | EdgeRemove | TagSet | TagUnset

_EDIT_OPS = {
    "edge_add": EdgeAdd,
    "edge_remove": EdgeRemove,
    "tag_set": TagSet,
    "tag_unset": TagUnset,
}


def edit_from_dict(payload: Mapping[str, object]) -> GraphEdit:
    """Parse one wire-format edit ``{"op": ..., ...}`` into a dataclass.

    The wire shapes mirror the dataclass fields::

        {"op": "edge_add", "src": 3, "dst": 7, "tag_probs": {"music": 0.4}}
        {"op": "edge_remove", "edge_id": 12}
        {"op": "tag_set", "edge_id": 12, "tag": "music", "prob": 0.5}
        {"op": "tag_unset", "edge_id": 12, "tag": "music"}
    """
    if not isinstance(payload, Mapping):
        raise InvalidQueryError(f"edit must be an object, got {payload!r}")
    op = payload.get("op")
    cls = _EDIT_OPS.get(op)  # type: ignore[arg-type]
    if cls is None:
        raise InvalidQueryError(
            f"unknown edit op {op!r}; expected one of {sorted(_EDIT_OPS)}"
        )
    kwargs = {k: v for k, v in payload.items() if k != "op"}
    try:
        return cls(**kwargs)  # type: ignore[arg-type]
    except TypeError as exc:
        raise InvalidQueryError(f"malformed {op!r} edit: {exc}") from None


def edits_from_dicts(payloads: Iterable[Mapping[str, object]]) -> list[GraphEdit]:
    """Parse a batch of wire-format edits (see :func:`edit_from_dict`)."""
    return [edit_from_dict(p) for p in payloads]


@dataclass(frozen=True)
class _EditLayer:
    """One applied batch: the epoch it produced and what it touched."""

    epoch: int
    edits: tuple[GraphEdit, ...]
    dirty_edges: np.ndarray  # int64 edge ids touched by this layer
    num_added: int  # edges appended by this layer


class MutableTagGraph:
    """Append-only edit layers stacked copy-on-write over a ``TagGraph``.

    Thread safety: :meth:`apply` and :meth:`compact` must be called from
    one writer at a time (they raise under concurrent misuse only by
    luck — serialize externally, as ``CampaignServer`` does with its
    edit lock). :meth:`snapshot`, :meth:`epoch`, and the dirty queries
    are safe to call concurrently with a writer *for already-published
    epochs*: snapshots are immutable once returned.
    """

    def __init__(self, base: TagGraph, *, base_epoch: int = 0) -> None:
        if base_epoch < 0:
            raise GraphConstructionError(
                f"base_epoch must be >= 0, got {base_epoch}"
            )
        self._base = base
        self._base_epoch = int(base_epoch)
        self._layers: list[_EditLayer] = []
        self._lock = threading.Lock()
        # Current materialized working state (copy-on-write from base).
        self._src: list[int] = []
        self._dst: list[int] = []
        # tag -> {edge_id: prob}; only tags touched by some edit are
        # present here, everything else reads through to the base.
        self._tag_overlays: dict[str, dict[int, float]] = {}
        self._removed: set[int] = set()
        # Snapshot cache: only the newest materialized epoch is held
        # strongly, so superseded snapshots (and their shared-memory
        # republications downstream) become collectable as soon as
        # readers finish. The next materialization rebuilds only the
        # tags edited since and shares everything else with it.
        self._snapshot: TagGraph = base
        self._snapshot_epoch = self._base_epoch
        self._stale_tags: set[str] = set()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def epoch(self) -> int:
        """Epoch of the newest applied layer (``base_epoch`` if none)."""
        layers = self._layers
        return layers[-1].epoch if layers else self._base_epoch

    @property
    def base_epoch(self) -> int:
        """Epoch of the immutable base snapshot."""
        return self._base_epoch

    @property
    def num_nodes(self) -> int:
        """Fixed node count (edits never add or remove nodes)."""
        return self._base.num_nodes

    @property
    def num_edges(self) -> int:
        """Edge count at the current epoch (tombstones included)."""
        return self._base.num_edges + len(self._src)

    @property
    def num_layers(self) -> int:
        """Number of uncompacted edit layers."""
        return len(self._layers)

    def is_removed(self, edge_id: int) -> bool:
        """Whether ``edge_id`` is tombstoned at the current epoch."""
        return edge_id in self._removed

    # ------------------------------------------------------------------
    # Writes
    # ------------------------------------------------------------------
    def apply(self, edits: Sequence[GraphEdit]) -> int:
        """Apply one batch of edits atomically; return the new epoch.

        Validation happens against the current state *before* any edit
        in the batch mutates it, except that edits within a batch see
        the effects of earlier edits in the same batch (an ``EdgeAdd``
        followed by a ``TagSet`` on the new id is legal). A validation
        failure raises and leaves the graph exactly as it was.
        """
        edits = tuple(edits)
        if not edits:
            raise InvalidQueryError("apply() requires at least one edit")
        with self._lock:
            # Stage on copies so a mid-batch failure cannot torn-write;
            # an overlay dict is copied only when this batch edits it.
            src = list(self._src)
            dst = list(self._dst)
            overlays = dict(self._tag_overlays)
            touched_tags: set[str] = set()
            removed = set(self._removed)
            base_m = self._base.num_edges
            n = self._base.num_nodes
            dirty: set[int] = set()

            def overlay_for(tag: str) -> dict[int, float]:
                if tag not in touched_tags:
                    touched_tags.add(tag)
                    if tag in overlays:
                        overlays[tag] = dict(overlays[tag])
                    elif self._base.has_tag(tag):
                        ids, probs = self._base.tag_edges(tag)
                        overlays[tag] = dict(zip(ids.tolist(), probs.tolist()))
                    else:
                        overlays[tag] = {}
                return overlays[tag]

            for edit in edits:
                if isinstance(edit, EdgeAdd):
                    if not (0 <= edit.src < n and 0 <= edit.dst < n):
                        raise InvalidQueryError(
                            f"edge endpoints ({edit.src}, {edit.dst}) "
                            f"outside [0, {n})"
                        )
                    eid = base_m + len(src)
                    src.append(int(edit.src))
                    dst.append(int(edit.dst))
                    for tag, prob in edit.tag_probs.items():
                        _check_prob(tag, prob)
                        overlay_for(str(tag))[eid] = float(prob)
                    dirty.add(eid)
                elif isinstance(edit, EdgeRemove):
                    eid = _check_edge(edit.edge_id, base_m + len(src))
                    if eid in removed:
                        raise InvalidQueryError(
                            f"edge {eid} is already removed"
                        )
                    removed.add(eid)
                    # Only tags that actually assign this edge need an
                    # overlay; everything else keeps sharing base arrays.
                    touched = {
                        tag for tag, entry in overlays.items() if eid in entry
                    }
                    if eid < base_m:
                        touched.update(
                            tag
                            for tag, (ids, _) in self._base._tag_probs.items()
                            if eid in ids
                        )
                    for tag in touched:
                        overlay_for(tag).pop(eid, None)
                    dirty.add(eid)
                elif isinstance(edit, TagSet):
                    eid = _check_edge(edit.edge_id, base_m + len(src))
                    if eid in removed:
                        raise InvalidQueryError(
                            f"cannot set tag on removed edge {eid}"
                        )
                    _check_prob(edit.tag, edit.prob)
                    overlay_for(str(edit.tag))[eid] = float(edit.prob)
                    dirty.add(eid)
                elif isinstance(edit, TagUnset):
                    eid = _check_edge(edit.edge_id, base_m + len(src))
                    if eid in removed:
                        raise InvalidQueryError(
                            f"cannot unset tag on removed edge {eid}"
                        )
                    entry = overlay_for(str(edit.tag))
                    if eid not in entry:
                        raise InvalidQueryError(
                            f"edge {eid} has no entry for tag "
                            f"{edit.tag!r} to unset"
                        )
                    del entry[eid]
                    dirty.add(eid)
                else:
                    raise InvalidQueryError(
                        f"unsupported edit type {type(edit).__name__}"
                    )

            epoch = self.epoch + 1
            layer = _EditLayer(
                epoch=epoch,
                edits=edits,
                dirty_edges=np.array(sorted(dirty), dtype=np.int64),
                num_added=len(src) - len(self._src),
            )
            self._src, self._dst = src, dst
            self._tag_overlays = overlays
            self._stale_tags |= touched_tags
            self._removed = removed
            self._layers.append(layer)
            return epoch

    def compact(self) -> int:
        """Flatten all layers into a new immutable base; return its epoch.

        Edge ids, node ids, and the current-epoch snapshot are all
        preserved bit-identically — compaction only collapses history
        (``dirty_edges`` queries reaching before the compaction point
        conservatively report every edge as dirty afterwards).
        """
        with self._lock:
            snap = self._materialize_locked()
            self._base = snap
            self._base_epoch = self.epoch
            self._layers = []
            self._src, self._dst = [], []
            self._tag_overlays = {}
            self._removed = set()
            return self._base_epoch

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    def snapshot(self, epoch: int | None = None) -> TagGraph:
        """Materialize ``epoch`` (default: current) as an immutable graph.

        The current epoch is cached; older epochs are replayed from the
        base on demand (readers use this to audit historical answers).
        Per-tag arrays of tags no edit ever touched are shared with the
        base by reference.
        """
        with self._lock:
            current = self.epoch
            if epoch is None:
                epoch = current
            if epoch == current:
                return self._materialize_locked()
            if not (self._base_epoch <= epoch < current):
                raise InvalidQueryError(
                    f"epoch {epoch} outside [{self._base_epoch}, {current}]"
                )
            layers = [la for la in self._layers if la.epoch <= epoch]
        # Replay outside the lock: the base and the layer records are
        # immutable, so this races with nothing.
        replay = MutableTagGraph(self._base, base_epoch=self._base_epoch)
        for layer in layers:
            replay.apply(layer.edits)
        return replay.snapshot()

    def _materialize_locked(self) -> TagGraph:
        prev = self._snapshot
        if self._snapshot_epoch == self.epoch:
            return prev
        changes: dict[str, tuple[np.ndarray, np.ndarray] | None] = {}
        for tag in self._stale_tags:
            overlay = self._tag_overlays[tag]
            if not overlay:
                changes[tag] = None  # cleared: leaves the vocabulary
                continue
            ids = np.fromiter(overlay, dtype=np.int64, count=len(overlay))
            probs = np.fromiter(
                overlay.values(), dtype=np.float64, count=len(overlay)
            )
            order = np.argsort(ids)
            changes[tag] = (ids[order], probs[order])
        if prev.num_edges == self.num_edges:
            # No edge appended since ``prev`` (removals keep their ids):
            # share its topology and validate only the rebuilt tags.
            snap = prev.retagged(changes)
        else:
            base = self._base
            src = np.concatenate(
                [base.src, np.array(self._src, dtype=np.int64)]
            )
            dst = np.concatenate(
                [base.dst, np.array(self._dst, dtype=np.int64)]
            )
            tag_probs = dict(prev._tag_probs)
            for tag, arrays in changes.items():
                if arrays is None:
                    tag_probs.pop(tag, None)
                else:
                    tag_probs[tag] = arrays
            snap = TagGraph(base.num_nodes, src, dst, tag_probs)
        self._snapshot = snap
        self._snapshot_epoch = self.epoch
        self._stale_tags = set()
        return snap

    def dirty_edges(
        self, since_epoch: int, until_epoch: int | None = None
    ) -> np.ndarray:
        """Edge ids touched by layers in ``(since_epoch, until_epoch]``.

        ``since_epoch`` below the base epoch conservatively marks every
        edge dirty (the history was compacted away).
        """
        with self._lock:
            until = self.epoch if until_epoch is None else int(until_epoch)
            if since_epoch < self._base_epoch:
                return np.arange(self.num_edges, dtype=np.int64)
            pieces = [
                layer.dirty_edges
                for layer in self._layers
                if since_epoch < layer.epoch <= until
            ]
        if not pieces:
            return np.empty(0, dtype=np.int64)
        return np.unique(np.concatenate(pieces))

    def dirty_nodes(
        self, since_epoch: int, until_epoch: int | None = None
    ) -> np.ndarray:
        """Destination nodes of :meth:`dirty_edges` — the RR dirty key.

        A reverse-reachable set sampled before the edits is affected iff
        one of these nodes was a member (reverse BFS only inspects an
        edge's coin while dequeuing its destination node).
        """
        edges = self.dirty_edges(since_epoch, until_epoch)
        if not edges.size:
            return edges
        snap = self.snapshot()
        return np.unique(snap.dst[edges])

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"MutableTagGraph(n={self.num_nodes}, m={self.num_edges}, "
            f"epoch={self.epoch}, layers={self.num_layers})"
        )


def _check_edge(edge_id: int, m: int) -> int:
    eid = int(edge_id)
    if not (0 <= eid < m):
        raise InvalidQueryError(f"edge id {eid} outside [0, {m})")
    return eid


def _check_prob(tag: str, prob: float) -> None:
    if not (0.0 < float(prob) <= 1.0):
        raise InvalidQueryError(
            f"tag {tag!r}: probability must lie in (0, 1], got {prob}"
        )
