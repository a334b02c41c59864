"""The tagged uncertain graph data structure.

A :class:`TagGraph` is the paper's ``G = (V, E, P)``: ``n`` nodes
(integers ``0..n-1``), ``m`` directed edges, and a conditional
probability function ``P(e | c) ∈ (0, 1]`` defined for a sparse set of
``(edge, tag)`` pairs. A pair that is absent means ``P(e | c) = 0`` —
tag ``c`` never activates edge ``e``.

Layout
------
Edges are integer ids ``0..m-1`` with dense ``src`` / ``dst`` arrays.
Per tag ``c`` we store two parallel arrays ``(edge_ids, probs)``; the
combined probability of an edge given a *set* of tags is computed
vectorized over these (see :meth:`TagGraph.edge_probabilities`).
Forward and reverse adjacency are CSR-style (``indptr`` + edge-id
arrays) so BFS sweeps touch contiguous memory.
"""

from __future__ import annotations

import math
import threading
from collections import OrderedDict
from collections.abc import Iterable, Mapping, Sequence

import numpy as np

from repro.exceptions import GraphConstructionError, InvalidQueryError
from repro.utils.mathx import stable_argsort

#: One edge's ``((tag, -ln P(e|c)), …)``, sorted by tag.
TagCosts = tuple[tuple[str, float], ...]
#: One forward arc: ``(edge_id, child, tag_costs)``.
Arc = tuple[int, int, TagCosts]


def _build_csr(keys: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Group edge ids by node key; return ``(indptr, edge_ids)`` CSR arrays."""
    order = stable_argsort(keys, n - 1)
    sorted_keys = keys[order]
    indptr = np.zeros(n + 1, dtype=np.int64)
    counts = np.bincount(sorted_keys, minlength=n)
    np.cumsum(counts, out=indptr[1:])
    return indptr, order.astype(np.int64)


def _tag_arrays_valid(
    tag_probs: Mapping[str, tuple[np.ndarray, np.ndarray]], m: int
) -> bool:
    """All-tags-at-once form of :func:`_check_tag_arrays`; True iff valid.

    One pass over the concatenated arrays instead of a handful of numpy
    calls per tag; duplicates are keyed by ``(tag index, edge id)``.
    """
    if any(
        ids.shape != ps.shape or ids.ndim != 1
        for ids, ps in tag_probs.values()
    ):
        return False
    if not tag_probs:
        return True
    ids = np.concatenate([ids for ids, _ in tag_probs.values()])
    if not ids.size:
        return True
    ps = np.concatenate([ps for _, ps in tag_probs.values()])
    if ids.min() < 0 or ids.max() >= m:
        return False
    if not ((ps > 0.0) & (ps <= 1.0)).all():
        return False
    sizes = [ids.size for ids, _ in tag_probs.values()]
    keys = np.repeat(np.arange(len(sizes), dtype=np.int64) * m, sizes) + ids
    if not (keys[1:] > keys[:-1]).all():  # skip the sort when pre-sorted
        keys = np.sort(keys)
        if (keys[1:] == keys[:-1]).any():
            return False
    return True


def _check_tag_arrays(
    tag: str, ids: np.ndarray, ps: np.ndarray, m: int
) -> None:
    """Raise :class:`GraphConstructionError` naming ``tag`` if invalid."""
    if ids.shape != ps.shape or ids.ndim != 1:
        raise GraphConstructionError(
            f"tag {tag!r}: edge_ids and probs must be 1-D and equal length"
        )
    if ids.size:
        if ids.min() < 0 or ids.max() >= m:
            raise GraphConstructionError(
                f"tag {tag!r}: edge ids outside [0, {m})"
            )
        if np.unique(ids).size != ids.size:
            raise GraphConstructionError(
                f"tag {tag!r}: duplicate edge ids in tag assignment"
            )
        if (ps <= 0.0).any() or (ps > 1.0).any():
            raise GraphConstructionError(
                f"tag {tag!r}: probabilities must lie in (0, 1]"
            )


class TagGraph:
    """Directed uncertain graph with per-tag conditional edge probabilities.

    Parameters
    ----------
    n:
        Number of nodes; node ids are ``0..n-1``.
    src, dst:
        Integer arrays of length ``m`` giving each edge's endpoints.
    tag_probs:
        Mapping from tag name to ``(edge_ids, probs)`` arrays; each pair
        states ``P(edge_ids[i] | tag) = probs[i]``. Probabilities must lie
        in ``(0, 1]`` and an edge id may appear at most once per tag.

    Notes
    -----
    The structure is immutable after construction; use
    :class:`~repro.graphs.builders.TagGraphBuilder` for incremental
    assembly.
    """

    def __init__(
        self,
        n: int,
        src: Sequence[int] | np.ndarray,
        dst: Sequence[int] | np.ndarray,
        tag_probs: Mapping[str, tuple[np.ndarray, np.ndarray]],
    ) -> None:
        if n < 0:
            raise GraphConstructionError(f"node count must be >= 0, got {n}")
        self._n = int(n)
        self._src = np.asarray(src, dtype=np.int64)
        self._dst = np.asarray(dst, dtype=np.int64)
        if self._src.shape != self._dst.shape or self._src.ndim != 1:
            raise GraphConstructionError(
                "src and dst must be 1-D arrays of equal length"
            )
        m = self._src.shape[0]
        for arr, name in ((self._src, "src"), (self._dst, "dst")):
            if m and (arr.min() < 0 or arr.max() >= n):
                raise GraphConstructionError(
                    f"{name} contains node ids outside [0, {n})"
                )

        self._tag_probs: dict[str, tuple[np.ndarray, np.ndarray]] = {
            tag: (
                np.asarray(edge_ids, dtype=np.int64),
                np.asarray(probs, dtype=np.float64),
            )
            for tag, (edge_ids, probs) in sorted(tag_probs.items())
        }
        if not _tag_arrays_valid(self._tag_probs, m):
            for tag, (ids, ps) in self._tag_probs.items():
                _check_tag_arrays(tag, ids, ps, m)

        self._fwd_indptr, self._fwd_edges = _build_csr(self._src, self._n)
        self._rev_indptr, self._rev_edges = _build_csr(self._dst, self._n)
        self._edge_tag_maps: list[dict[str, float]] | None = None
        self._edge_tag_neglogs: list[TagCosts] | None = None
        self._forward_arcs: list[tuple[Arc, ...]] | None = None
        # Opt-in aggregation memo (see enable_probability_cache). Off by
        # default so library users keep the allocation-per-call contract.
        self._prob_cache: (
            OrderedDict[tuple[str, ...], np.ndarray] | None
        ) = None
        self._prob_cache_max = 0
        self._prob_cache_lock = threading.Lock()
        self._prob_cache_hits = 0
        self._prob_cache_misses = 0
        self._prob_cache_evictions = 0

    # ------------------------------------------------------------------
    # Pickling (process-pool fan-out ships graphs to workers)
    # ------------------------------------------------------------------
    def __getstate__(self) -> dict:
        """Drop the (unpicklable) memo lock and its cache for transport.

        Worker processes only read graph structure; they never share the
        aggregation memo with the parent, so shipping its contents would
        be wasted bytes anyway.
        """
        state = self.__dict__.copy()
        state["_prob_cache_lock"] = None
        state["_prob_cache"] = None
        state["_prob_cache_max"] = 0
        state["_forward_arcs"] = None
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._prob_cache_lock = threading.Lock()

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        """Number of nodes ``n``."""
        return self._n

    @property
    def num_edges(self) -> int:
        """Number of directed edges ``m``."""
        return int(self._src.shape[0])

    @property
    def src(self) -> np.ndarray:
        """Read-only view of the edge source array (length ``m``)."""
        view = self._src.view()
        view.flags.writeable = False
        return view

    @property
    def dst(self) -> np.ndarray:
        """Read-only view of the edge destination array (length ``m``)."""
        view = self._dst.view()
        view.flags.writeable = False
        return view

    @property
    def tags(self) -> tuple[str, ...]:
        """Sorted tag vocabulary ``C``."""
        return tuple(self._tag_probs)

    @property
    def num_tags(self) -> int:
        """Size of the tag vocabulary ``|C|``."""
        return len(self._tag_probs)

    def has_tag(self, tag: str) -> bool:
        """Whether ``tag`` belongs to the vocabulary."""
        return tag in self._tag_probs

    def tag_edges(self, tag: str) -> tuple[np.ndarray, np.ndarray]:
        """Return ``(edge_ids, probs)`` arrays for ``tag``.

        Raises :class:`InvalidQueryError` for an unknown tag.
        """
        try:
            ids, probs = self._tag_probs[tag]
        except KeyError:
            raise InvalidQueryError(f"unknown tag {tag!r}") from None
        ids_view = ids.view()
        ids_view.flags.writeable = False
        probs_view = probs.view()
        probs_view.flags.writeable = False
        return ids_view, probs_view

    # ------------------------------------------------------------------
    # Probabilities
    # ------------------------------------------------------------------
    def edge_probabilities(self, tags: Iterable[str]) -> np.ndarray:
        """Combined probability ``P(e | C1)`` for every edge, vectorized.

        Uses the paper's independent tag aggregation:
        ``P(e | C1) = 1 - Π_{c ∈ C1} (1 - P(e | c))``. Unknown tags raise
        :class:`InvalidQueryError`. Passing no tags yields all zeros.
        """
        if self._prob_cache is None:
            return self._aggregate(tags)
        return self._edge_probabilities_cached(tuple(tags))

    def _aggregate(self, tags: Iterable[str]) -> np.ndarray:
        survival = np.ones(self.num_edges, dtype=np.float64)
        for tag in tags:
            ids, probs = self.tag_edges(tag)
            survival[ids] *= 1.0 - probs
        return 1.0 - survival

    # ------------------------------------------------------------------
    # Optional aggregation memo (serving hot path)
    # ------------------------------------------------------------------
    def enable_probability_cache(self, max_entries: int = 64) -> None:
        """Memoize :meth:`edge_probabilities` per exact tag *sequence*.

        Off by default. The serving layer turns this on so repeat
        queries against the same tag set skip the O(Σ|tag edges|)
        aggregation pass. Keys are the tag sequence **as iterated** (not
        a sorted set): the survival product is applied per tag in
        order, so different orders can differ in the last float ulp and
        must not share an entry — callers wanting sharing canonicalize
        tags first (``repro.serve`` does).

        Cached arrays are returned *read-only* (and one array instance
        may be handed to many threads); all in-repo consumers only read
        them. Thread-safe; ``max_entries`` bounds memory via LRU.
        """
        if max_entries <= 0:
            raise InvalidQueryError(
                f"max_entries must be positive, got {max_entries}"
            )
        with self._prob_cache_lock:
            if self._prob_cache is None:
                self._prob_cache = OrderedDict()
            self._prob_cache_max = int(max_entries)
            while len(self._prob_cache) > self._prob_cache_max:
                self._prob_cache.popitem(last=False)
                self._prob_cache_evictions += 1

    def disable_probability_cache(self) -> None:
        """Drop the memo and return to allocate-per-call behavior."""
        with self._prob_cache_lock:
            self._prob_cache = None
            self._prob_cache_max = 0

    def probability_cache_stats(self) -> dict[str, int]:
        """Hit/miss/eviction counts and current size of the memo."""
        with self._prob_cache_lock:
            cache = self._prob_cache
            return {
                "enabled": int(cache is not None),
                "entries": len(cache) if cache is not None else 0,
                "hits": self._prob_cache_hits,
                "misses": self._prob_cache_misses,
                "evictions": self._prob_cache_evictions,
            }

    def _edge_probabilities_cached(self, key: tuple[str, ...]) -> np.ndarray:
        with self._prob_cache_lock:
            cache = self._prob_cache
            if cache is None:  # disabled concurrently
                return self._aggregate(key)
            hit = cache.get(key)
            if hit is not None:
                cache.move_to_end(key)
                self._prob_cache_hits += 1
                return hit
            self._prob_cache_misses += 1
        # Aggregate outside the lock; concurrent same-key builders
        # produce bit-identical arrays, setdefault keeps one canonical.
        arr = self._aggregate(key)
        arr.flags.writeable = False
        with self._prob_cache_lock:
            cache = self._prob_cache
            if cache is None:
                return arr
            arr = cache.setdefault(key, arr)
            cache.move_to_end(key)
            while len(cache) > self._prob_cache_max:
                cache.popitem(last=False)
                self._prob_cache_evictions += 1
        return arr

    def edge_tag_probability(self, edge_id: int, tag: str) -> float:
        """Return ``P(edge_id | tag)``; zero when the pair is absent."""
        return self.edge_tag_map(edge_id).get(tag, 0.0)

    def edge_tag_map(self, edge_id: int) -> dict[str, float]:
        """Return ``{tag: P(edge_id | tag)}`` for one edge (cached)."""
        if not (0 <= edge_id < self.num_edges):
            raise InvalidQueryError(
                f"edge id {edge_id} outside [0, {self.num_edges})"
            )
        return self._edge_tag_maps_cache()[edge_id]

    def _edge_tag_maps_cache(self) -> list[dict[str, float]]:
        if self._edge_tag_maps is None:
            maps: list[dict[str, float]] = [{} for _ in range(self.num_edges)]
            for tag, (ids, probs) in self._tag_probs.items():
                for eid, p in zip(ids.tolist(), probs.tolist()):
                    maps[eid][tag] = p
            self._edge_tag_maps = maps
        return self._edge_tag_maps

    def edge_tag_neglogs(self) -> list[TagCosts]:
        """Per-edge ``((tag, -ln P(e|c)), …)`` tuples, sorted by tag (cached).

        The hot path-enumeration loop consumes costs rather than
        probabilities; caching the logarithms here removes a ``math.log``
        per heap push.
        """
        if self._edge_tag_neglogs is None:
            self._edge_tag_neglogs = [
                tuple(
                    (tag, -math.log(p)) for tag, p in sorted(mapping.items())
                )
                for mapping in self._edge_tag_maps_cache()
            ]
        return self._edge_tag_neglogs

    def forward_arcs(self) -> list[tuple[Arc, ...]]:
        """Per-node out-arcs ``(edge_id, child, tag_costs)`` (cached).

        ``forward_arcs()[v]`` lists the edges leaving ``v`` in
        :meth:`forward_csr` order; ``tag_costs`` is that edge's
        :meth:`edge_tag_neglogs` entry. Path enumeration walks these
        plain tuples, so a pop costs no array slicing or numpy scalar
        conversion. Dropped when the graph is pickled.
        """
        if self._forward_arcs is None:
            indptr = self._fwd_indptr.tolist()
            edges = self._fwd_edges.tolist()
            dst = self._dst.tolist()
            neglogs = self.edge_tag_neglogs()
            self._forward_arcs = [
                tuple(
                    (eid, dst[eid], neglogs[eid])
                    for eid in edges[indptr[v]:indptr[v + 1]]
                )
                for v in range(self._n)
            ]
        return self._forward_arcs

    def all_edge_probabilities(self) -> np.ndarray:
        """``P(e | C)`` for the full vocabulary — the tag-agnostic graph."""
        return self.edge_probabilities(self.tags)

    # ------------------------------------------------------------------
    # Adjacency
    # ------------------------------------------------------------------
    def out_edge_ids(self, node: int) -> np.ndarray:
        """Edge ids leaving ``node``."""
        self._check_node(node)
        lo, hi = self._fwd_indptr[node], self._fwd_indptr[node + 1]
        return self._fwd_edges[lo:hi]

    def in_edge_ids(self, node: int) -> np.ndarray:
        """Edge ids entering ``node``."""
        self._check_node(node)
        lo, hi = self._rev_indptr[node], self._rev_indptr[node + 1]
        return self._rev_edges[lo:hi]

    def out_neighbors(self, node: int) -> np.ndarray:
        """Destination nodes of edges leaving ``node``."""
        return self._dst[self.out_edge_ids(node)]

    def in_neighbors(self, node: int) -> np.ndarray:
        """Source nodes of edges entering ``node``."""
        return self._src[self.in_edge_ids(node)]

    def in_degrees(self) -> np.ndarray:
        """In-degree of every node (length ``n``)."""
        return np.diff(self._rev_indptr)

    def out_degrees(self) -> np.ndarray:
        """Out-degree of every node (length ``n``)."""
        return np.diff(self._fwd_indptr)

    def reverse_csr(self) -> tuple[np.ndarray, np.ndarray]:
        """Return ``(indptr, edge_ids)`` of the reverse adjacency.

        The hot loops of reverse BFS use these directly instead of the
        per-node accessor methods.
        """
        return self._rev_indptr, self._rev_edges

    def forward_csr(self) -> tuple[np.ndarray, np.ndarray]:
        """Return ``(indptr, edge_ids)`` of the forward adjacency."""
        return self._fwd_indptr, self._fwd_edges

    def _check_node(self, node: int) -> None:
        if not (0 <= node < self._n):
            raise InvalidQueryError(f"node id {node} outside [0, {self._n})")

    # ------------------------------------------------------------------
    # Dunder conveniences
    # ------------------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"TagGraph(n={self.num_nodes}, m={self.num_edges}, "
            f"tags={self.num_tags})"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TagGraph):
            return NotImplemented
        if self.num_nodes != other.num_nodes:
            return False
        if not (
            np.array_equal(self._src, other._src)
            and np.array_equal(self._dst, other._dst)
        ):
            return False
        if self.tags != other.tags:
            return False
        for tag in self.tags:
            a_ids, a_ps = self._tag_probs[tag]
            b_ids, b_ps = other._tag_probs[tag]
            a_order = np.argsort(a_ids)
            b_order = np.argsort(b_ids)
            if not np.array_equal(a_ids[a_order], b_ids[b_order]):
                return False
            if not np.allclose(a_ps[a_order], b_ps[b_order]):
                return False
        return True

    __hash__ = None  # type: ignore[assignment]  # mutable-array payload
