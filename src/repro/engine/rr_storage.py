"""Flat CSR-style storage for RR-set collections.

Every sampling path returns θ RR sets as one :class:`RRCollection`,
not as θ small ``np.ndarray`` heap objects: it concatenates all
members into one array with an ``indptr`` (exactly the CSR layout the graph already uses
for adjacency) and derives the inverted node→set index lazily; greedy
coverage over it is an ``np.bincount``-based O(total membership) pass
(see :func:`repro.sketch.coverage.greedy_max_coverage`, which packs a
plain list of sets into one of these first).

An ``RRCollection`` behaves as a read-only sequence of int64 arrays, so
every existing consumer of ``list[np.ndarray]`` RR sets accepts one
unchanged.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

import numpy as np

from repro.exceptions import InvalidQueryError
from repro.utils.mathx import stable_argsort


class RRCollection(Sequence):
    """θ RR sets stored flat: concatenated members + ``indptr``.

    Parameters
    ----------
    members:
        All member node ids, set after set
        (``members[indptr[i]:indptr[i+1]]`` is set ``i``).
    indptr:
        Monotone offsets, length ``num_sets + 1``.
    num_nodes:
        Size of the node universe (needed for the inverted index).
    """

    __slots__ = ("_members", "_indptr", "_num_nodes", "_inverted")

    def __init__(
        self, members: np.ndarray, indptr: np.ndarray, num_nodes: int
    ) -> None:
        members = np.asarray(members, dtype=np.int64)
        indptr = np.asarray(indptr, dtype=np.int64)
        if indptr.ndim != 1 or indptr.size == 0:
            raise InvalidQueryError("indptr must be a non-empty 1-D array")
        if indptr[0] != 0 or indptr[-1] != members.size:
            raise InvalidQueryError(
                "indptr must start at 0 and end at len(members), got "
                f"[{indptr[0]}, {indptr[-1]}] for {members.size} members"
            )
        if num_nodes <= 0:
            raise InvalidQueryError("num_nodes must be positive")
        self._members = members
        self._indptr = indptr
        self._num_nodes = int(num_nodes)
        self._inverted: tuple[np.ndarray, np.ndarray] | None = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_sets(
        cls, sets: Iterable[np.ndarray], num_nodes: int
    ) -> "RRCollection":
        """Build from an iterable of per-set member arrays."""
        arrays = [np.asarray(s, dtype=np.int64) for s in sets]
        counts = np.array([a.size for a in arrays], dtype=np.int64)
        indptr = np.zeros(len(arrays) + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        members = (
            np.concatenate(arrays) if arrays else np.empty(0, dtype=np.int64)
        )
        return cls(members, indptr, num_nodes)

    @classmethod
    def concat(cls, collections: Sequence["RRCollection"]) -> "RRCollection":
        """Concatenate collections (same node universe), preserving order."""
        if not collections:
            raise InvalidQueryError("cannot concat zero collections")
        num_nodes = collections[0]._num_nodes
        for other in collections[1:]:
            if other._num_nodes != num_nodes:
                raise InvalidQueryError(
                    "cannot concat collections over different node universes"
                )
        members = np.concatenate([c._members for c in collections])
        counts = np.concatenate([np.diff(c._indptr) for c in collections])
        indptr = np.zeros(counts.size + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        return cls(members, indptr, num_nodes)

    def truncated(self, count: int) -> "RRCollection":
        """First ``count`` sets as a new collection (views, no copy)."""
        count = max(0, min(int(count), self.num_sets))
        indptr = self._indptr[: count + 1]
        return RRCollection(
            self._members[: indptr[-1]], indptr, self._num_nodes
        )

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    @property
    def members(self) -> np.ndarray:
        """The concatenated member array (flat view)."""
        return self._members

    @property
    def indptr(self) -> np.ndarray:
        """Set offsets into :attr:`members`."""
        return self._indptr

    @property
    def num_nodes(self) -> int:
        """Size of the node universe."""
        return self._num_nodes

    @property
    def num_sets(self) -> int:
        """Number of RR sets stored."""
        return self._indptr.size - 1

    @property
    def total_members(self) -> int:
        """Total membership across all sets (storage cost)."""
        return int(self._members.size)

    def set_ids_per_member(self) -> np.ndarray:
        """Owning set id of every entry of :attr:`members`."""
        return np.repeat(
            np.arange(self.num_sets, dtype=np.int64), np.diff(self._indptr)
        )

    def inverted(self) -> tuple[np.ndarray, np.ndarray]:
        """Inverted node→set index as ``(indptr, set_ids)`` CSR arrays.

        ``set_ids[indptr[v]:indptr[v+1]]`` lists the RR sets containing
        node ``v`` (ascending). Built once, cached.
        """
        if self._inverted is None:
            order = stable_argsort(self._members, self._num_nodes - 1)
            set_ids = self.set_ids_per_member()[order]
            counts = np.bincount(self._members, minlength=self._num_nodes)
            indptr = np.zeros(self._num_nodes + 1, dtype=np.int64)
            np.cumsum(counts, out=indptr[1:])
            self._inverted = (indptr, set_ids)
        return self._inverted

    def member_counts(self) -> np.ndarray:
        """Per-node membership counts (length ``num_nodes``)."""
        return np.bincount(self._members, minlength=self._num_nodes)

    # ------------------------------------------------------------------
    # Incremental repair support (touch traces)
    # ------------------------------------------------------------------
    def dirty_set_ids(self, nodes: np.ndarray) -> np.ndarray:
        """Ids of sets whose membership intersects ``nodes`` (ascending).

        The flat membership *is* each set's reverse-BFS touch trace: a
        reverse-reachable sample examines edge ``(u, v)``'s coin exactly
        when member ``v`` is dequeued, so after an edit the affected
        sets are precisely those containing a dirty edge's destination.
        Answered from the cached inverted index in
        O(|nodes| + |matching entries|).
        """
        nodes = np.unique(np.asarray(nodes, dtype=np.int64))
        nodes = nodes[(nodes >= 0) & (nodes < self._num_nodes)]
        if not nodes.size:
            return np.empty(0, dtype=np.int64)
        indptr, set_ids = self.inverted()
        starts = indptr[nodes]
        counts = indptr[nodes + 1] - starts
        total = int(counts.sum())
        if not total:
            return np.empty(0, dtype=np.int64)
        # Gather set_ids[starts[i] : starts[i]+counts[i]] for all i.
        offsets = np.zeros(nodes.size, dtype=np.int64)
        np.cumsum(counts[:-1], out=offsets[1:])
        positions = np.arange(total, dtype=np.int64)
        positions += np.repeat(starts - offsets, counts)
        return np.unique(set_ids[positions])

    def replaced(
        self, set_ids: np.ndarray, new_sets: "RRCollection"
    ) -> "RRCollection":
        """Return a collection with sets ``set_ids`` swapped for ``new_sets``.

        ``set_ids`` must be strictly ascending and ``new_sets`` hold one
        set per id, in the same order; every other set keeps its
        position and membership. The receiver is left untouched
        (copy-on-write — in-flight readers of the old collection never
        observe the splice).
        """
        set_ids = np.asarray(set_ids, dtype=np.int64)
        if new_sets.num_sets != set_ids.size:
            raise InvalidQueryError(
                f"{set_ids.size} set ids but {new_sets.num_sets} replacements"
            )
        if not set_ids.size:
            return self
        if set_ids.size > 1 and not (np.diff(set_ids) > 0).all():
            raise InvalidQueryError("set_ids must be strictly ascending")
        if set_ids[0] < 0 or set_ids[-1] >= self.num_sets:
            raise InvalidQueryError(
                f"set ids outside [0, {self.num_sets})"
            )
        counts = np.diff(self._indptr)
        counts[set_ids] = np.diff(new_sets.indptr)
        indptr = np.zeros(counts.size + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        # Alternate bulk slices of untouched runs with the new sets:
        # O(sets touched) pieces, each a contiguous view of its source.
        new_members, new_indptr = new_sets.members, new_sets.indptr
        pieces: list[np.ndarray] = []
        cursor = 0  # old-member offset of the next untouched run
        for lo, hi, new_lo, new_hi in zip(
            self._indptr[set_ids].tolist(),
            self._indptr[set_ids + 1].tolist(),
            new_indptr[:-1].tolist(),
            new_indptr[1:].tolist(),
        ):
            if cursor < lo:
                pieces.append(self._members[cursor:lo])
            pieces.append(new_members[new_lo:new_hi])
            cursor = hi
        pieces.append(self._members[cursor:])
        members = np.concatenate(pieces)
        return RRCollection(members, indptr, self._num_nodes)

    # ------------------------------------------------------------------
    # Sequence protocol — list[np.ndarray] compatibility
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self.num_sets

    def __getitem__(self, index):
        if isinstance(index, slice):
            start, stop, step = index.indices(self.num_sets)
            if step != 1:
                return [self[i] for i in range(start, stop, step)]
            if start == 0:
                return self.truncated(stop)
            counts = np.diff(self._indptr[start:stop + 1])
            indptr = np.zeros(counts.size + 1, dtype=np.int64)
            np.cumsum(counts, out=indptr[1:])
            members = self._members[self._indptr[start]:self._indptr[stop]]
            return RRCollection(members.copy(), indptr, self._num_nodes)
        idx = int(index)
        if idx < 0:
            idx += self.num_sets
        if not (0 <= idx < self.num_sets):
            raise IndexError(
                f"set index {index} outside [0, {self.num_sets})"
            )
        return self._members[self._indptr[idx]:self._indptr[idx + 1]]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"RRCollection(sets={self.num_sets}, "
            f"members={self.total_members}, n={self._num_nodes})"
        )
