"""Possible World Indexes — pre-sampled per-tag deterministic worlds.

A possible world index ``(I, c)`` for tag ``c`` is a subgraph of ``G``
obtained by keeping only edges with ``p(e | c) > 0`` and then dropping
each remaining edge with probability ``1 - p(e | c)`` (paper
Section 3.2). Each world is stored as a packed edge bitset over the
tag's candidate edges — bit ``j`` of a row is candidate edge ``j`` —
so a block of 64 working graphs turns into per-edge lane words with
one row gather and a bit transpose (:meth:`TagIndex.lane_words`).
Nodes are implicit since the paper retains all of them.
"""

from __future__ import annotations

import math

import numpy as np

from repro.engine.bitworld import transpose_bits64
from repro.exceptions import ConfigurationError, IndexError_
from repro.graphs.tag_graph import TagGraph
from repro.utils.rng import ensure_rng


def _pack_rows(live: np.ndarray) -> np.ndarray:
    """Pack a ``(worlds, edges)`` bool matrix into uint64 row bitsets."""
    worlds, edges = live.shape
    padded = np.zeros((worlds, -(-edges // 64) * 64), dtype=bool)
    padded[:, :edges] = live
    packed = np.packbits(padded, axis=1, bitorder="little")
    return packed.view("<u8").astype(np.uint64, copy=False)


def theta_c(theta: int, r: int, alpha: float, delta: float) -> int:
    """Per-tag index count from Theorem 6: ``θ_c = r·θ / (αδ(θ-1) + r)``.

    Guarantees the average number of common indexes between any two
    working graphs is at most ``α`` with probability at least ``1 - δ``.
    Always returns at least 1 (a tag with zero indexes could never be
    sampled).
    """
    if theta <= 0:
        raise ConfigurationError(f"theta must be positive, got {theta}")
    if r <= 0:
        raise ConfigurationError(f"tag budget r must be positive, got {r}")
    if alpha <= 0.0 or not (0.0 < delta < 1.0):
        raise ConfigurationError(
            f"require alpha > 0 and delta in (0, 1), got {alpha}, {delta}"
        )
    value = r * theta / (alpha * delta * (theta - 1) + r)
    return max(1, int(math.ceil(value)))


class TagIndex:
    """The set of possible-world indexes sampled for a single tag.

    Parameters
    ----------
    graph:
        The underlying tagged graph.
    tag:
        The tag this index serves.
    count:
        Number of worlds to sample (``θ_c``).
    edge_universe:
        Optional boolean mask (length ``m``) restricting which edges may
        appear — used by local (LL-TRS) indexing; ``None`` means all.
    rng:
        Seed or generator.
    """

    def __init__(
        self,
        graph: TagGraph,
        tag: str,
        count: int,
        edge_universe: np.ndarray | None = None,
        rng: np.random.Generator | int | None = None,
    ) -> None:
        if count <= 0:
            raise ConfigurationError(
                f"index count must be positive, got {count}"
            )
        rng = ensure_rng(rng)
        self.tag = tag
        ids, probs = self._candidates(graph, tag, edge_universe)
        self._candidate_edges = ids
        # One batched draw for all worlds. Generator.random fills the
        # matrix row-major, i.e. the exact stream of ``count`` sequential
        # per-world draws — bit-identical worlds, one numpy call.
        coins = rng.random((count, ids.size))
        self._packed = _pack_rows(coins < probs)

    @staticmethod
    def _candidates(
        graph: TagGraph, tag: str, edge_universe: np.ndarray | None
    ) -> tuple[np.ndarray, np.ndarray]:
        ids, probs = graph.tag_edges(tag)
        if edge_universe is not None:
            if edge_universe.shape != (graph.num_edges,):
                raise IndexError_(
                    "edge_universe must be a boolean mask of length m"
                )
            inside = edge_universe[ids]
            ids, probs = ids[inside], probs[inside]
        return ids, probs

    @classmethod
    def from_worlds(
        cls,
        graph: TagGraph,
        tag: str,
        worlds: list[np.ndarray],
        edge_universe: np.ndarray | None = None,
    ) -> "TagIndex":
        """Rebuild an index from stored per-world edge-id arrays."""
        index = cls.__new__(cls)
        index.tag = tag
        ids, _probs = cls._candidates(graph, tag, edge_universe)
        index._candidate_edges = ids
        position = np.full(graph.num_edges, -1, dtype=np.int64)
        position[ids] = np.arange(ids.size)
        live = np.zeros((len(worlds), ids.size), dtype=bool)
        for row, world in enumerate(worlds):
            pos = position[np.asarray(world, dtype=np.int64)]
            if (pos < 0).any():
                raise IndexError_(
                    f"stored world {row} of tag {tag!r} holds edges "
                    "outside its candidate set"
                )
            live[row, pos] = True
        index._packed = _pack_rows(live)
        return index

    @property
    def num_worlds(self) -> int:
        """How many pre-sampled worlds this tag has (``θ_c``)."""
        return int(self._packed.shape[0])

    @property
    def stored_edges(self) -> int:
        """Total edge slots stored across all worlds (size accounting)."""
        return int(np.bitwise_count(self._packed).sum())

    @property
    def candidate_edges(self) -> np.ndarray:
        """Edges eligible for this tag within the index universe."""
        return self._candidate_edges

    def world(self, index: int) -> np.ndarray:
        """Edge ids surviving in world ``index``."""
        if not (0 <= index < self.num_worlds):
            raise IndexError_(
                f"world index {index} outside [0, {self.num_worlds})"
            )
        bits = np.unpackbits(
            self._packed[index].view(np.uint8),
            count=self._candidate_edges.size,
            bitorder="little",
        )
        return self._candidate_edges[bits.view(bool)]

    def lane_words(self, choices: np.ndarray) -> np.ndarray:
        """Per-candidate-edge lane words of 64-lane blocks of world choices.

        ``choices`` holds ``64 * blocks`` world indexes, lane-major per
        block. Returns ``(blocks, candidates)`` uint64 whose bit ``b`` of
        ``[j, e]`` says candidate edge ``e`` survives in the world lane
        ``b`` of block ``j`` chose: the chosen rows are gathered and
        transposed on the lane axis, 64 edges per bit-matrix.
        """
        blocks = choices.size // 64
        words = self._packed.shape[1]
        rows = self._packed[choices].reshape(blocks, 64, words)
        lanes = transpose_bits64(
            rows.transpose(0, 2, 1).reshape(blocks * words, 64)
        )
        return lanes.reshape(blocks, words * 64)[
            :, : self._candidate_edges.size
        ]

    def sample_world_index(self, rng: np.random.Generator) -> int:
        """Draw a uniform world index — one per working graph per tag."""
        return int(rng.integers(0, self.num_worlds))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"TagIndex(tag={self.tag!r}, worlds={self.num_worlds}, "
            f"stored_edges={self.stored_edges})"
        )
