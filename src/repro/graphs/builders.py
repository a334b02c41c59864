"""Construction of :class:`~repro.graphs.TagGraph` objects.

:class:`TagGraphBuilder` adds one ``(u, v, tag, prob)`` row at a time;
:func:`graph_from_columns` builds the same graph from whole columns in
a few vectorized passes and falls back to replaying the rows through
the builder only to report the first bad one.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

import numpy as np

from repro.exceptions import GraphConstructionError
from repro.graphs.tag_graph import TagGraph
from repro.utils.mathx import stable_argsort
from repro.utils.validation import check_probability

#: Largest node count whose ``u * n + v`` edge keys fit in an int64
#: (the CSR arrays of a larger graph would not fit in memory anyway).
_MAX_KEYED_NODES = 3_037_000_499


class TagGraphBuilder:
    """Accumulates ``(u, v, tag, prob)`` assignments, then builds a graph.

    Repeating the same ``(u, v)`` pair reuses one edge id; repeating the
    same ``(u, v, tag)`` triple is an error (the probability function is
    single-valued).

    Examples
    --------
    >>> b = TagGraphBuilder(num_nodes=3)
    >>> b.add(0, 1, "coffee", 0.7).add(0, 1, "arts", 0.9).add(1, 2, "bars", 0.2)
    TagGraphBuilder(nodes=3, edges=2, assignments=3)
    >>> g = b.build()
    >>> g.num_edges, g.num_tags
    (2, 3)
    """

    def __init__(self, num_nodes: int) -> None:
        if num_nodes < 0:
            raise GraphConstructionError(
                f"num_nodes must be >= 0, got {num_nodes}"
            )
        self._n = num_nodes
        self._edge_ids: dict[tuple[int, int], int] = {}
        self._src: list[int] = []
        self._dst: list[int] = []
        self._assignments: dict[str, dict[int, float]] = {}

    def add(self, u: int, v: int, tag: str, prob: float) -> "TagGraphBuilder":
        """Record ``P((u, v) | tag) = prob``; returns ``self`` for chaining."""
        if not (0 <= u < self._n and 0 <= v < self._n):
            raise GraphConstructionError(
                f"edge ({u}, {v}) references nodes outside [0, {self._n})"
            )
        if u == v:
            raise GraphConstructionError(f"self-loop ({u}, {u}) not allowed")
        check_probability(prob, context=f"edge ({u}, {v}) tag {tag!r}")
        edge_id = self._edge_ids.setdefault((u, v), len(self._src))
        if edge_id == len(self._src):
            self._src.append(u)
            self._dst.append(v)
        per_tag = self._assignments.setdefault(tag, {})
        if edge_id in per_tag:
            raise GraphConstructionError(
                f"duplicate assignment for edge ({u}, {v}) tag {tag!r}"
            )
        per_tag[edge_id] = prob
        return self

    def add_undirected(
        self, u: int, v: int, tag: str, prob: float
    ) -> "TagGraphBuilder":
        """Record the assignment in both directions (for undirected data)."""
        self.add(u, v, tag, prob)
        self.add(v, u, tag, prob)
        return self

    @property
    def num_edges(self) -> int:
        """Number of distinct directed edges recorded so far."""
        return len(self._src)

    def build(self) -> TagGraph:
        """Materialize the accumulated assignments into a :class:`TagGraph`."""
        tag_probs = {}
        for tag, per_edge in self._assignments.items():
            ids = np.fromiter(per_edge.keys(), dtype=np.int64, count=len(per_edge))
            probs = np.fromiter(
                per_edge.values(), dtype=np.float64, count=len(per_edge)
            )
            tag_probs[tag] = (ids, probs)
        return TagGraph(self._n, self._src, self._dst, tag_probs)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        assignments = sum(len(v) for v in self._assignments.values())
        return (
            f"TagGraphBuilder(nodes={self._n}, edges={self.num_edges}, "
            f"assignments={assignments})"
        )


def graph_from_columns(
    num_nodes: int,
    src: Sequence[int] | np.ndarray,
    dst: Sequence[int] | np.ndarray,
    tag_ids: Sequence[int] | np.ndarray,
    probs: Sequence[float] | np.ndarray,
    tag_names: Sequence[str],
) -> TagGraph:
    """Build a graph from ``(u, v, tag, prob)`` rows stored as columns.

    Row ``i`` states ``P((src[i], dst[i]) | tag_names[tag_ids[i]]) =
    probs[i]``. The graph equals the one a :class:`TagGraphBuilder` fed
    the rows in order would build: edge ids follow the first appearance
    of each ``(u, v)`` pair, and each tag keeps its entries in row
    order. All rows are validated at once; when any is invalid, the
    rows are replayed through :meth:`TagGraphBuilder.add`, so the error
    names the first bad row exactly as the builder does.

    Examples
    --------
    >>> g = graph_from_columns(3, [0, 0, 1], [1, 1, 2], [0, 1, 1],
    ...                        [0.7, 0.9, 0.2], ["coffee", "arts"])
    >>> g.num_edges, g.tags, g.edge_tag_map(0)
    (2, ('arts', 'coffee'), {'arts': 0.9, 'coffee': 0.7})
    """
    columns = [np.asarray(c) for c in (src, dst, tag_ids, probs)]
    if any(c.ndim != 1 or c.shape != columns[0].shape for c in columns):
        raise GraphConstructionError(
            "src, dst, tag_ids and probs must be 1-D and of equal length"
        )
    names = list(tag_names)
    codes = columns[2]
    if codes.size and (
        codes.dtype.kind not in "iu"
        or codes.min() < 0
        or codes.max() >= len(names)
    ):
        raise GraphConstructionError(
            f"tag_ids must be integers in [0, {len(names)})"
        )
    graph = _build_columns(num_nodes, *columns, names)
    if graph is None:
        us, vs, ts, ps = (c.tolist() for c in columns)
        graph = _replay(num_nodes, zip(us, vs, [names[t] for t in ts], ps))
    return graph


def graph_from_quadruples(
    num_nodes: int,
    quadruples: Iterable[tuple[int, int, str, float]],
) -> TagGraph:
    """Build a graph from an iterable of ``(u, v, tag, prob)`` rows.

    A row-shaped front end to :func:`graph_from_columns` for tests,
    examples, and dataset generation. An invalid row raises the same
    error :class:`TagGraphBuilder` would.
    """
    rows = quadruples if isinstance(quadruples, list) else list(quadruples)
    graph = None
    try:
        if rows and all(len(row) == 4 for row in rows):
            graph = _build_columns(num_nodes, *_row_columns(rows))
    except (TypeError, ValueError):
        pass  # unsized rows or unhashable tags: the replay reports them
    # The replay also reports the first bad row with the builder's message.
    return graph if graph is not None else _replay(num_nodes, rows)


def _row_columns(
    rows: list[tuple[int, int, str, float]],
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, list[str]]:
    """``(src, dst, tag_ids, probs, tag_names)`` of four-field rows.

    One column at a time, so at most one list of Python objects lives
    beside the arrays.
    """
    src = np.asarray([u for u, _, _, _ in rows])
    dst = np.asarray([v for _, v, _, _ in rows])
    vocab: dict[str, int] = {}
    codes = np.fromiter(
        (vocab.setdefault(tag, len(vocab)) for _, _, tag, _ in rows),
        np.int64, len(rows),
    )
    probs = np.asarray([p for _, _, _, p in rows])
    return src, dst, codes, probs, list(vocab)


def _build_columns(
    num_nodes: int,
    src: np.ndarray,
    dst: np.ndarray,
    tag_ids: np.ndarray,
    probs: np.ndarray,
    names: list[str],
) -> TagGraph | None:
    """The bulk build, or ``None`` to leave the rows to the replay.

    ``None`` means some row is invalid, or the input is one this path
    does not take: no rows, a repeated tag name, node ids that are not
    an integer array (Python ints beyond int64 included), probabilities
    that are not real numbers, or a node count past
    :data:`_MAX_KEYED_NODES`.
    """
    n = int(num_nodes)
    if (
        not 0 <= n <= _MAX_KEYED_NODES
        or not src.size
        or any(c.shape != (src.size,) for c in (src, dst, tag_ids, probs))
        or src.dtype.kind not in "iu"
        or dst.dtype.kind not in "iu"
        or probs.dtype.kind not in "iuf"
        or len(set(names)) != len(names)
    ):
        return None
    src = src.astype(np.int64, copy=False)
    dst = dst.astype(np.int64, copy=False)
    tag_ids = tag_ids.astype(np.int64, copy=False)
    if min(src.min(), dst.min()) < 0 or max(src.max(), dst.max()) >= n:
        return None
    if (src == dst).any():
        return None
    # Edge ids by first appearance: a stable sort groups equal (u, v)
    # keys, so each group starts at its first row.
    keys = src * n + dst
    order = stable_argsort(keys, n * n - 1)
    keys = keys[order]
    starts = np.empty(src.size, dtype=bool)
    starts[0] = True
    np.not_equal(keys[1:], keys[:-1], out=starts[1:])
    del keys
    first = order[starts]
    rank = stable_argsort(first, src.size - 1)
    edge_of_group = np.empty(first.size, dtype=np.int64)
    edge_of_group[rank] = np.arange(first.size)
    edge_ids = np.empty(src.size, dtype=np.int64)
    edge_ids[order] = edge_of_group[np.cumsum(starts) - 1]
    edge_rows = first[rank]
    del order, starts, first, rank, edge_of_group
    # Each tag's entries in row order: a stable sort by tag.
    by_tag = stable_argsort(tag_ids, len(names) - 1)
    ids = edge_ids[by_tag]
    ps = probs.astype(np.float64, copy=False)[by_tag]
    del edge_ids, by_tag
    bounds = np.cumsum(np.bincount(tag_ids, minlength=len(names))).tolist()
    tag_probs = {
        names[t]: (ids[lo:hi], ps[lo:hi])
        for t, (lo, hi) in enumerate(zip([0] + bounds, bounds))
        if hi > lo
    }
    # The constructor checks every probability lies in (0, 1] (NaN
    # fails) and that no tag repeats an edge id, i.e. a (u, v, tag) row.
    try:
        return TagGraph(n, src[edge_rows], dst[edge_rows], tag_probs)
    except GraphConstructionError:
        return None


def _replay(
    num_nodes: int, rows: Iterable[tuple[int, int, str, float]]
) -> TagGraph:
    builder = TagGraphBuilder(num_nodes)
    for u, v, tag, prob in rows:
        builder.add(u, v, tag, prob)
    return builder.build()
