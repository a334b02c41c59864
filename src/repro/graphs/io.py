"""Serialization of :class:`~repro.graphs.TagGraph` to a TSV interchange format.

The format is one assignment per line::

    u <TAB> v <TAB> tag <TAB> prob

with a single header line ``# nodes=<n>`` carrying the node count (so
isolated nodes survive a round trip). Lines starting with ``#`` after
the header are comments.
"""

from __future__ import annotations

from itertools import repeat
from pathlib import Path
from typing import TextIO

import numpy as np

from repro.exceptions import GraphConstructionError
from repro.graphs.builders import TagGraphBuilder, graph_from_columns
from repro.graphs.tag_graph import TagGraph
from repro.utils.mathx import stable_argsort

#: Characters a tag cannot contain: the loader splits on them.
_SEPARATORS = ("\t", "\n", "\r")
#: Characters of text the loader parses per chunk (bounds its memory).
_CHUNK_CHARS = 1 << 16
#: Rows the writer formats per chunk.
_CHUNK_ROWS = 1 << 10


def save_tag_graph(graph: TagGraph, path: str | Path) -> None:
    """Write ``graph`` to ``path`` in the TSV interchange format.

    Rows are grouped by edge id and sorted by tag within an edge, so a
    load assigns the same ids. Raises :class:`GraphConstructionError`,
    before writing anything, when a written tag contains a tab or a line
    break, or when an edge has no tag rows: the format cannot state such
    an edge, so a load would renumber every later edge.
    """
    tags = graph.tags
    arrays = [graph.tag_edges(tag) for tag in tags]
    sizes = [ids.size for ids, _ in arrays]
    for tag, size in zip(tags, sizes):
        if size and any(sep in tag for sep in _SEPARATORS):
            raise GraphConstructionError(
                f"tag {tag!r} contains a tab or line break, which the "
                "TSV format cannot store"
            )
    # The rows are in tag name order (``tags`` is sorted), so a stable
    # sort by edge id orders them by (edge id, tag).
    edge_ids = np.concatenate([np.empty(0, np.int64), *(i for i, _ in arrays)])
    tagged = np.zeros(graph.num_edges, dtype=bool)
    tagged[edge_ids] = True
    if not tagged.all():
        raise GraphConstructionError(
            f"edge {int(np.argmin(tagged))} has no tags, which the TSV "
            "format cannot store: a reload would renumber every later "
            "edge (an EdgeRemove tombstone keeps its id, also through "
            "MutableTagGraph.compact())"
        )
    probs = np.concatenate([np.empty(0), *(p for _, p in arrays)])
    tag_ids = np.repeat(np.arange(len(tags)), sizes)
    order = stable_argsort(edge_ids, graph.num_edges - 1)
    edge_ids, tag_ids, probs = edge_ids[order], tag_ids[order], probs[order]
    with Path(path).open("w", encoding="utf-8") as handle:
        handle.write(f"# nodes={graph.num_nodes}\n")
        # Rows go out in bounded chunks, so no whole-file text is held.
        for lo in range(0, order.size, _CHUNK_ROWS):
            eids = edge_ids[lo:lo + _CHUNK_ROWS]
            handle.write("".join([
                f"{u}\t{v}\t{tags[t]}\t{prob:.17g}\n"
                for u, v, t, prob in zip(
                    graph.src[eids].tolist(),
                    graph.dst[eids].tolist(),
                    tag_ids[lo:lo + _CHUNK_ROWS].tolist(),
                    probs[lo:lo + _CHUNK_ROWS].tolist(),
                )
            ]))


def load_tag_graph(path: str | Path) -> TagGraph:
    """Read a graph previously written by :func:`save_tag_graph`.

    Raises :class:`GraphConstructionError` on malformed files (missing
    header, wrong column count, unparsable numbers).
    """
    path = Path(path)
    with path.open("r", encoding="utf-8") as handle:
        header = handle.readline().strip()
        if not header.startswith("# nodes="):
            raise GraphConstructionError(
                f"{path}: missing '# nodes=<n>' header, got {header!r}"
            )
        try:
            num_nodes = int(header.split("=", 1)[1])
        except ValueError as exc:
            raise GraphConstructionError(
                f"{path}: unparsable node count in header {header!r}"
            ) from exc
        columns = _read_columns(handle)
        if columns is None:
            # Some row does not parse: read the rows one at a time,
            # which raises for the first bad row in file order.
            handle.seek(0)
            handle.readline()
            return _load_rows(handle, path, num_nodes)
    return graph_from_columns(num_nodes, *columns)


def _read_columns(
    handle: TextIO,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, list[str]] | None:
    """Parse the rows into ``(src, dst, tag_ids, probs, tag_names)``.

    Returns ``None`` as soon as a row has the wrong field count or a
    number that does not parse. Every distinct field string goes
    through ``int`` or ``float`` itself, so each accepted value is
    exactly the one the row loop would read; node ids and
    probabilities repeat across rows, so each is parsed once.
    """
    ints: dict[str, int] = {}
    floats: dict[str, float] = {}
    vocab: dict[str, int] = {}
    chunks = []
    while lines := handle.readlines(_CHUNK_CHARS):
        rows = [
            line for line in map(str.strip, lines) if line and line[0] != "#"
        ]
        if not rows:
            continue
        if set(map(str.count, rows, repeat("\t"))) != {3}:
            return None
        # One split per chunk: the fields of row i are 4i .. 4i + 3.
        fields = "\t".join(rows).split("\t")
        us, vs, tags, ps = (fields[i::4] for i in range(4))
        try:
            for text in set(us).union(vs).difference(ints):
                ints[text] = int(text)
            for text in set(ps).difference(floats):
                floats[text] = float(text)
        except ValueError:
            return None
        for tag in dict.fromkeys(tags):
            vocab.setdefault(tag, len(vocab))
        count = len(rows)
        try:
            chunks.append((
                np.fromiter(map(ints.__getitem__, us), np.int64, count),
                np.fromiter(map(ints.__getitem__, vs), np.int64, count),
                np.fromiter(map(vocab.__getitem__, tags), np.int64, count),
                np.fromiter(map(floats.__getitem__, ps), np.float64, count),
            ))
        except OverflowError:
            return None  # a node id beyond int64: out of range anyway
    if not chunks:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty, empty, empty.astype(np.float64), []
    src, dst, tag_ids, probs = (np.concatenate(col) for col in zip(*chunks))
    return src, dst, tag_ids, probs, list(vocab)


def _load_rows(handle: TextIO, path: Path, num_nodes: int) -> TagGraph:
    """The row-at-a-time loader: reports the first malformed row."""
    builder = TagGraphBuilder(num_nodes)
    for lineno, line in enumerate(handle, start=2):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != 4:
            raise GraphConstructionError(
                f"{path}:{lineno}: expected 4 tab-separated fields, "
                f"got {len(parts)}"
            )
        try:
            u, v = int(parts[0]), int(parts[1])
            prob = float(parts[3])
        except ValueError as exc:
            raise GraphConstructionError(
                f"{path}:{lineno}: unparsable edge row {line!r}"
            ) from exc
        builder.add(u, v, parts[2], prob)
    return builder.build()
