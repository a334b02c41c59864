"""On-disk persistence for possible-world indexes.

The paper stores indexes on disk (their Table 3/7 sizes are GB on
disk; Table 7's query times include loading the selected tags' indexes
into memory). This module gives the same lifecycle: an
:class:`~repro.index.IndexManager` can be saved to a directory — one
``.npz`` file per tag holding its worlds, plus a JSON manifest with
the universe mask and accounting — and loaded back for querying.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from repro.exceptions import IndexError_
from repro.graphs.tag_graph import TagGraph
from repro.index.lazy import IndexManager
from repro.index.possible_world_index import TagIndex

_MANIFEST = "index_manifest.json"


def _tag_filename(position: int) -> str:
    # Tag names can contain characters unfit for filenames; files are
    # numbered and the manifest maps names to numbers.
    return f"tag_{position:05d}.npz"


def save_index(manager: IndexManager, directory: str | Path) -> int:
    """Write ``manager``'s worlds to ``directory``; returns bytes written.

    The directory is created if needed; existing index files in it are
    overwritten.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)

    tags = list(manager.indexed_tags)
    total_bytes = 0
    for position, tag in enumerate(tags):
        index = manager.index_for(tag)
        arrays = {
            f"world_{i}": index.world(i) for i in range(index.num_worlds)
        }
        path = directory / _tag_filename(position)
        with path.open("wb") as handle:
            np.savez_compressed(handle, **arrays)
        total_bytes += path.stat().st_size

    universe = manager.covered_mask
    manifest = {
        "tags": tags,
        "num_edges": int(universe.shape[0]),
        "is_local": bool(manager.is_local),
        "universe_edges": (
            np.flatnonzero(universe).tolist() if manager.is_local else None
        ),
        "build_seconds": manager.stats.build_seconds,
    }
    manifest_path = directory / _MANIFEST
    manifest_path.write_text(json.dumps(manifest), encoding="utf-8")
    total_bytes += manifest_path.stat().st_size
    return total_bytes


def load_index(
    graph: TagGraph,
    directory: str | Path,
    freeze: bool = False,
) -> IndexManager:
    """Load a previously saved index for ``graph``.

    The worlds are restored verbatim — a loaded manager answers queries
    identically to the one that was saved (given the same query RNG).
    Raises :class:`IndexError_` when the directory does not hold a
    manifest or when it was built for a different edge count.

    ``freeze=True`` returns the manager already frozen (see
    :meth:`~repro.index.lazy.IndexManager.freeze`): a read-only shared
    handle the serving layer can hand to concurrent queries.
    """
    directory = Path(directory)
    manifest_path = directory / _MANIFEST
    if not manifest_path.exists():
        raise IndexError_(f"no index manifest in {directory}")
    manifest = json.loads(manifest_path.read_text(encoding="utf-8"))

    if manifest["num_edges"] != graph.num_edges:
        raise IndexError_(
            f"index was built for a graph with {manifest['num_edges']} "
            f"edges; this graph has {graph.num_edges}"
        )

    universe = None
    if manifest["is_local"]:
        universe = np.zeros(graph.num_edges, dtype=bool)
        universe[np.array(manifest["universe_edges"], dtype=np.int64)] = True

    manager = IndexManager(graph, edge_universe=universe)
    for position, tag in enumerate(manifest["tags"]):
        path = directory / _tag_filename(position)
        if not path.exists():
            raise IndexError_(f"missing index file {path}")
        with np.load(path) as data:
            worlds = [
                data[f"world_{i}"].astype(np.int64)
                for i in range(len(data.files))
            ]
        _install_tag_index(manager, graph, tag, worlds, universe)
    manager.stats.build_seconds = float(manifest.get("build_seconds", 0.0))
    if freeze:
        manager.freeze()
    return manager


def _install_tag_index(
    manager: IndexManager,
    graph: TagGraph,
    tag: str,
    worlds: list[np.ndarray],
    universe: np.ndarray | None,
) -> None:
    """Place pre-sampled worlds into a manager without re-sampling."""
    index = TagIndex.from_worlds(graph, tag, worlds, universe)
    manager._indexes[tag] = index
    manager._stats.worlds_built += index.num_worlds
    manager._stats.stored_edges += index.stored_edges
    manager._stats.tags_indexed.add(tag)
