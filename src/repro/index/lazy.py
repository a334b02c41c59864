"""Index manager implementing eager (I-TRS) and lazy (L-TRS) building.

The manager owns one :class:`~repro.index.TagIndex` per tag and an
:class:`~repro.index.IndexStats` accumulator. Lazy building follows the
paper's L-TRS rule and Lemma 3: build ``θ_c`` worlds for a tag the first
time it is requested; never extend an existing tag's index (successive
iterations only ever need fewer worlds, because OPT_T — and hence θ —
is monotonically non-increasing across iterations).
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence

import numpy as np

from repro import obs
from repro.exceptions import IndexError_
from repro.graphs.tag_graph import TagGraph
from repro.index.possible_world_index import TagIndex
from repro.index.stats import IndexStats
from repro.utils.rng import ensure_rng
from repro.utils.timing import Timer
from repro.utils.validation import check_tags_exist


class IndexManager:
    """Owns per-tag possible-world indexes over an (optionally local) universe.

    Parameters
    ----------
    graph:
        The tagged uncertain graph.
    edge_universe:
        Optional boolean mask restricting indexed edges (LL-TRS local
        region); ``None`` indexes the whole edge set.
    """

    def __init__(
        self,
        graph: TagGraph,
        edge_universe: np.ndarray | None = None,
    ) -> None:
        if edge_universe is not None and edge_universe.shape != (
            graph.num_edges,
        ):
            raise IndexError_(
                "edge_universe must be a boolean mask of length m"
            )
        self._graph = graph
        self._edge_universe = edge_universe
        self._indexes: dict[str, TagIndex] = {}
        self._stats = IndexStats()
        self._frozen = False

    # ------------------------------------------------------------------
    # Freezing (shared read-only handles)
    # ------------------------------------------------------------------
    def freeze(self) -> "IndexManager":
        """Make this manager read-only and safe to share across threads.

        After freezing, :meth:`ensure_indexes` never builds: tags that
        already have worlds are plain cache hits (no stats mutation, no
        timing), and a request for an unindexed tag raises
        :class:`IndexError_` instead of racing a build. All query-side
        methods (:meth:`sample_world_choices`, :meth:`working_mask`,
        :meth:`lane_words`, :meth:`index_for`) only read, so one frozen
        manager can back any number of concurrent queries. Returns
        ``self`` for chaining (``load_index(...).freeze()``).
        """
        self._frozen = True
        return self

    @property
    def frozen(self) -> bool:
        """Whether this manager is a read-only shared handle."""
        return self._frozen

    # ------------------------------------------------------------------
    # Building
    # ------------------------------------------------------------------
    def ensure_indexes(
        self,
        tags: Iterable[str],
        theta_c: int,
        rng: np.random.Generator | int | None = None,
    ) -> list[str]:
        """Build ``theta_c`` worlds for each tag that has none yet.

        Existing tags are left untouched (L-TRS reuse; Lemma 3). Returns
        the list of tags actually built, for diagnostics.
        """
        rng = ensure_rng(rng)
        tag_list = list(tags)
        check_tags_exist(tag_list, self._graph.tags)
        if self._frozen:
            missing = [tag for tag in tag_list if tag not in self._indexes]
            if missing:
                raise IndexError_(
                    f"frozen index manager has no worlds for {missing!r}; "
                    "build before freeze() or serve only indexed tags"
                )
            for _ in tag_list:
                obs.count("index.cache_hits")
            return []
        built: list[str] = []
        timer = Timer()
        with timer:
            for tag in tag_list:
                if tag in self._indexes:
                    # L-TRS reuse: a previously built tag is a cache hit.
                    obs.count("index.cache_hits")
                    continue
                obs.count("index.cache_misses")
                index = TagIndex(
                    self._graph,
                    tag,
                    theta_c,
                    edge_universe=self._edge_universe,
                    rng=rng,
                )
                self._indexes[tag] = index
                obs.count("index.worlds_built", index.num_worlds)
                obs.count("index.stored_edges", index.stored_edges)
                self._stats.worlds_built += index.num_worlds
                self._stats.stored_edges += index.stored_edges
                self._stats.tags_indexed.add(tag)
                built.append(tag)
        self._stats.build_seconds += timer.elapsed
        return built

    def build_all_tags(
        self,
        theta_c: int,
        rng: np.random.Generator | int | None = None,
    ) -> list[str]:
        """Eagerly index the *entire* vocabulary — the I-TRS strategy."""
        return self.ensure_indexes(self._graph.tags, theta_c, rng)

    # ------------------------------------------------------------------
    # Querying
    # ------------------------------------------------------------------
    def has_index(self, tag: str) -> bool:
        """Whether ``tag`` already has worlds built."""
        return tag in self._indexes

    def index_for(self, tag: str) -> TagIndex:
        """The :class:`TagIndex` for ``tag``; raises if absent."""
        try:
            return self._indexes[tag]
        except KeyError:
            raise IndexError_(
                f"no index built for tag {tag!r}; call ensure_indexes first"
            ) from None

    def sample_world_choices(
        self,
        tags: Sequence[str],
        rng: np.random.Generator | int | None = None,
    ) -> dict[str, int]:
        """Pick one random world per tag — the identity of a working graph."""
        rng = ensure_rng(rng)
        return {
            tag: self.index_for(tag).sample_world_index(rng) for tag in tags
        }

    def working_mask(
        self,
        choices: Mapping[str, int],
        out: np.ndarray | None = None,
    ) -> np.ndarray:
        """Union the chosen worlds into a boolean edge mask (Figure 6c).

        Passing ``out`` reuses a buffer across working graphs; it is
        zeroed before use.
        """
        if out is None:
            out = np.zeros(self._graph.num_edges, dtype=bool)
        else:
            if out.shape != (self._graph.num_edges,):
                raise IndexError_("out buffer must have length m")
            out[:] = False
        for tag, world_idx in choices.items():
            out[self.index_for(tag).world(world_idx)] = True
        return out

    def forced_columns(self, tags: Sequence[str]) -> np.ndarray:
        """Sorted edge ids any world of ``tags`` can hold.

        These are the covered edges a working graph over ``tags`` can
        contain; every other covered edge is absent from all of them.
        """
        candidates = [self.index_for(tag).candidate_edges for tag in tags]
        if not candidates:
            return np.empty(0, dtype=np.int64)
        return np.unique(np.concatenate(candidates))

    def lane_words(
        self,
        tags: Sequence[str],
        choices: np.ndarray,
        columns: np.ndarray,
    ) -> np.ndarray:
        """Working-graph unions of 64-lane blocks as per-edge lane words.

        The packed analogue of :meth:`working_mask`: ``choices`` is
        ``(64 * blocks, len(tags))`` world indexes, lane-major per
        block, and ``columns`` comes from :meth:`forced_columns`.
        Returns ``(blocks, columns.size)`` uint64 whose bit ``b`` of
        ``[j, c]`` is set iff edge ``columns[c]`` lies in the union of
        the worlds lane ``b`` of block ``j`` chose.
        """
        blocks = choices.shape[0] // 64
        out = np.zeros((blocks, columns.size), dtype=np.uint64)
        for position, tag in enumerate(tags):
            index = self.index_for(tag)
            cols = np.searchsorted(columns, index.candidate_edges)
            out[:, cols] |= index.lane_words(choices[:, position])
        return out

    @property
    def covered_mask(self) -> np.ndarray:
        """Edges the index may speak for; the rest need online coins."""
        if self._edge_universe is None:
            return np.ones(self._graph.num_edges, dtype=bool)
        return self._edge_universe

    @property
    def is_local(self) -> bool:
        """Whether this manager indexes only a local region."""
        return self._edge_universe is not None

    @property
    def stats(self) -> IndexStats:
        """Accumulated build-cost statistics."""
        return self._stats

    @property
    def indexed_tags(self) -> tuple[str, ...]:
        """Tags that currently have worlds, sorted."""
        return tuple(sorted(self._indexes))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"IndexManager(tags={len(self._indexes)}, "
            f"worlds={self._stats.worlds_built}, local={self.is_local})"
        )
