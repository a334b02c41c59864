"""Spread evaluation for sets of selected paths (paper Section 4.4).

Both tag-selection heuristics repeatedly ask: *what is the expected
targeted spread if exactly these paths are active?* Active paths induce
a subgraph of ``(edge, tag)`` pairs; an edge's activation probability is
the independent aggregation of its active pairs, and the spread is the
probabilistic reachability from the seeds to the targets through that
subgraph — the quantity computed by hand in the paper's Example 3/4.

Three estimators are provided, composed by the paper's two-step
strategy:

* **exact** — possible-world enumeration when few distinct edges are
  active (cheap early, exact): all ``2^c`` worlds at once, as packed
  world lanes relaxed over the ``c`` active edges
  (:func:`exact_path_spread`);
* **mc** — IC cascades over the masked graph (the paper's choice while
  the running spread is below ``OPT'_T``);
* **rr** — pre-sampled reverse sketches: one coin per ``(edge, tag)``
  pair per sample and a root drawn uniformly from the targets. A path
  covers a sample iff its target is the root and all its pair coins
  succeeded; a path *set*'s spread estimate is the covered fraction
  times ``|T|``. Per-path coverage rows are precomputed bit-vectors, so
  evaluating a candidate batch is a vectorized OR — this is what makes
  batch selection affordable once many paths are active.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro import obs
from repro.diffusion.cascade import simulate_cascade
from repro.exceptions import InvalidQueryError
from repro.graphs.tag_graph import TagGraph
from repro.tags.paths import TagPath, TagSelectionConfig
from repro.utils.rng import ensure_rng
from repro.utils.validation import check_node_ids


#: Worlds per block of :func:`exact_path_spread` (2^14); bounds its
#: memory whatever the number of active edges.
EXACT_BLOCK_BITS = 14


def exact_path_spread(
    src: Sequence[int],
    dst: Sequence[int],
    probs: np.ndarray,
    seeds: Sequence[int],
    targets: Sequence[int],
) -> float:
    """Expected number of ``targets`` reached from ``seeds`` over ``c`` arcs.

    Enumerates all ``2^c`` possible worlds of the arcs
    ``src[i] -> dst[i]`` (live with probability ``probs[i]``): world
    ``w`` keeps arc ``i`` iff bit ``i`` of ``w`` is set. Each node holds
    one packed lane of worlds (a Python int, bit ``w`` set when ``w``
    reaches it), so one relaxation over the arcs advances every world
    at once; it repeats until no lane changes. A world's probability is
    the product of its arc factors taken in arc order, and the total is
    the world-ordered running sum of ``prob * count`` — the same float
    operations, in the same order, as a one-BFS-per-world loop.
    ``targets`` must be distinct.
    """
    count = len(src)
    low_bits = min(count, EXACT_BLOCK_BITS)
    width = 1 << low_bits  # worlds per block
    full = (1 << width) - 1
    world = np.arange(width, dtype=np.int64)
    low_prob = np.ones(width, dtype=np.float64)
    low_alive = []
    for pos in range(low_bits):
        low_prob *= np.where(world >> pos & 1, probs[pos], 1.0 - probs[pos])
        half = 1 << pos
        # Bits [half, 2*half) of every period of 2*half worlds.
        low_alive.append(
            ((1 << half) - 1 << half) * (full // ((1 << 2 * half) - 1))
        )
    targets = list(targets)
    num_bytes = (width + 7) // 8
    total = np.zeros(1, dtype=np.float64)
    for block in range(1 << (count - low_bits)):
        prob = low_prob.copy()
        alive = list(low_alive)
        for pos in range(low_bits, count):
            live = block >> (pos - low_bits) & 1
            prob *= probs[pos] if live else 1.0 - probs[pos]
            alive.append(full if live else 0)
        reach = dict.fromkeys(seeds, full)
        changed = True
        while changed:
            changed = False
            for pos in range(count):
                lane = reach.get(src[pos], 0) & alive[pos]
                head = reach.get(dst[pos], 0)
                if lane & ~head:
                    reach[dst[pos]] = head | lane
                    changed = True
        lanes = b"".join(
            reach.get(t, 0).to_bytes(num_bytes, "little") for t in targets
        )
        reached = np.unpackbits(
            np.frombuffer(lanes, dtype=np.uint8), bitorder="little"
        ).reshape(len(targets), num_bytes * 8)[:, :width]
        counts = reached.sum(axis=0, dtype=np.int64)
        total = np.cumsum(np.concatenate((total, prob * counts)))[-1:]
    return float(total[0])


class PathSpreadEvaluator:
    """Two-step (exact/MC → RR) spread evaluator over a pooled path list.

    Parameters
    ----------
    graph:
        The tagged graph the paths were enumerated on.
    seeds, targets:
        The fixed seed set and target set of the tag-selection call.
    paths:
        The pooled enumerated paths; evaluation requests refer to them
        by index.
    config:
        Evaluation knobs (sample counts, switch threshold, mode).
    rng:
        Seed or generator (owns all sampling for this evaluator).
    """

    def __init__(
        self,
        graph: TagGraph,
        seeds: Sequence[int],
        targets: Sequence[int],
        paths: Sequence[TagPath],
        config: TagSelectionConfig = TagSelectionConfig(),
        rng: np.random.Generator | int | None = None,
    ) -> None:
        self._graph = graph
        self._seeds = sorted({int(s) for s in seeds})
        self._targets = sorted({int(t) for t in targets})
        if not self._targets:
            raise InvalidQueryError("target set must not be empty")
        check_node_ids(self._seeds, graph.num_nodes, context="evaluator seeds")
        check_node_ids(
            self._targets, graph.num_nodes, context="evaluator targets"
        )
        self._paths = list(paths)
        self._config = config
        self._rng = ensure_rng(rng)

        # Unique (edge, tag) pairs across all paths, with their probs.
        self._pair_index: dict[tuple[int, str], int] = {}
        pair_probs: list[float] = []
        pair_edges: list[int] = []
        self._path_pairs: list[np.ndarray] = []
        for path in self._paths:
            indices = []
            for edge_id, tag in path.pairs:
                key = (edge_id, tag)
                idx = self._pair_index.get(key)
                if idx is None:
                    idx = len(pair_probs)
                    self._pair_index[key] = idx
                    pair_probs.append(graph.edge_tag_probability(edge_id, tag))
                    pair_edges.append(edge_id)
                indices.append(idx)
            self._path_pairs.append(np.array(indices, dtype=np.int64))
        self._pair_probs = np.array(pair_probs, dtype=np.float64)
        self._pair_edges = np.array(pair_edges, dtype=np.int64)

        self._mode = "rr" if config.evaluator_mode == "rr" else "cascade"
        self._opt_prime = config.opt_prime_ratio * len(self._targets)
        self._path_coverage: np.ndarray | None = None
        self.evaluations = 0

    # ------------------------------------------------------------------
    # Public interface
    # ------------------------------------------------------------------
    @property
    def num_paths(self) -> int:
        """How many pooled paths this evaluator knows about."""
        return len(self._paths)

    @property
    def num_targets(self) -> int:
        """Size of the target set ``|T|``."""
        return len(self._targets)

    @property
    def mode(self) -> str:
        """Current estimator mode: ``"cascade"`` (exact/MC) or ``"rr"``."""
        return self._mode

    def spread(self, active_paths: Sequence[int]) -> float:
        """Expected targeted spread when exactly ``active_paths`` are live.

        Applies the two-step strategy in ``"auto"`` mode: cascade-based
        estimation until an estimate crosses ``OPT'_T``, RR sketches
        afterwards.
        """
        self.evaluations += 1
        obs.count("tags.spread_evaluations")
        indices = sorted(set(int(i) for i in active_paths))
        for idx in indices:
            if not (0 <= idx < len(self._paths)):
                raise InvalidQueryError(
                    f"path index {idx} outside [0, {len(self._paths)})"
                )
        if not indices or not self._seeds:
            return 0.0

        if self._mode == "rr":
            return self._rr_spread(indices)

        value = self._cascade_spread(indices)
        if (
            self._config.evaluator_mode == "auto"
            and value >= self._opt_prime
        ):
            self._mode = "rr"
        return value

    # ------------------------------------------------------------------
    # Cascade-based estimation (exact or MC)
    # ------------------------------------------------------------------
    def _edge_probs_for(self, indices: Sequence[int]) -> np.ndarray:
        """Per-edge probability induced by the active (edge, tag) pairs."""
        active_pairs = np.unique(
            np.concatenate([self._path_pairs[i] for i in indices])
        )
        survival = np.ones(self._graph.num_edges, dtype=np.float64)
        np.multiply.at(
            survival,
            self._pair_edges[active_pairs],
            1.0 - self._pair_probs[active_pairs],
        )
        return 1.0 - survival

    def _cascade_spread(self, indices: Sequence[int]) -> float:
        edge_probs = self._edge_probs_for(indices)
        active_edges = np.flatnonzero(edge_probs > 0.0)
        use_exact = self._config.evaluator_mode == "exact" or (
            self._config.evaluator_mode == "auto"
            and active_edges.size <= self._config.exact_edge_limit
        )
        if use_exact:
            return self._exact_spread(edge_probs, active_edges)

        target_arr = np.array(self._targets, dtype=np.int64)
        total = 0
        for _ in range(self._config.mc_samples):
            active = simulate_cascade(
                self._graph, self._seeds, edge_probs, self._rng
            )
            total += int(active[target_arr].sum())
        obs.count("cascade.samples_drawn", self._config.mc_samples)
        return total / self._config.mc_samples

    def _exact_spread(
        self, edge_probs: np.ndarray, active_edges: np.ndarray
    ) -> float:
        return exact_path_spread(
            self._graph.src[active_edges].tolist(),
            self._graph.dst[active_edges].tolist(),
            edge_probs[active_edges],
            self._seeds,
            self._targets,
        )

    # ------------------------------------------------------------------
    # RR-sketch estimation
    # ------------------------------------------------------------------
    def _ensure_rr(self) -> np.ndarray:
        """Lazily build the per-path coverage matrix (num_paths × θ)."""
        if self._path_coverage is None:
            theta = self._config.rr_theta
            obs.count("tags.rr_matrix_built")
            obs.count("rr.samples_drawn", theta)
            roots = self._rng.choice(
                np.array(self._targets, dtype=np.int64), size=theta
            )
            # One coin per unique (edge, tag) pair per sample — pairs
            # shared by several paths share their coins within a sample,
            # preserving correlations exactly.
            coins = (
                self._rng.random((self._pair_probs.size, theta))
                < self._pair_probs[:, None]
            )
            coverage = np.zeros((len(self._paths), theta), dtype=bool)
            for idx, path in enumerate(self._paths):
                pair_rows = self._path_pairs[idx]
                row = coins[pair_rows].all(axis=0) if pair_rows.size else (
                    np.ones(theta, dtype=bool)
                )
                coverage[idx] = row & (roots == path.target)
            self._path_coverage = coverage
        return self._path_coverage

    def _rr_spread(self, indices: Sequence[int]) -> float:
        coverage = self._ensure_rr()
        covered = coverage[np.array(indices, dtype=np.int64)].any(axis=0)
        return covered.mean() * len(self._targets)
