"""Most-probable path enumeration between seeds and targets.

What matters for spread from ``S`` to ``T`` is the set of highly
probable connecting paths (Section 4.1). We enumerate the top-``l``
most probable *simple* paths per seed-target pair over the
``(edge, tag)`` multigraph: parallel copies of each edge, one per tag
with non-zero conditional probability. A path therefore fixes a tag
choice on every hop; its tag set is the union of those choices and its
probability the product of the chosen ``P(e | c)``.

Enumeration is best-first over partial paths ordered by probability.
Because every extension multiplies by a factor ≤ 1, partial-path
probability is an admissible priority: paths pop in exactly
non-increasing probability order, so — while neither cap of
``TagSelectionConfig.max_queue`` binds — the first ``l`` arrivals at
the target are the top-``l`` (the same output Eppstein's algorithm
would give restricted to simple paths). Once the pop cap or the
frontier cap binds, they are the top-``l`` of the partial paths the
capped sweep kept.

Following the paper's Section 4.2 observation (3), seed nodes other
than the path's own source are never entered: every seed is already
active, so any path through another seed is dominated by that seed's
own shorter suffix. On the paper's Figure 9 example this prunes the
14 raw paths down to the 8 the batch algorithm considers.
"""

from __future__ import annotations

import heapq
import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.exceptions import ConfigurationError
from repro.graphs.tag_graph import TagGraph
from repro.utils.rng import ensure_rng
from repro.utils.validation import check_node_ids


@dataclass(frozen=True)
class TagPath:
    """A simple path with one tag chosen per hop.

    Attributes
    ----------
    nodes:
        Node sequence, source first, target last.
    edge_ids:
        Edge ids, one per hop (``len(nodes) - 1``).
    tag_choices:
        The tag chosen for each hop, aligned with ``edge_ids``.
    probability:
        Product of the chosen ``P(e | c)`` along the path.
    """

    nodes: tuple[int, ...]
    edge_ids: tuple[int, ...]
    tag_choices: tuple[str, ...]
    probability: float

    @property
    def source(self) -> int:
        """First node (the seed end)."""
        return self.nodes[0]

    @property
    def target(self) -> int:
        """Last node (the target end)."""
        return self.nodes[-1]

    @property
    def tag_set(self) -> frozenset[str]:
        """Distinct tags used along the path (the lattice key)."""
        return frozenset(self.tag_choices)

    @property
    def pairs(self) -> tuple[tuple[int, str], ...]:
        """``(edge_id, tag)`` pairs — the activation coins this path needs."""
        return tuple(zip(self.edge_ids, self.tag_choices))

    def __len__(self) -> int:
        return len(self.edge_ids)


@dataclass(frozen=True)
class TagSelectionConfig:
    """Knobs for path enumeration and tag selection.

    Attributes
    ----------
    per_pair_paths:
        Top-``l`` paths kept per seed-target pair (paper default 10,
        the Figure 12 sweet spot).
    max_hops:
        Hop cap on enumerated paths — long paths have negligible
        probability anyway.
    prob_floor:
        Partial paths below this probability are abandoned.
    max_queue:
        Cap on one seed's best-first sweep, which serves all of that
        seed's targets at once: the sweep stops after this many pops,
        and the frontier never holds more than this many partial
        paths. When a pop's children fill the frontier, the ones
        earlier in adjacency order (edge, then tag) are kept and the
        rest dropped, whatever their cost.
    mc_samples:
        Monte-Carlo samples for path-set spread evaluation.
    rr_theta:
        RR samples for the sketch-based evaluator (Section 4.4).
    opt_prime_ratio:
        The switch threshold ``OPT'_T`` as a fraction of ``|T|``: once
        an MC estimate exceeds it, evaluation switches to RR sketches.
    exact_edge_limit:
        Use exact enumeration instead of MC when the active path set
        touches at most this many distinct edges (test-friendly).
    max_path_targets:
        When the target set is larger than this, path enumeration runs
        against a uniform sample of targets of this size (scaling knob
        for the pure-Python substrate; documented in DESIGN.md).
    evaluator_mode:
        ``"auto"`` (exact → MC → RR per the two-step strategy), or a
        forced ``"exact"`` / ``"mc"`` / ``"rr"``.
    """

    per_pair_paths: int = 10
    max_hops: int = 5
    prob_floor: float = 1e-3
    max_queue: int = 100_000
    mc_samples: int = 200
    rr_theta: int = 1_000
    opt_prime_ratio: float = 0.05
    exact_edge_limit: int = 14
    max_path_targets: int = 200
    evaluator_mode: str = "auto"

    def __post_init__(self) -> None:
        if self.per_pair_paths <= 0:
            raise ConfigurationError("per_pair_paths must be positive")
        if self.max_hops <= 0:
            raise ConfigurationError("max_hops must be positive")
        if not (0.0 <= self.prob_floor < 1.0):
            raise ConfigurationError("prob_floor must lie in [0, 1)")
        if self.mc_samples <= 0 or self.rr_theta <= 0:
            raise ConfigurationError("sample counts must be positive")
        if not (0.0 < self.opt_prime_ratio <= 1.0):
            raise ConfigurationError("opt_prime_ratio must lie in (0, 1]")
        if self.evaluator_mode not in ("auto", "exact", "mc", "rr"):
            raise ConfigurationError(
                f"unknown evaluator_mode {self.evaluator_mode!r}"
            )


# Heap entries are plain tuples (cost, tiebreak, node, nodes, edge_ids,
# tags): tuple comparison stays in C and the unique tiebreak (the push
# number) guarantees the payload fields are never compared.


def top_paths_from_seed(
    graph: TagGraph,
    source: int,
    targets: Sequence[int],
    limit_per_target: int,
    forbidden: frozenset[int] = frozenset(),
    config: TagSelectionConfig = TagSelectionConfig(),
) -> dict[int, list[TagPath]]:
    """Top-``limit_per_target`` most probable simple paths to *every* target.

    One best-first sweep from ``source`` serves all targets at once —
    the frontier pops partial paths in non-increasing probability order,
    so, while neither ``config.max_queue`` cap binds, the first
    ``limit_per_target`` arrivals at each target are that pair's top
    paths. ``forbidden`` nodes (other seeds) are never entered, so a
    target among them gets no path. Returns ``{target: paths}``;
    targets with no surviving path are absent.
    """
    check_node_ids([source], graph.num_nodes, context="top_paths_from_seed")
    target_set = {int(t) for t in targets if int(t) != source}
    check_node_ids(target_set, graph.num_nodes, context="top_paths_from_seed")
    # A forbidden target can never finish; sweeping for it would only
    # run the sweep on to its pop cap.
    target_set.difference_update(forbidden)
    if not target_set:
        return {}

    heap: list[tuple] = [(0.0, 0, source, (source,), (), ())]
    pushes = 1
    arcs = graph.forward_arcs()
    found: dict[int, list[TagPath]] = {}
    unfinished = set(target_set)
    floor_cost = (
        math.inf if config.prob_floor <= 0.0 else -math.log(config.prob_floor)
    )
    max_hops = config.max_hops
    max_queue = config.max_queue
    heappop, heappush = heapq.heappop, heapq.heappush
    pops = 0

    while heap and unfinished and pops < max_queue:
        cost, _tie, node, nodes, edge_ids, tags = heappop(heap)
        pops += 1
        if node in target_set:
            bucket = found.setdefault(node, [])
            if len(bucket) < limit_per_target:
                bucket.append(
                    TagPath(
                        nodes=nodes,
                        edge_ids=edge_ids,
                        tag_choices=tags,
                        probability=math.exp(-cost),
                    )
                )
                if len(bucket) >= limit_per_target:
                    unfinished.discard(node)
            # A target may still lie on the way to other targets —
            # keep expanding through it.
        if len(edge_ids) >= max_hops:
            continue
        # The frontier holds at most max_queue entries and cannot shrink
        # during an expansion, so the expansion ends at the push that
        # fills it; the children left over are dropped, whatever their
        # cost.
        room = max_queue - len(heap)
        for eid, child, tag_costs in arcs[node]:
            if child in nodes or child in forbidden:
                continue
            child_nodes = nodes + (child,)
            child_edges = edge_ids + (eid,)
            for tag, neglog in tag_costs:
                child_cost = cost + neglog
                if child_cost > floor_cost:
                    continue
                heappush(
                    heap,
                    (
                        child_cost,
                        pushes,
                        child,
                        child_nodes,
                        child_edges,
                        tags + (tag,),
                    ),
                )
                pushes += 1
                room -= 1
                if not room:
                    break
            if not room:
                break
    return found


def top_paths(
    graph: TagGraph,
    source: int,
    target: int,
    limit: int,
    forbidden: frozenset[int] = frozenset(),
    config: TagSelectionConfig = TagSelectionConfig(),
) -> list[TagPath]:
    """Top-``limit`` most probable simple (edge, tag) paths source → target.

    Single-pair convenience wrapper over :func:`top_paths_from_seed`;
    paths come back in non-increasing probability order.
    """
    check_node_ids([source, target], graph.num_nodes, context="top_paths")
    if source == target:
        return []
    per_target = top_paths_from_seed(
        graph, source, [target], limit, forbidden=forbidden, config=config
    )
    return per_target.get(int(target), [])


def collect_paths(
    graph: TagGraph,
    seeds: Sequence[int],
    targets: Sequence[int],
    config: TagSelectionConfig = TagSelectionConfig(),
    rng: np.random.Generator | int | None = None,
) -> list[TagPath]:
    """Top-``l`` paths for every (seed, target) pair, pooled and deduped.

    Seed-to-seed hops are excluded (Section 4.2 observation (3)). When
    ``targets`` exceeds ``config.max_path_targets``, a uniform sample of
    that many targets anchors the enumeration — the scaling knob that
    stands in for the paper's C++ throughput.
    """
    rng = ensure_rng(rng)
    seed_list = sorted({int(s) for s in seeds})
    target_list = sorted({int(t) for t in targets})
    check_node_ids(seed_list, graph.num_nodes, context="collect_paths")
    check_node_ids(target_list, graph.num_nodes, context="collect_paths")

    if len(target_list) > config.max_path_targets:
        chosen = rng.choice(
            np.array(target_list, dtype=np.int64),
            size=config.max_path_targets,
            replace=False,
        )
        target_list = sorted(int(t) for t in chosen)

    seed_set = frozenset(seed_list)
    paths: list[TagPath] = []
    seen: set[tuple[tuple[int, ...], tuple[str, ...]]] = set()
    for seed in seed_list:
        per_target = top_paths_from_seed(
            graph,
            seed,
            target_list,
            config.per_pair_paths,
            forbidden=seed_set,
            config=config,
        )
        for target in sorted(per_target):
            for path in per_target[target]:
                key = (path.edge_ids, path.tag_choices)
                if key not in seen:
                    seen.add(key)
                    paths.append(path)
    return paths
