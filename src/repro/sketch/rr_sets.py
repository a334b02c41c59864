"""Reverse-reachable (RR) set sampling.

An RR set for root ``v`` is the set of nodes that can reach ``v`` in a
random possible world. Sampling uses the deferred-decision principle:
a reverse BFS from the root that flips each incoming edge's coin the
first time it is examined, which is distributionally identical to
materializing the whole world first (Borgs et al., SODA 2014).
"""

from __future__ import annotations

from collections import deque
from collections.abc import Sequence
from typing import TYPE_CHECKING

import numpy as np

from repro.engine.parallel import resolve_engine
from repro.exceptions import InvalidQueryError
from repro.graphs.tag_graph import TagGraph
from repro.utils.rng import ensure_rng
from repro.utils.validation import as_target_array, check_node_ids

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.engine.parallel import SamplingEngine
    from repro.engine.rr_storage import RRCollection
    from repro.engine.runtime import RunBudget


def reverse_reachable_set(
    graph: TagGraph,
    root: int,
    edge_probs: np.ndarray,
    rng: np.random.Generator | int | None = None,
) -> np.ndarray:
    """Sample one RR set for ``root`` with lazy coin flips.

    Returns the member node ids as an array (always includes ``root``).
    """
    rng = ensure_rng(rng)
    check_node_ids([root], graph.num_nodes, context="reverse_reachable_set")
    visited = np.zeros(graph.num_nodes, dtype=bool)
    return _reverse_reachable_set_into(graph, root, edge_probs, rng, visited)


def _reverse_reachable_set_into(
    graph: TagGraph,
    root: int,
    edge_probs: np.ndarray,
    rng: np.random.Generator,
    visited: np.ndarray,
) -> np.ndarray:
    """Scalar reverse BFS core; ``visited`` is a reusable scratch buffer.

    The buffer must arrive all-``False`` and is restored before
    returning, so batch callers avoid a length-``n`` allocation per
    sample. Scalar sketch repair runs it once per dirty set.
    """
    visited[root] = True
    members = [int(root)]
    queue: deque[int] = deque([int(root)])

    rev_indptr, rev_edges = graph.reverse_csr()
    src = graph.src
    while queue:
        node = queue.popleft()
        edge_ids = rev_edges[rev_indptr[node]:rev_indptr[node + 1]]
        if edge_ids.size == 0:
            continue
        coins = rng.random(edge_ids.size) < edge_probs[edge_ids]
        for eid in edge_ids[coins]:
            parent = int(src[eid])
            if not visited[parent]:
                visited[parent] = True
                members.append(parent)
                queue.append(parent)
    result = np.array(members, dtype=np.int64)
    visited[result] = False
    return result


def rr_set_from_edge_mask(
    graph: TagGraph, root: int, edge_mask: np.ndarray
) -> np.ndarray:
    """RR set for ``root`` in a *fixed* world given by ``edge_mask``.

    Used by the index-based schemes (I-TRS and friends), where the world
    is the union of pre-sampled per-tag possible-world indexes and no
    further coins are flipped.
    """
    check_node_ids([root], graph.num_nodes, context="rr_set_from_edge_mask")
    if edge_mask.shape != (graph.num_edges,):
        raise InvalidQueryError(
            f"edge_mask must have length m={graph.num_edges}, "
            f"got shape {edge_mask.shape}"
        )

    visited = np.zeros(graph.num_nodes, dtype=bool)
    visited[root] = True
    members = [int(root)]
    queue: deque[int] = deque([int(root)])

    rev_indptr, rev_edges = graph.reverse_csr()
    src = graph.src
    while queue:
        node = queue.popleft()
        for eid in rev_edges[rev_indptr[node]:rev_indptr[node + 1]]:
            if edge_mask[eid]:
                parent = int(src[eid])
                if not visited[parent]:
                    visited[parent] = True
                    members.append(parent)
                    queue.append(parent)
    return np.array(members, dtype=np.int64)


def sample_rr_sets(
    graph: TagGraph,
    targets: Sequence[int],
    edge_probs: np.ndarray,
    theta: int,
    rng: np.random.Generator | int | None = None,
    engine: "SamplingEngine | None" = None,
) -> "RRCollection":
    """Sample ``theta`` targeted RR sets (roots uniform over ``targets``).

    This is the *targeted* refinement: in classical reverse sketching the
    root is uniform over all of ``V``; here it is uniform over ``T``
    only, so coverage fractions estimate spread *within the target set*.

    This is the validating API boundary: ``targets`` are deduplicated,
    sorted, and range-checked exactly once here. Hot call paths that
    already hold a validated array (TRS/IMM iterations) should call
    :func:`sample_rr_sets_validated` directly.

    Sampling runs on ``engine`` (a
    :class:`~repro.engine.SamplingEngine`; ``None`` means a fresh serial
    one) and the result is a flat :class:`~repro.engine.RRCollection`,
    a sequence of member arrays.
    """
    target_arr = as_target_array(
        targets, graph.num_nodes, context="sample_rr_sets"
    )
    return sample_rr_sets_validated(
        graph, target_arr, edge_probs, theta, rng, engine=engine
    )


def sample_rr_sets_validated(
    graph: TagGraph,
    target_arr: np.ndarray,
    edge_probs: np.ndarray,
    theta: int,
    rng: np.random.Generator | int | None = None,
    engine: "SamplingEngine | None" = None,
    budget: "RunBudget | None" = None,
) -> "RRCollection":
    """:func:`sample_rr_sets` minus validation: the hot-path entry.

    ``target_arr`` must be the sorted-unique int64 array produced by
    :func:`repro.utils.validation.as_target_array`; no per-call
    re-validation or re-sorting happens here. With a ``budget``, a
    tripped limit raises :class:`~repro.exceptions.BudgetExceededError`
    carrying the RR sets collected so far.
    """
    if theta <= 0:
        raise InvalidQueryError(f"theta must be positive, got {theta}")
    return resolve_engine(engine).sample_rr_sets(
        graph, target_arr, edge_probs, theta, rng, budget=budget
    )
