"""Monte-Carlo estimation of the targeted influence spread ``σ(S, T, C1)``.

Each sample runs one IC cascade from the seed set, in the bit-parallel
cascade kernel of :mod:`repro.engine`, and counts activated targets;
the estimate is the sample mean (Eq. 5 by the law of large numbers).
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from typing import TYPE_CHECKING

import numpy as np

from repro.engine.parallel import resolve_engine
from repro.exceptions import InvalidQueryError
from repro.graphs.tag_graph import TagGraph
from repro.utils.validation import as_target_array, check_node_ids, check_tags_exist

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.engine.parallel import SamplingEngine
    from repro.engine.runtime import RunBudget


def target_mask(graph: TagGraph, targets: Iterable[int]) -> np.ndarray:
    """Validated boolean target mask (length ``n``) for reuse across calls.

    Callers estimating many seed sets against one target set (CELF hill
    climbing, the iterative framework) compute this once and pass it to
    :func:`estimate_spread` — mirroring the existing ``edge_probs``
    precomputation — instead of having the target list re-sorted and
    re-validated per invocation.
    """
    arr = as_target_array(targets, graph.num_nodes, context="target_mask")
    mask = np.zeros(graph.num_nodes, dtype=bool)
    mask[arr] = True
    return mask


def estimate_spread(
    graph: TagGraph,
    seeds: Iterable[int],
    targets: Iterable[int] | None,
    tags: Sequence[str],
    num_samples: int = 200,
    rng: np.random.Generator | int | None = None,
    edge_probs: np.ndarray | None = None,
    targets_mask: np.ndarray | None = None,
    engine: "SamplingEngine | None" = None,
    budget: "RunBudget | None" = None,
) -> float:
    """Estimate ``σ(S, T, C1)`` — expected number of activated targets.

    Parameters
    ----------
    graph, seeds, targets, tags:
        The query; ``tags`` are aggregated with the independent model.
    num_samples:
        Number of IC cascades to average over.
    rng:
        Seed or generator.
    edge_probs:
        Optional precomputed ``graph.edge_probabilities(tags)`` — pass it
        when estimating many seed sets under the same tag set to avoid
        recomputing the aggregation.
    targets_mask:
        Optional precomputed :func:`target_mask` — the target-set
        analogue of ``edge_probs``. When given, ``targets`` may be
        ``None`` and no per-call target validation or sorting happens.
    engine:
        The :class:`~repro.engine.SamplingEngine` that simulates the
        cascades (sharded across processes for ``workers > 1``);
        ``None`` means a fresh serial one.
    budget:
        Optional :class:`~repro.engine.RunBudget`. A tripped limit
        raises :class:`~repro.exceptions.BudgetExceededError` whose
        ``partial`` is the spread estimate over the cascades completed
        so far (or ``0.0`` when none ran).

    Returns
    -------
    float
        Estimated expected spread, in ``[0, |T|]``.
    """
    if num_samples <= 0:
        raise InvalidQueryError(
            f"num_samples must be positive, got {num_samples}"
        )
    seed_list = [int(s) for s in seeds]
    check_node_ids(seed_list, graph.num_nodes, context="estimate_spread")
    check_tags_exist(tags, graph.tags)

    if targets_mask is not None:
        if targets_mask.shape != (graph.num_nodes,):
            raise InvalidQueryError(
                f"targets_mask must have length n={graph.num_nodes}, "
                f"got shape {targets_mask.shape}"
            )
        if not targets_mask.any():
            raise InvalidQueryError("target set must not be empty")
        target_arr = np.flatnonzero(targets_mask)
    else:
        if targets is None:
            raise InvalidQueryError(
                "estimate_spread needs targets or a precomputed targets_mask"
            )
        target_arr = as_target_array(
            targets, graph.num_nodes, context="estimate_spread"
        )

    if edge_probs is None:
        edge_probs = graph.edge_probabilities(tags)

    if not seed_list:
        return 0.0

    return resolve_engine(engine).estimate_spread(
        graph,
        np.array(sorted(set(seed_list)), dtype=np.int64),
        edge_probs,
        num_samples,
        target_arr,
        rng,
        budget=budget,
    )


def estimate_spread_fraction(
    graph: TagGraph,
    seeds: Iterable[int],
    targets: Iterable[int],
    tags: Sequence[str],
    num_samples: int = 200,
    rng: np.random.Generator | int | None = None,
    engine: "SamplingEngine | None" = None,
) -> float:
    """Spread as a fraction of the target-set size, in ``[0, 1]``.

    The paper reports most accuracy results as "% influence spread in
    targets"; this is that quantity (before the ×100).
    """
    target_arr = as_target_array(
        targets, graph.num_nodes, context="estimate_spread_fraction"
    )
    spread = estimate_spread(
        graph, seeds, target_arr, tags, num_samples=num_samples, rng=rng,
        engine=engine,
    )
    return spread / int(target_arr.size)
