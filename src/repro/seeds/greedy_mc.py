"""Greedy hill-climbing seed selection with CELF / CELF++ lazy evaluation.

The classical ``(1 - 1/e)`` greedy (Kempe et al.): at every step add the
node with the largest marginal spread gain (Eq. 7), estimated by
Monte-Carlo. Submodularity makes marginal gains non-increasing, which is
what CELF (Leskovec et al.) exploits: a stale upper bound that is still
below the best fresh gain never needs recomputing. CELF++ (Goyal et al.)
additionally caches each node's gain w.r.t. ``S ∪ {current best}`` so
that when the current best is indeed picked, the runner-up's cached
value is already fresh.
"""

from __future__ import annotations

import heapq
from collections.abc import Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro import obs
from repro.diffusion.monte_carlo import estimate_spread, target_mask
from repro.engine.parallel import resolve_engine
from repro.exceptions import BudgetExceededError
from repro.graphs.tag_graph import TagGraph
from repro.utils.rng import ensure_rng
from repro.utils.timing import Timer
from repro.utils.validation import check_budget, check_tags_exist

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.engine.parallel import SamplingEngine
    from repro.engine.runtime import RunBudget


@dataclass(frozen=True)
class GreedyMCResult:
    """Outcome of MC hill climbing.

    Attributes
    ----------
    seeds:
        Selected nodes in pick order.
    estimated_spread:
        MC estimate of ``σ(S, T, C1)`` for the final seed set.
    spread_evaluations:
        How many MC spread estimations were performed — the quantity
        CELF/CELF++ exist to minimize.
    elapsed_seconds:
        Wall-clock selection time.
    telemetry:
        Runtime counters of the engine that ran the simulation.
    report:
        Observability report (metrics + trace + phases) when the call
        ran inside an :func:`repro.obs.observe` scope; ``None``
        otherwise.
    """

    seeds: tuple[int, ...]
    estimated_spread: float
    spread_evaluations: int
    elapsed_seconds: float
    telemetry: dict | None = None
    report: dict | None = None


def greedy_mc_select_seeds(
    graph: TagGraph,
    targets: Sequence[int],
    tags: Sequence[str],
    k: int,
    num_samples: int = 100,
    candidates: Sequence[int] | None = None,
    use_celf_plus_plus: bool = True,
    rng: np.random.Generator | int | None = None,
    engine: "SamplingEngine | None" = None,
    budget: "RunBudget | None" = None,
) -> GreedyMCResult:
    """Pick ``k`` seeds by lazy greedy hill climbing (Eq. 7).

    Parameters
    ----------
    num_samples:
        MC samples per spread estimation.
    candidates:
        Optional restriction of the seed universe; defaults to all nodes.
    use_celf_plus_plus:
        Enable the CELF++ look-ahead cache on top of plain CELF.
    engine:
        The :class:`~repro.engine.SamplingEngine` that simulates every
        evaluation's cascades; ``None`` means a fresh serial one.
    budget:
        Optional :class:`~repro.engine.RunBudget` spanning every MC
        evaluation; a tripped limit raises
        :class:`~repro.exceptions.BudgetExceededError` whose ``partial``
        is a :class:`GreedyMCResult` with the seeds picked so far.

    Notes
    -----
    MC noise can make an apparently "fresh" stale bound slightly wrong;
    that affects constants, not the algorithm's structure, and matches
    how every MC-based CELF implementation behaves in practice.
    """
    rng = ensure_rng(rng)
    engine = resolve_engine(engine)
    check_tags_exist(tags, graph.tags)
    pool = (
        list(range(graph.num_nodes))
        if candidates is None
        else sorted({int(c) for c in candidates})
    )
    check_budget(k, len(pool), what="seeds")

    edge_probs = graph.edge_probabilities(tags)
    # Like edge_probs, the target mask is hoisted out of the estimation
    # loop — thousands of CELF evaluations share one validation.
    targets_mask = target_mask(graph, targets)
    evaluations = 0

    def spread_of(seed_set: Sequence[int]) -> float:
        nonlocal evaluations
        if not seed_set:
            return 0.0
        evaluations += 1
        obs.count("celf.spread_evaluations")
        return estimate_spread(
            graph,
            seed_set,
            None,
            tags,
            num_samples=num_samples,
            rng=rng,
            edge_probs=edge_probs,
            targets_mask=targets_mask,
            engine=engine,
            budget=budget,
        )

    timer = Timer()
    seeds: list[int] = []
    base_spread = 0.0
    try:
        with timer, obs.span("greedy_mc", k=k, num_samples=num_samples):
            # Heap entries: (-gain, node, round_when_computed,
            # gain_after_best). gain_after_best is the CELF++ cache: the
            # node's marginal gain assuming the round's current best is
            # also added.
            heap: list[list[float | int | None]] = []
            for node in pool:
                gain = spread_of([node])
                heapq.heappush(heap, [-gain, node, 0, None])

            round_no = 0
            while heap and len(seeds) < k:
                entry = heapq.heappop(heap)
                neg_gain, node, computed_at, gain_after_best = entry

                if computed_at == round_no:
                    # Fresh bound: by submodularity nothing below can
                    # beat it.
                    seeds.append(int(node))
                    base_spread = base_spread + (-neg_gain)
                    round_no += 1
                    continue

                if (
                    use_celf_plus_plus
                    and gain_after_best is not None
                    and computed_at == round_no - 1
                ):
                    # CELF++ shortcut: the cached "gain if best is
                    # added" became exact when that best was indeed the
                    # last pick.
                    heapq.heappush(
                        heap, [-gain_after_best, node, round_no, None]
                    )
                    continue

                fresh = spread_of(seeds + [int(node)]) - base_spread
                cache = None
                if use_celf_plus_plus and heap:
                    current_best = int(heap[0][1])
                    cache = (
                        spread_of(seeds + [current_best, int(node)])
                        - spread_of(seeds + [current_best])
                    )
                heapq.heappush(
                    heap, [-max(fresh, 0.0), node, round_no, cache]
                )

            final_spread = spread_of(seeds)
    except BudgetExceededError as exc:
        exc.partial = GreedyMCResult(
            seeds=tuple(seeds),
            estimated_spread=0.0 if not seeds else base_spread,
            spread_evaluations=evaluations,
            elapsed_seconds=timer.elapsed,
            telemetry=engine.telemetry.as_dict(),
        )
        raise

    return GreedyMCResult(
        seeds=tuple(seeds),
        estimated_spread=final_spread,
        spread_evaluations=evaluations,
        elapsed_seconds=timer.elapsed,
        telemetry=engine.telemetry.as_dict(),
        report=obs.snapshot_report(),
    )
