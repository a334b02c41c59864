"""Index-based targeted reverse sketching: the I-TRS / L-TRS / LL-TRS engines.

Query processing (Figure 6c): for each of the θ RR sets, draw one random
possible-world index per selected tag, union them into a working graph,
then run a *deterministic* reverse BFS from a random target — no coin
flips for indexed edges. Edges outside the index universe (LL-TRS's
outer region) fall back to online coins at the aggregated probability,
letting the traversal cross the local-region boundary.

All θ traversals run in the bit-parallel RR kernel of
:mod:`repro.engine.bitworld`, 64 working graphs per ``uint64`` lane: the
chosen worlds of a 64-lane block become one forced-live word per
covered edge (:meth:`IndexManager.lane_words`), and uncovered edges
draw the kernel's counter-based coins.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro import obs
from repro.engine.bitworld import (
    RRGather,
    bit_rr_replay,
    coin_thresholds,
    live_csr,
)
from repro.engine.parallel import SamplingEngine, resolve_engine
from repro.engine.rr_storage import RRCollection
from repro.exceptions import BudgetExceededError
from repro.graphs.tag_graph import TagGraph
from repro.index.lazy import IndexManager
from repro.index.local import local_edge_universe
from repro.index.possible_world_index import theta_c as compute_theta_c
from repro.index.stats import IndexStats
from repro.sketch.coverage import greedy_max_coverage
from repro.sketch.theta import SketchConfig, compute_theta, estimate_opt_t
from repro.utils.rng import ensure_rng
from repro.utils.timing import Timer
from repro.utils.validation import (
    as_target_array,
    check_budget,
    check_tags_exist,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.engine.runtime import RunBudget


@dataclass(frozen=True)
class IndexedTRSResult:
    """Outcome of an index-based seed selection.

    Attributes
    ----------
    seeds:
        Selected seed nodes, in greedy order.
    estimated_spread:
        ``F_R(S) · |T|``.
    theta:
        Number of working graphs / RR sets used.
    theta_c:
        Per-tag index count requested from Theorem 6.
    query_seconds:
        Online query time (θ estimation, RR generation, coverage). Index
        building time is reported separately in ``index_stats`` — the
        benchmarks add it back for the fair comparison the paper makes
        for L-TRS / LL-TRS.
    index_stats:
        Snapshot of the manager's cumulative build statistics.
    world_choices:
        Per-working-graph (tag → world) choices when recording was
        requested (Figure 7's diagnostic); otherwise ``None``.
    telemetry:
        Runtime counters of the engine that ran the OPT_T pilot.
    report:
        Observability report (metrics + trace + phases) when the call
        ran inside an :func:`repro.obs.observe` scope; ``None``
        otherwise.
    """

    seeds: tuple[int, ...]
    estimated_spread: float
    theta: int
    theta_c: int
    query_seconds: float
    index_stats: IndexStats
    world_choices: tuple[dict[str, int], ...] | None = None
    telemetry: dict | None = None
    report: dict | None = None

    def spread_fraction(self, num_targets: int) -> float:
        """Estimated spread as a fraction of the target-set size."""
        if num_targets <= 0:
            return 0.0
        return self.estimated_spread / num_targets


def sample_indexed_rr_sets(
    graph: TagGraph,
    manager: IndexManager,
    tags: Sequence[str],
    edge_probs: np.ndarray,
    roots: np.ndarray,
    choices: np.ndarray,
    key: int,
    on_batch=None,
) -> RRCollection:
    """One RR set per working graph, 64 working graphs per kernel lane word.

    Sample ``i`` is rooted at ``roots[i]`` in the working graph that
    unions world ``choices[i, t]`` of each tag ``tags[t]``. Covered
    edges are live iff that union holds them; an uncovered edge draws
    the counter coin of world ``rr_world_of_sample(roots, i, n)`` keyed
    by ``key`` at its aggregated probability. Deterministic in
    ``(roots, choices, key)``. ``on_batch`` is the kernel's per-batch
    hook (see :func:`repro.engine.bitworld.bit_rr_replay`).
    """
    roots = np.asarray(roots, dtype=np.int64)
    choices = np.asarray(choices, dtype=np.int64)
    columns = manager.forced_columns(tags)
    edge_col = np.full(graph.num_edges, -1, dtype=np.int64)
    edge_col[columns] = np.arange(columns.size)
    forced = edge_col >= 0
    # Covered edges no chosen world can hold are dead; uncovered edges
    # live on a positive coin.
    alive = forced | (~manager.covered_mask & (edge_probs > 0.0))
    rev_indptr, rev_edges = graph.reverse_csr()
    live_indptr, live_edges = live_csr(rev_indptr, rev_edges, alive)
    gather = RRGather(
        graph.num_nodes, graph.num_edges, live_indptr, live_edges,
        graph.src, coin_thresholds(np.where(forced, 0.0, edge_probs)),
        edge_col=edge_col,
    )

    def lane_words(slot_samples: np.ndarray) -> np.ndarray:
        lanes = np.zeros(
            (-(-slot_samples.size // 64) * 64, choices.shape[1]),
            dtype=np.int64,
        )
        lanes[: slot_samples.size] = choices[slot_samples]
        return manager.lane_words(tags, lanes, columns)

    members, indptr = bit_rr_replay(
        gather, roots, key, forced=lane_words, on_batch=on_batch
    )
    return RRCollection(members, indptr, graph.num_nodes)


def indexed_select_seeds(
    graph: TagGraph,
    targets: Sequence[int],
    tags: Sequence[str],
    k: int,
    manager: IndexManager,
    config: SketchConfig = SketchConfig(),
    rng: np.random.Generator | int | None = None,
    record_choices: bool = False,
    engine: "SamplingEngine | None" = None,
    budget: "RunBudget | None" = None,
) -> IndexedTRSResult:
    """Select top-``k`` seeds using pre-sampled possible-world indexes.

    Works with any :class:`IndexManager`: an eagerly filled one behaves
    as I-TRS, an empty one as L-TRS (missing tags are built here, lazily),
    and one with a local edge universe as LL-TRS.

    Parameters
    ----------
    record_choices:
        When true, the per-working-graph world choices are kept on the
        result for correlation diagnostics (Figure 7); costs memory
        proportional to ``θ · r``.
    engine:
        The :class:`~repro.engine.SamplingEngine` for the OPT_T pilot;
        ``None`` means a fresh serial one. The θ indexed traversals
        always run in-process on the bit-parallel RR kernel
        (:func:`sample_indexed_rr_sets`), whatever the engine's
        ``workers``, because each working graph is drawn from shared
        manager state.
    budget:
        Optional :class:`~repro.engine.RunBudget`, charged θ samples up
        front and the RR members of each kernel block batch as it
        finishes; a tripped limit raises
        :class:`~repro.exceptions.BudgetExceededError` whose ``partial``
        is an :class:`IndexedTRSResult` covering the RR sets of the
        finished batches.
    """
    rng = ensure_rng(rng)
    engine = resolve_engine(engine)
    check_budget(k, graph.num_nodes, what="seeds")
    check_tags_exist(tags, graph.tags)
    tag_list = list(dict.fromkeys(tags))  # dedupe, preserve order
    target_arr = as_target_array(
        targets, graph.num_nodes, context="indexed_select_seeds"
    )
    num_targets = int(target_arr.size)

    timer = Timer()
    rr = RRCollection.from_sets((), graph.num_nodes)
    choices_log: list[dict[str, int]] = []
    theta = 0
    tc = 0
    try:
        with timer, obs.span(
            "itrs", k=k, num_targets=num_targets
        ) as itrs_span:
            edge_probs = graph.edge_probabilities(tag_list)
            with obs.span("itrs.pilot"):
                opt_t = estimate_opt_t(
                    graph, target_arr, edge_probs, k, config, rng,
                    engine=engine, budget=budget,
                )
            theta = compute_theta(
                graph.num_nodes, k, num_targets, opt_t, config
            )
            tc = compute_theta_c(
                theta, len(tag_list), config.alpha, config.delta
            )
            obs.gauge("itrs.theta", theta)
            obs.gauge("itrs.theta_c", tc)
            itrs_span.set(theta=theta, theta_c=tc)
            with obs.span("itrs.ensure_indexes", theta_c=tc):
                manager.ensure_indexes(tag_list, tc, rng)

            # One draw for every root and every per-tag world choice
            # (each tag's own world count as its bound), then the
            # kernel's coin key.
            highs = [num_targets] + [
                manager.index_for(tag).num_worlds for tag in tag_list
            ]
            draws = rng.integers(0, highs, size=(theta, len(highs)))
            key = int(rng.integers(np.iinfo(np.int64).max, dtype=np.int64))
            roots = target_arr[draws[:, 0]]
            choices = draws[:, 1:]
            if budget is not None:
                budget.charge_samples(theta)
            if record_choices:
                choices_log = [
                    dict(zip(tag_list, row)) for row in choices.tolist()
                ]

            def charge(new_members: int, partial) -> None:
                nonlocal rr
                try:
                    budget.charge_rr_members(new_members)
                except BudgetExceededError:
                    rows, members, indptr = partial()
                    rr = RRCollection(members, indptr, graph.num_nodes)
                    if record_choices:
                        choices_log[:] = [
                            choices_log[i] for i in rows.tolist()
                        ]
                    raise

            with obs.span("itrs.traverse", theta=theta):
                rr = sample_indexed_rr_sets(
                    graph, manager, tag_list, edge_probs, roots, choices,
                    key, on_batch=charge if budget is not None else None,
                )
            obs.count("itrs.working_graphs", len(rr))
            with obs.span("itrs.cover"):
                coverage = greedy_max_coverage(rr, k, graph.num_nodes)
    except BudgetExceededError as exc:
        exc.partial = _partial_indexed_result(
            rr, choices_log if record_choices else None, k, graph,
            num_targets, theta, tc, timer.elapsed, manager, engine,
        )
        raise

    return IndexedTRSResult(
        seeds=coverage.seeds,
        estimated_spread=coverage.spread_estimate(num_targets),
        theta=theta,
        theta_c=tc,
        query_seconds=timer.elapsed,
        index_stats=manager.stats.snapshot(),
        world_choices=tuple(choices_log) if record_choices else None,
        telemetry=engine.telemetry.as_dict(),
        report=obs.snapshot_report(),
    )


def _partial_indexed_result(
    rr: RRCollection,
    choices_log: list[dict[str, int]] | None,
    k: int,
    graph: TagGraph,
    num_targets: int,
    theta: int,
    tc: int,
    elapsed: float,
    manager: IndexManager,
    engine: SamplingEngine,
) -> IndexedTRSResult:
    """Best-effort :class:`IndexedTRSResult` from a budget-stopped run."""
    collected = len(rr)
    if collected > 0:
        coverage = greedy_max_coverage(rr, min(k, collected),
                                       graph.num_nodes)
        seeds = coverage.seeds
        spread = coverage.spread_estimate(num_targets)
    else:
        seeds, spread = (), 0.0
    return IndexedTRSResult(
        seeds=seeds,
        estimated_spread=spread,
        theta=collected if collected else theta,
        theta_c=tc,
        query_seconds=elapsed,
        index_stats=manager.stats.snapshot(),
        world_choices=tuple(choices_log) if choices_log is not None else None,
        telemetry=engine.telemetry.as_dict(),
    )


def make_itrs_manager(
    graph: TagGraph,
    theta: int,
    r: int,
    config: SketchConfig = SketchConfig(),
    rng: np.random.Generator | int | None = None,
) -> IndexManager:
    """I-TRS: eagerly index *every* tag in the vocabulary in advance.

    ``theta`` and ``r`` size θ_c via Theorem 6; callers typically pass a
    pessimistic θ (e.g. ``config.theta_max``) since the exact value is
    only known at query time.
    """
    manager = IndexManager(graph)
    tc = compute_theta_c(theta, r, config.alpha, config.delta)
    manager.build_all_tags(tc, ensure_rng(rng))
    return manager


def make_ltrs_manager(graph: TagGraph) -> IndexManager:
    """L-TRS: start empty; tags are indexed on first use and reused."""
    return IndexManager(graph)


def make_lltrs_manager(
    graph: TagGraph,
    targets: Sequence[int],
    config: SketchConfig = SketchConfig(),
) -> IndexManager:
    """LL-TRS: lazy manager whose universe is the h-hop local region."""
    universe = local_edge_universe(graph, targets, config.h)
    return IndexManager(graph, edge_universe=universe)
