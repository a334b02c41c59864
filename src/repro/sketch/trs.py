"""TRS — Targeted Reverse Sketching seed selection (paper Section 3.1).

The workflow (paper, verbatim):

1. generate θ random RR sets whose roots are sampled uniformly from the
   *target set* ``T``;
2. greedily pick the node covering the most RR sets, remove the covered
   sets, repeat until ``k`` seeds are found.

With θ from Theorem 5 this is ``(1 - 1/e - ε)``-approximate with high
probability. TRS is the guarantee-bearing reference engine the indexing
schemes (I-TRS / L-TRS / LL-TRS) are benchmarked against.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro import obs
from repro.engine.parallel import resolve_engine
from repro.engine.rr_storage import RRCollection
from repro.exceptions import BudgetExceededError
from repro.graphs.tag_graph import TagGraph
from repro.sketch.coverage import greedy_max_coverage
from repro.sketch.rr_sets import sample_rr_sets_validated
from repro.sketch.theta import SketchConfig, compute_theta, estimate_opt_t
from repro.utils.rng import ensure_rng
from repro.utils.timing import Timer
from repro.utils.validation import (
    as_target_array,
    check_budget,
    check_tags_exist,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.engine.parallel import SamplingEngine
    from repro.engine.runtime import RunBudget


@dataclass(frozen=True)
class TRSResult:
    """Outcome of a reverse-sketching seed selection.

    Attributes
    ----------
    seeds:
        The selected top-``k`` seed nodes, in selection order.
    estimated_spread:
        ``F_R(S) · |T|`` — expected number of influenced targets.
    theta:
        Number of RR sets used.
    opt_t_estimate:
        The OPT_T lower bound that sized θ (``None`` for engines that
        size θ differently).
    elapsed_seconds:
        Wall-clock time of the whole selection.
    telemetry:
        Runtime counters (shards run and retried, pool rebuilds, ...)
        of the engine that ran the sampling; ``None`` for a selection
        from a prebuilt sketch, which samples nothing.
    report:
        Structured observability report (metrics + trace + phases, see
        ``docs/observability.md``) when the call ran inside an
        :func:`repro.obs.observe` scope; ``None`` otherwise.
    """

    seeds: tuple[int, ...]
    estimated_spread: float
    theta: int
    opt_t_estimate: float | None
    elapsed_seconds: float
    telemetry: dict | None = None
    report: dict | None = None

    def spread_fraction(self, num_targets: int) -> float:
        """Estimated spread as a fraction of the target-set size."""
        if num_targets <= 0:
            return 0.0
        return self.estimated_spread / num_targets


@dataclass(frozen=True)
class TRSSketch:
    """A reusable targeted RR sketch: the expensive half of TRS.

    Produced by :func:`trs_build_sketch`; consumed by
    :func:`trs_select_from_sketch`. The sketch captures everything the
    greedy cover needs — the sampled RR sets plus the θ bookkeeping —
    so a serving layer can build it once and answer repeat queries from
    it. The cover is deterministic, so the sketch memoizes it per
    ``(k, num_nodes)`` on first read; later reads are a lookup.

    The RR sets are *logically read-only*: greedy cover never mutates
    them, so one sketch may back many concurrent selections.
    """

    rr_sets: RRCollection
    theta: int
    opt_t_estimate: float | None
    num_targets: int
    # (k, num_nodes) -> CoverageResult; see trs_select_from_sketch.
    _covers: dict = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    @property
    def nbytes(self) -> int:
        """Approximate payload size, for byte-accounted caches."""
        return int(self.rr_sets.members.nbytes) + int(
            self.rr_sets.indptr.nbytes
        )


def _build_sketch_phases(
    graph: TagGraph,
    target_arr: np.ndarray,
    tags: Sequence[str],
    k: int,
    config: SketchConfig,
    rng: np.random.Generator,
    engine: "SamplingEngine",
    budget: "RunBudget | None",
    trs_span=None,
    state: dict | None = None,
):
    """Shared pilot → θ → sampling pipeline (spans included).

    This is the single code path behind both :func:`trs_select_seeds`
    and :func:`trs_build_sketch`, so the two are bit-identical by
    construction: same RNG consumption order, same spans, same budget
    behavior. ``state`` (when given) receives ``opt_t`` as soon as the
    pilot finishes, so budget-stop handlers can report it even when the
    main sampling pass trips the budget.
    """
    num_targets = int(target_arr.size)
    edge_probs = graph.edge_probabilities(tags)
    with obs.span("trs.pilot"):
        opt_t = estimate_opt_t(
            graph, target_arr, edge_probs, k, config, rng,
            engine=engine, budget=budget,
        )
    if state is not None:
        state["opt_t"] = opt_t
    theta = compute_theta(graph.num_nodes, k, num_targets, opt_t, config)
    obs.gauge("trs.theta", theta)
    if trs_span is not None:
        trs_span.set(theta=theta)
    with obs.span("trs.sample", theta=theta):
        rr_sets = sample_rr_sets_validated(
            graph, target_arr, edge_probs, theta, rng,
            engine=engine, budget=budget,
        )
    return rr_sets, theta, opt_t


def trs_build_sketch(
    graph: TagGraph,
    targets: Sequence[int],
    tags: Sequence[str],
    k: int,
    config: SketchConfig = SketchConfig(),
    rng: np.random.Generator | int | None = None,
    engine: "SamplingEngine | None" = None,
    budget: "RunBudget | None" = None,
) -> TRSSketch:
    """Run TRS's sampling half and return the reusable :class:`TRSSketch`.

    Validates inputs exactly like :func:`trs_select_seeds`, runs the
    pilot, sizes θ, and draws the targeted RR sets — but stops short of
    seed selection. ``trs_select_from_sketch(graph, sketch, k)``
    then yields the same seeds :func:`trs_select_seeds` would have,
    because both share one pipeline (and greedy cover is deterministic).

    Note the sketch depends on ``k`` and the RNG state (the pilot's RNG
    draws vary with ``k``), so cache keys for sketches must include
    both, not just ``(targets, tags)``.
    """
    rng = ensure_rng(rng)
    engine = resolve_engine(engine)
    check_budget(k, graph.num_nodes, what="seeds")
    check_tags_exist(tags, graph.tags)
    target_arr = as_target_array(
        targets, graph.num_nodes, context="trs_build_sketch"
    )
    num_targets = int(target_arr.size)
    state: dict = {}
    timer = Timer()
    try:
        with timer:
            rr_sets, theta, opt_t = _build_sketch_phases(
                graph, target_arr, tags, k, config, rng, engine, budget,
                state=state,
            )
    except BudgetExceededError as exc:
        exc.partial = _partial_trs_result(
            exc.partial, k, graph.num_nodes, num_targets,
            state.get("opt_t"), timer.elapsed, engine,
        )
        raise
    return TRSSketch(
        rr_sets=rr_sets,
        theta=theta,
        opt_t_estimate=opt_t,
        num_targets=num_targets,
    )


def trs_select_from_sketch(
    graph: TagGraph,
    sketch: TRSSketch,
    k: int,
) -> TRSResult:
    """Greedy-cover ``k`` seeds out of a prebuilt :class:`TRSSketch`.

    Pure deterministic selection — consumes no RNG and never changes
    the RR sets. The first read of each ``(k, num_nodes)`` computes the
    cover and memoizes it on the sketch (a :class:`TRSSketch` or
    :class:`~repro.sketch.RepairableSketch`); later reads replay its
    ``coverage.gain_evaluations`` count, so their reports match a
    computed cover. Any number of callers (threads) may select from one
    shared sketch concurrently: racing first reads each compute the
    same cover, and the memo's dict get/set are atomic.
    """
    check_budget(k, graph.num_nodes, what="seeds")
    timer = Timer()
    key = (k, graph.num_nodes)
    with timer, obs.span("trs.cover"):
        coverage = sketch._covers.get(key)
        if coverage is None:
            coverage = greedy_max_coverage(sketch.rr_sets, k, graph.num_nodes)
            sketch._covers[key] = coverage
        else:
            obs.count("coverage.gain_evaluations", coverage.gain_evaluations)
    return TRSResult(
        seeds=coverage.seeds,
        estimated_spread=coverage.spread_estimate(sketch.num_targets),
        theta=sketch.theta,
        opt_t_estimate=sketch.opt_t_estimate,
        elapsed_seconds=timer.elapsed,
        report=obs.snapshot_report(),
    )


def trs_select_seeds(
    graph: TagGraph,
    targets: Sequence[int],
    tags: Sequence[str],
    k: int,
    config: SketchConfig = SketchConfig(),
    rng: np.random.Generator | int | None = None,
    engine: "SamplingEngine | None" = None,
    budget: "RunBudget | None" = None,
) -> TRSResult:
    """Select the top-``k`` seeds for spread within ``targets`` given ``tags``.

    Parameters
    ----------
    graph:
        The tagged uncertain graph.
    targets:
        Target customer node ids (``T``).
    tags:
        The campaign tag set ``C1`` (fixed for this call); edge
        probabilities are its independent aggregation.
    k:
        Seed budget.
    config:
        Sketching knobs (ε, pilot size, θ clamps).
    rng:
        Seed or generator.
    engine:
        The :class:`~repro.engine.SamplingEngine` that samples the RR
        sets; ``None`` means a fresh serial one, with answers
        bit-identical to any explicit engine's.
    budget:
        Optional :class:`~repro.engine.RunBudget`. When a limit trips
        mid-sampling, the raised
        :class:`~repro.exceptions.BudgetExceededError` carries a best-
        effort partial :class:`TRSResult` (greedy coverage of the RR
        sets collected so far) in ``exc.partial``.

    Targets are validated once here; the pilot and main sampling passes
    receive the pre-validated array.
    """
    rng = ensure_rng(rng)
    engine = resolve_engine(engine)
    check_budget(k, graph.num_nodes, what="seeds")
    check_tags_exist(tags, graph.tags)
    target_arr = as_target_array(
        targets, graph.num_nodes, context="trs_select_seeds"
    )
    num_targets = int(target_arr.size)

    timer = Timer()
    state: dict = {}
    try:
        with timer, obs.span("trs", k=k, num_targets=num_targets) as trs_span:
            rr_sets, theta, opt_t = _build_sketch_phases(
                graph, target_arr, tags, k, config, rng, engine, budget,
                trs_span=trs_span, state=state,
            )
            with obs.span("trs.cover"):
                coverage = greedy_max_coverage(rr_sets, k, graph.num_nodes)
    except BudgetExceededError as exc:
        exc.partial = _partial_trs_result(
            exc.partial, k, graph.num_nodes, num_targets,
            state.get("opt_t"), timer.elapsed, engine,
        )
        raise

    return TRSResult(
        seeds=coverage.seeds,
        estimated_spread=coverage.spread_estimate(num_targets),
        theta=theta,
        opt_t_estimate=opt_t,
        elapsed_seconds=timer.elapsed,
        telemetry=engine.telemetry.as_dict(),
        report=obs.snapshot_report(),
    )


def _partial_trs_result(
    partial_sets: RRCollection,
    k: int,
    num_nodes: int,
    num_targets: int,
    opt_t: float | None,
    elapsed: float,
    engine: "SamplingEngine",
) -> TRSResult:
    """Best-effort :class:`TRSResult` from the RR sets a budget stop left.

    The seeds still greedily cover whatever was sampled; only the
    statistical guarantee (which needs the full θ) is forfeit.
    """
    collected = len(partial_sets)
    if collected > 0:
        coverage = greedy_max_coverage(
            partial_sets, min(k, collected), num_nodes
        )
        seeds = coverage.seeds
        spread = coverage.spread_estimate(num_targets)
    else:
        seeds, spread = (), 0.0
    return TRSResult(
        seeds=seeds,
        estimated_spread=spread,
        theta=collected,
        opt_t_estimate=opt_t,
        elapsed_seconds=elapsed,
        telemetry=engine.telemetry.as_dict(),
    )
