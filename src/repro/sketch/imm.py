"""IMM — martingale-based sample sizing (Tang, Shi, Xiao; SIGMOD 2015).

The paper's TRS sizes θ with Theorem 5, which needs an OPT_T estimate
from a fixed pilot batch. IMM (cited by the paper as the state of the
art it builds on) replaces the pilot with a *geometric search*: try
progressively smaller guesses ``x`` of OPT, each validated by a batch
of RR sets large enough that greedy coverage exceeding ``(1 + ε')·x``
certifies — via martingale concentration — that ``OPT ≥ x`` with high
probability. The first certified guess yields a lower bound LB, and the
final θ = λ* / LB is typically much smaller than a worst-case pilot
bound.

This is the targeted adaptation: RR roots are drawn uniformly from the
target set ``T``, coverage fractions estimate spread within ``T``, and
``|T|`` replaces ``n`` as the spread scale (the ``ln C(n, k)`` seed-
choice term keeps the full node universe).
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro import obs
from repro.engine.parallel import resolve_engine
from repro.engine.rr_storage import RRCollection
from repro.exceptions import BudgetExceededError
from repro.graphs.tag_graph import TagGraph
from repro.sketch.coverage import greedy_max_coverage
from repro.sketch.rr_sets import sample_rr_sets_validated
from repro.sketch.theta import SketchConfig
from repro.utils.mathx import log_binomial
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
class IMMResult:
    """Outcome of IMM seed selection.

    Attributes
    ----------
    seeds:
        Selected seed nodes.
    estimated_spread:
        ``F_R(S) · |T|`` over the final RR collection.
    theta:
        Final RR-set count (phase-2 size).
    lower_bound:
        The certified OPT_T lower bound from phase 1.
    sampling_rounds:
        How many geometric guesses phase 1 examined.
    elapsed_seconds:
        Total selection time.
    telemetry:
        Runtime counters of the engine that ran the sampling.
    report:
        Observability report (metrics + trace + phases) when the call
        ran inside an :func:`repro.obs.observe` scope; ``None``
        otherwise.
    """

    seeds: tuple[int, ...]
    estimated_spread: float
    theta: int
    lower_bound: float
    sampling_rounds: int
    elapsed_seconds: float
    telemetry: dict | None = None
    report: dict | None = None


def imm_select_seeds(
    graph: TagGraph,
    targets: Sequence[int],
    tags: Sequence[str],
    k: int,
    config: SketchConfig = SketchConfig(),
    ell: float = 1.0,
    rng: np.random.Generator | int | None = None,
    engine: "SamplingEngine | None" = None,
    budget: "RunBudget | None" = None,
) -> IMMResult:
    """Targeted IMM: top-``k`` seeds with martingale-sized sampling.

    Parameters
    ----------
    config:
        Shares ε and the θ clamps with TRS so the two are directly
        comparable (``config.epsilon`` plays IMM's ε).
    ell:
        Failure-probability exponent: guarantees hold with probability
        at least ``1 − |T|^(−ell)`` (IMM's ℓ parameter).
    engine:
        The :class:`~repro.engine.SamplingEngine` that samples every
        geometric round's batch; ``None`` means a fresh serial one.
    budget:
        Optional :class:`~repro.engine.RunBudget`; a tripped limit
        raises :class:`~repro.exceptions.BudgetExceededError` whose
        ``partial`` is a best-effort :class:`IMMResult` covering the RR
        sets accumulated across all completed rounds.

    Targets are validated once at this boundary; every sampling round
    reuses the pre-validated array.
    """
    rng = ensure_rng(rng)
    engine = resolve_engine(engine)
    check_budget(k, graph.num_nodes, what="seeds")
    check_tags_exist(tags, graph.tags)
    target_arr = as_target_array(
        targets, graph.num_nodes, context="imm_select_seeds"
    )
    t_size = int(target_arr.size)

    timer = Timer()
    try:
        return _imm_core(
            graph, target_arr, tags, k, config, ell, rng, engine, budget,
            timer,
        )
    except BudgetExceededError as exc:
        exc.partial = _partial_imm_result(
            exc.partial, k, graph.num_nodes, t_size, timer.elapsed, engine
        )
        raise


def _imm_core(
    graph: TagGraph,
    target_arr: np.ndarray,
    tags: Sequence[str],
    k: int,
    config: SketchConfig,
    ell: float,
    rng: np.random.Generator,
    engine: "SamplingEngine",
    budget: "RunBudget | None",
    timer: Timer,
) -> IMMResult:
    t_size = int(target_arr.size)
    n = graph.num_nodes
    eps = config.epsilon

    with timer, obs.span("imm", k=k, num_targets=t_size):
        edge_probs = graph.edge_probabilities(tags)

        # Phase 1 — geometric search for a lower bound on OPT_T.
        eps_prime = math.sqrt(2.0) * eps
        log_choose = log_binomial(n, k)
        log_t = max(math.log(max(t_size, 2)), 1.0)
        lam_prime = (
            (2.0 + 2.0 / 3.0 * eps_prime)
            * (log_choose + ell * log_t + math.log(max(math.log2(max(t_size, 2)), 1.0)))
            * t_size
            / (eps_prime * eps_prime)
        )

        rr_sets = RRCollection.from_sets((), n)

        def extended(current: RRCollection, count: int) -> RRCollection:
            try:
                extra = sample_rr_sets_validated(
                    graph, target_arr, edge_probs, count, rng,
                    engine=engine, budget=budget,
                )
            except BudgetExceededError as exc:
                # Fold the failing batch's partial into what earlier
                # rounds accumulated so the caller sees everything.
                exc.partial = RRCollection.concat((current, exc.partial))
                raise
            return RRCollection.concat((current, extra))

        lower_bound = 1.0
        rounds = 0
        max_rounds = max(int(math.log2(max(t_size, 2))), 1)
        with obs.span("imm.search", max_rounds=max_rounds):
            for i in range(1, max_rounds + 1):
                rounds = i
                obs.count("imm.rounds")
                x = t_size / (2.0 ** i)
                theta_i = min(
                    int(math.ceil(lam_prime / max(x, 1e-9))),
                    config.theta_max,
                )
                if len(rr_sets) < theta_i:
                    rr_sets = extended(rr_sets, theta_i - len(rr_sets))
                coverage = greedy_max_coverage(rr_sets, k, n)
                estimate = coverage.fraction * t_size
                if estimate >= (1.0 + eps_prime) * x:
                    lower_bound = max(estimate / (1.0 + eps_prime), 1.0)
                    break
                if theta_i >= config.theta_max:
                    lower_bound = max(estimate, 1.0)
                    break

        # Phase 2 — final θ from the certified lower bound.
        alpha = math.sqrt(ell * log_t + math.log(2.0))
        beta = math.sqrt(
            (1.0 - 1.0 / math.e) * (log_choose + ell * log_t + math.log(2.0))
        )
        lam_star = (
            2.0
            * t_size
            * ((1.0 - 1.0 / math.e) * alpha + beta) ** 2
            / (eps * eps)
        )
        theta = int(
            min(
                max(math.ceil(lam_star / lower_bound), config.theta_min),
                config.theta_max,
            )
        )
        obs.gauge("imm.theta", theta)
        with obs.span("imm.select", theta=theta):
            if len(rr_sets) < theta:
                rr_sets = extended(rr_sets, theta - len(rr_sets))
            else:
                rr_sets = rr_sets[:theta]
            final = greedy_max_coverage(rr_sets, k, n)

    return IMMResult(
        seeds=final.seeds,
        estimated_spread=final.fraction * t_size,
        theta=theta,
        lower_bound=lower_bound,
        sampling_rounds=rounds,
        elapsed_seconds=timer.elapsed,
        telemetry=engine.telemetry.as_dict(),
        report=obs.snapshot_report(),
    )


def _partial_imm_result(
    partial_sets: RRCollection,
    k: int,
    num_nodes: int,
    t_size: int,
    elapsed: float,
    engine: "SamplingEngine",
) -> IMMResult:
    """Best-effort :class:`IMMResult` from whatever a budget stop left."""
    collected = len(partial_sets)
    if collected > 0:
        coverage = greedy_max_coverage(
            partial_sets, min(k, collected), num_nodes
        )
        seeds = coverage.seeds
        spread = coverage.fraction * t_size
    else:
        seeds, spread = (), 0.0
    return IMMResult(
        seeds=seeds,
        estimated_spread=spread,
        theta=collected,
        lower_bound=1.0,
        sampling_rounds=0,
        elapsed_seconds=elapsed,
        telemetry=engine.telemetry.as_dict(),
    )
