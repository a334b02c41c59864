"""Unified entry point for seed selection across all engines."""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.exceptions import BudgetExceededError, ConfigurationError
from repro.graphs.tag_graph import TagGraph
from repro.index.itrs import (
    indexed_select_seeds,
    make_itrs_manager,
    make_lltrs_manager,
    make_ltrs_manager,
)
from repro.index.lazy import IndexManager
from repro.seeds.greedy_mc import greedy_mc_select_seeds
from repro.sketch.imm import imm_select_seeds
from repro.sketch.theta import SketchConfig
from repro.sketch.trs import trs_select_seeds

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.engine.parallel import SamplingEngine
    from repro.engine.runtime import RunBudget

ENGINES = ("trs", "imm", "itrs", "ltrs", "lltrs", "greedy-mc")


@dataclass(frozen=True)
class SeedSelection:
    """Engine-agnostic seed-selection outcome.

    Attributes
    ----------
    seeds:
        Selected node ids, in pick order.
    estimated_spread:
        The engine's own estimate of ``σ(S, T, C1)``.
    engine:
        Which engine produced the result.
    elapsed_seconds:
        Wall-clock time of the selection (online part for index engines).
    telemetry:
        Runtime counters (shards run and retried, pool rebuilds, ...)
        of the sampler that ran the engine.
    report:
        Observability report (metrics + trace + phases) when the call
        ran inside an :func:`repro.obs.observe` scope; ``None``
        otherwise.
    """

    seeds: tuple[int, ...]
    estimated_spread: float
    engine: str
    elapsed_seconds: float
    telemetry: dict | None = None
    report: dict | None = None


def find_seeds(
    graph: TagGraph,
    targets: Sequence[int],
    tags: Sequence[str],
    k: int,
    engine: str = "trs",
    config: SketchConfig = SketchConfig(),
    manager: IndexManager | None = None,
    num_samples: int = 100,
    rng: np.random.Generator | int | None = None,
    sampler: "SamplingEngine | None" = None,
    budget: "RunBudget | None" = None,
) -> SeedSelection:
    """Find the top-``k`` seeds for targeted spread under fixed ``tags``.

    Parameters
    ----------
    engine:
        One of ``"trs"`` (targeted reverse sketching, the guarantee-
        bearing default), ``"imm"`` (martingale-sized sampling — same
        guarantee, usually fewer RR sets), ``"itrs"`` / ``"ltrs"`` /
        ``"lltrs"`` (index-based), or ``"greedy-mc"`` (CELF-accelerated
        Monte-Carlo hill climbing — the most accurate and by far the
        slowest).
    manager:
        Index manager for the index engines. When omitted, one is
        created on the spot: eager all-tag for ``itrs``, empty lazy for
        ``ltrs``, local lazy for ``lltrs``. Passing your own lets
        indexes persist across calls (how the iterative framework uses
        L-TRS).
    num_samples:
        MC samples per estimation (``greedy-mc`` only).
    sampler:
        The :class:`~repro.engine.SamplingEngine` — the bit-parallel,
        optionally multi-process sampling substrate every algorithmic
        engine above runs on. ``None`` means a fresh serial one for
        this call, with answers bit-identical to any explicit engine's.
    budget:
        Optional :class:`~repro.engine.RunBudget` forwarded to the
        engine; a tripped limit raises
        :class:`~repro.exceptions.BudgetExceededError` whose ``partial``
        is re-wrapped as a best-effort :class:`SeedSelection`.
    """
    if engine not in ENGINES:
        raise ConfigurationError(
            f"unknown engine {engine!r}; expected one of {ENGINES}"
        )

    if engine == "trs":
        run = lambda: trs_select_seeds(  # noqa: E731
            graph, targets, tags, k, config, rng, engine=sampler,
            budget=budget,
        )
    elif engine == "imm":
        run = lambda: imm_select_seeds(  # noqa: E731
            graph, targets, tags, k, config, rng=rng, engine=sampler,
            budget=budget,
        )
    elif engine == "greedy-mc":
        run = lambda: greedy_mc_select_seeds(  # noqa: E731
            graph, targets, tags, k, num_samples=num_samples, rng=rng,
            engine=sampler, budget=budget,
        )
    else:
        if manager is None:
            if engine == "itrs":
                manager = make_itrs_manager(
                    graph, theta=config.theta_max, r=max(len(tags), 1),
                    config=config, rng=rng,
                )
            elif engine == "ltrs":
                manager = make_ltrs_manager(graph)
            else:  # lltrs
                manager = make_lltrs_manager(graph, targets, config)
        mgr = manager
        run = lambda: indexed_select_seeds(  # noqa: E731
            graph, targets, tags, k, mgr, config, rng, engine=sampler,
            budget=budget,
        )

    try:
        result = run()
    except BudgetExceededError as exc:
        if exc.partial is not None and hasattr(exc.partial, "seeds"):
            exc.partial = _as_selection(exc.partial, engine)
        raise
    return _as_selection(result, engine)


def _as_selection(result, engine: str) -> SeedSelection:
    """Re-wrap any engine's (possibly partial) result uniformly."""
    elapsed = getattr(result, "elapsed_seconds", None)
    if elapsed is None:
        elapsed = getattr(result, "query_seconds", 0.0)
    return SeedSelection(
        seeds=result.seeds,
        estimated_spread=result.estimated_spread,
        engine=engine,
        elapsed_seconds=elapsed,
        telemetry=getattr(result, "telemetry", None),
        report=getattr(result, "report", None),
    )
