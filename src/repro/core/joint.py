"""Algorithm 2 — the alternating iterative framework.

Starting from an initial seed/tag pair, each round (i) re-optimizes the
seeds for the current tags and (ii) re-optimizes the tags for the new
seeds, stopping when the targeted spread of two successive rounds is
within tolerance (a fixed point, in the sense of Theorem 7). With exact
sub-solvers the spread is monotonically non-decreasing; the heuristic
sub-solvers can jitter, so the framework also remembers the
best-spread snapshot and returns it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro import obs
from repro.core.initialization import (
    eliminate_low_frequency_tags,
    frequency_tags,
    ims_seeds,
    random_seeds,
    random_tags,
)
from repro.core.problem import HistoryEntry, JointQuery, JointResult
from repro.diffusion.monte_carlo import estimate_spread
from repro.engine.parallel import SamplingEngine, resolve_engine
from repro.exceptions import BudgetExceededError, ConfigurationError
from repro.graphs.tag_graph import TagGraph
from repro.index.itrs import make_lltrs_manager, make_ltrs_manager
from repro.seeds.api import ENGINES, find_seeds
from repro.sketch.theta import SketchConfig
from repro.tags.api import METHODS, find_tags
from repro.tags.paths import TagSelectionConfig
from repro.utils.rng import ensure_rng
from repro.utils.timing import Timer

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.engine.runtime import RunBudget

SEED_INITS = ("random", "ims")
TAG_INITS = ("random", "frequency")


@dataclass(frozen=True)
class JointConfig:
    """Knobs for the iterative framework.

    Attributes
    ----------
    max_rounds:
        Upper bound on full (seed + tag) rounds.
    convergence_tol:
        Relative spread improvement below which the run is converged
        ("similar influence spread in two successive rounds").
    seed_engine:
        Engine for the seed step (see :data:`repro.seeds.api.ENGINES`);
        the paper's full system uses ``"lltrs"``.
    tag_method:
        ``"batch"`` (paper) or ``"individual"`` (baseline).
    seed_init, tag_init:
        Initial-condition choices: RS/IMS and RT/FT respectively. The
        paper's recommended combination is RS + FT — the default here.
    sketch:
        Reverse-sketching knobs shared by seed engines.
    tag_config:
        Path-enumeration / tag-selection knobs.
    eval_samples:
        IC cascades behind each per-half-iteration history spread, run
        on the ``sampler``'s bit-parallel cascade kernel.
    eliminate_fraction:
        When below 1.0, the tag search space is first reduced to this
        fraction by frequency (Section 5.3's elimination); 1.0 disables.
    pad_tags:
        When the tag step returns fewer than ``r`` useful tags, pad the
        set with the highest-frequency unused tags so the budget is
        always spent.
    """

    max_rounds: int = 6
    convergence_tol: float = 0.01
    seed_engine: str = "lltrs"
    tag_method: str = "batch"
    seed_init: str = "random"
    tag_init: str = "frequency"
    sketch: SketchConfig = field(default_factory=SketchConfig)
    tag_config: TagSelectionConfig = field(default_factory=TagSelectionConfig)
    eval_samples: int = 200
    eliminate_fraction: float = 1.0
    pad_tags: bool = True

    def __post_init__(self) -> None:
        if self.max_rounds <= 0:
            raise ConfigurationError("max_rounds must be positive")
        if self.convergence_tol < 0.0:
            raise ConfigurationError("convergence_tol must be >= 0")
        if self.seed_engine not in ENGINES:
            raise ConfigurationError(
                f"unknown seed_engine {self.seed_engine!r}"
            )
        if self.tag_method not in METHODS:
            raise ConfigurationError(f"unknown tag_method {self.tag_method!r}")
        if self.seed_init not in SEED_INITS:
            raise ConfigurationError(f"unknown seed_init {self.seed_init!r}")
        if self.tag_init not in TAG_INITS:
            raise ConfigurationError(f"unknown tag_init {self.tag_init!r}")
        if self.eval_samples <= 0:
            raise ConfigurationError("eval_samples must be positive")
        if not (0.0 < self.eliminate_fraction <= 1.0):
            raise ConfigurationError(
                "eliminate_fraction must lie in (0, 1]"
            )


def _pad_tags(
    tags: tuple[str, ...],
    graph: TagGraph,
    targets: tuple[int, ...],
    r: int,
    universe: tuple[str, ...],
) -> tuple[str, ...]:
    """Top up a short tag set with the best unused frequency-ranked tags."""
    if len(tags) >= r:
        return tuple(sorted(tags[:r]))
    unused = [t for t in universe if t not in tags]
    if not unused:
        return tuple(sorted(tags))
    extra = frequency_tags(
        graph, targets, min(r - len(tags), len(unused)), universe=unused
    )
    return tuple(sorted(set(tags) | set(extra)))


def jointly_select(
    graph: TagGraph,
    query: JointQuery,
    config: JointConfig = JointConfig(),
    rng: np.random.Generator | int | None = None,
    sampler: "SamplingEngine | None" = None,
    budget: "RunBudget | None" = None,
) -> JointResult:
    """Jointly find the top-``k`` seeds and top-``r`` tags (Eq. 6).

    Returns the best-spread snapshot over the run together with the
    full half-iteration history (Table 6's trajectory).

    Parameters
    ----------
    sampler:
        The :class:`~repro.engine.SamplingEngine` the seed steps and
        the per-half-iteration spread measurements run on (with
        whatever retry policy, fault plan, and checkpointing it was
        built with). ``None`` means a fresh serial engine for this
        call; the result is bit-identical to any explicit engine's.
    budget:
        Optional :class:`~repro.engine.RunBudget` spanning the whole
        run. A tripped limit raises
        :class:`~repro.exceptions.BudgetExceededError` whose ``partial``
        is a :class:`JointResult` with the best snapshot reached so far.
    """
    rng = ensure_rng(rng)
    sampler = resolve_engine(sampler)
    query.validate(graph)
    targets = query.targets

    universe = graph.tags
    if config.eliminate_fraction < 1.0:
        universe = eliminate_low_frequency_tags(
            graph, targets, keep_fraction=config.eliminate_fraction,
            min_keep=query.r,
        )

    timer = Timer()
    history: list[HistoryEntry] = []
    best: HistoryEntry | None = None
    rounds = 0
    converged = False
    try:
        with timer, obs.span(
            "joint", k=query.k, r=query.r, num_targets=len(targets)
        ) as joint_span:
            # --- initial condition ---------------------------------------
            with obs.span(
                "joint.init",
                seed_init=config.seed_init,
                tag_init=config.tag_init,
            ):
                if config.seed_init == "ims":
                    seeds = ims_seeds(
                        graph, targets, query.k, config.sketch, rng
                    )
                else:
                    seeds = random_seeds(graph, query.k, rng)
                if config.tag_init == "frequency":
                    tags = frequency_tags(
                        graph, targets, query.r, universe=universe
                    )
                else:
                    tags = random_tags(
                        graph, query.r, universe=universe, rng=rng
                    )

            def measure(s: tuple[int, ...], c: tuple[str, ...]) -> float:
                if not c:
                    return 0.0
                return estimate_spread(
                    graph, s, targets, c,
                    num_samples=config.eval_samples, rng=rng,
                    engine=sampler, budget=budget,
                )

            spread = measure(seeds, tags)
            history.append(HistoryEntry(0.0, seeds, tags, spread))
            best = history[0]

            # Index managers persist across rounds — this is where
            # L-TRS's lazy reuse actually saves work.
            manager = None
            if config.seed_engine == "lltrs":
                manager = make_lltrs_manager(graph, targets, config.sketch)
            elif config.seed_engine in ("ltrs", "itrs"):
                manager = make_ltrs_manager(graph)

            prev_round_spread = spread
            for round_no in range(1, config.max_rounds + 1):
                rounds = round_no
                obs.count("joint.rounds")
                with obs.span("joint.round", round=round_no) as round_span:
                    with obs.span(
                        "joint.seed_step", engine=config.seed_engine
                    ):
                        selection = find_seeds(
                            graph, targets, tags, query.k,
                            engine=config.seed_engine, config=config.sketch,
                            manager=manager, rng=rng, sampler=sampler,
                            budget=budget,
                        )
                    seeds = tuple(sorted(selection.seeds))
                    spread = measure(seeds, tags)
                    history.append(
                        HistoryEntry(round_no - 0.5, seeds, tags, spread)
                    )
                    if spread > best.spread:
                        best = history[-1]

                    with obs.span(
                        "joint.tag_step", method=config.tag_method
                    ):
                        tag_sel = find_tags(
                            graph, seeds, targets, query.r,
                            method=config.tag_method,
                            config=config.tag_config,
                            rng=rng,
                        )
                    tags = tag_sel.tags
                    if config.pad_tags:
                        tags = _pad_tags(
                            tags, graph, targets, query.r, universe
                        )
                    spread = measure(seeds, tags)
                    history.append(
                        HistoryEntry(float(round_no), seeds, tags, spread)
                    )
                    if spread > best.spread:
                        best = history[-1]
                    round_span.set(spread=spread)

                improvement = spread - prev_round_spread
                threshold = config.convergence_tol * max(
                    prev_round_spread, 1.0
                )
                if improvement <= threshold:
                    converged = True
                    break
                prev_round_spread = spread
            obs.gauge("joint.best_spread", best.spread)
            joint_span.set(rounds=rounds, converged=converged)
    except BudgetExceededError as exc:
        exc.partial = _partial_joint_result(
            best, history, rounds, timer.elapsed, sampler
        )
        raise

    return JointResult(
        seeds=best.seeds,
        tags=best.tags,
        spread=best.spread,
        history=tuple(history),
        rounds=rounds,
        converged=converged,
        elapsed_seconds=timer.elapsed,
        telemetry=sampler.telemetry.as_dict(),
        report=obs.snapshot_report(),
    )


def _partial_joint_result(
    best: HistoryEntry | None,
    history: list[HistoryEntry],
    rounds: int,
    elapsed: float,
    sampler: SamplingEngine,
) -> JointResult:
    """Best-effort :class:`JointResult` when the budget stops a run."""
    if best is None:
        seeds: tuple[int, ...] = ()
        tags: tuple[str, ...] = ()
        spread = 0.0
    else:
        seeds, tags, spread = best.seeds, best.tags, best.spread
    return JointResult(
        seeds=seeds,
        tags=tags,
        spread=spread,
        history=tuple(history),
        rounds=rounds,
        converged=False,
        elapsed_seconds=elapsed,
        telemetry=sampler.telemetry.as_dict(),
    )
