"""Query and result types for the joint selection problem (Eq. 6)."""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

from repro.exceptions import InvalidQueryError
from repro.graphs.tag_graph import TagGraph
from repro.utils.validation import check_budget, check_node_ids


@dataclass(frozen=True)
class JointQuery:
    """A joint top-``k`` seeds / top-``r`` tags query.

    Attributes
    ----------
    targets:
        The campaigner's target customers ``T``.
    k:
        Seed budget.
    r:
        Tag budget.
    """

    targets: tuple[int, ...]
    k: int
    r: int

    def __init__(self, targets: Iterable[int], k: int, r: int) -> None:
        object.__setattr__(
            self, "targets", tuple(sorted({int(t) for t in targets}))
        )
        object.__setattr__(self, "k", int(k))
        object.__setattr__(self, "r", int(r))

    def validate(self, graph: TagGraph) -> None:
        """Check the query against a concrete graph; raise on mismatch."""
        if not self.targets:
            raise InvalidQueryError("target set must not be empty")
        check_node_ids(self.targets, graph.num_nodes, context="JointQuery")
        check_budget(self.k, graph.num_nodes, what="seeds")
        check_budget(self.r, graph.num_tags, what="tags")

    @property
    def num_targets(self) -> int:
        """``|T|``."""
        return len(self.targets)


@dataclass(frozen=True)
class HistoryEntry:
    """Snapshot of the optimizer's state after one half-iteration.

    ``step`` uses the paper's Table 6 convention: ``0`` is the initial
    condition, ``i - 0.5`` is after round ``i``'s seed optimization, and
    ``i`` after its tag optimization.
    """

    step: float
    seeds: tuple[int, ...]
    tags: tuple[str, ...]
    spread: float


@dataclass(frozen=True)
class JointResult:
    """Outcome of a joint selection run.

    Attributes
    ----------
    seeds, tags:
        The returned solution (the best-spread snapshot seen).
    spread:
        Its (Monte-Carlo estimated) targeted spread.
    history:
        Per-half-iteration snapshots, chronological.
    rounds:
        Number of full rounds executed.
    converged:
        Whether the stopping rule fired before ``max_rounds``.
    elapsed_seconds:
        Total wall-clock time.
    telemetry:
        Runtime counters (shards run and retried, pool rebuilds,
        checkpoint writes, ...) of the sampler that ran the
        sub-solvers.
    report:
        Observability report (metrics + trace + phases) when the run
        happened inside an :func:`repro.obs.observe` scope; ``None``
        otherwise.
    """

    seeds: tuple[int, ...]
    tags: tuple[str, ...]
    spread: float
    history: tuple[HistoryEntry, ...]
    rounds: int
    converged: bool
    elapsed_seconds: float
    telemetry: dict | None = None
    report: dict | None = None

    def spread_fraction(self, num_targets: int) -> float:
        """Spread as a fraction of the target-set size."""
        if num_targets <= 0:
            return 0.0
        return self.spread / num_targets
