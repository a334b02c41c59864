"""Greedy maximum coverage over a collection of RR sets.

The second stage of reverse sketching: repeatedly pick the node present
in the most still-uncovered RR sets, remove the sets it covers, repeat
until ``k`` seeds are chosen. This is the classical ``(1 - 1/e)``
greedy for max coverage (Nemhauser et al.).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro import obs
from repro.engine.rr_storage import RRCollection
from repro.exceptions import InvalidQueryError


@dataclass(frozen=True)
class CoverageResult:
    """Outcome of greedy max coverage.

    Attributes
    ----------
    seeds:
        Chosen node ids, in selection order.
    covered:
        Number of RR sets covered by the seeds.
    total:
        Total number of RR sets.
    marginal_covered:
        ``marginal_covered[i]`` is how many *new* RR sets seed ``i``
        covered when it was picked; useful for diagnostics and CELF-style
        analyses.
    gain_evaluations:
        Number of residual-gain scans (greedy rounds) the cover ran; the
        same count goes to the ``coverage.gain_evaluations`` counter.
    """

    seeds: tuple[int, ...]
    covered: int
    total: int
    marginal_covered: tuple[int, ...]
    gain_evaluations: int = 0

    @property
    def fraction(self) -> float:
        """Covered fraction of RR sets — the spread estimate ``F_R(S)``."""
        if self.total == 0:
            return 0.0
        return self.covered / self.total

    def spread_estimate(self, num_targets: int) -> float:
        """``F_R(S) · |T|`` — the TRS estimate of ``σ(S, T, C1)``."""
        return self.fraction * num_targets


def greedy_max_coverage(
    rr_sets: RRCollection | Sequence[np.ndarray],
    k: int,
    num_nodes: int,
    candidate_nodes: np.ndarray | None = None,
) -> CoverageResult:
    """Select up to ``k`` seeds covering the most RR sets.

    Parameters
    ----------
    rr_sets:
        A flat :class:`~repro.engine.RRCollection`, or any sequence of
        integer arrays of node ids (packed into one first).
    k:
        Seed budget.
    num_nodes:
        Size of the node universe.
    candidate_nodes:
        Optional restriction of the seed universe (e.g. to exclude
        already-chosen seeds); defaults to all nodes.

    Notes
    -----
    Residual per-node counts start as one ``np.bincount`` over the flat
    member array and are decremented with one bincount per pick,
    restricted to the members of the *newly* covered sets (gathered
    through the collection's inverted index) — an O(total membership)
    pass overall. Ties go to the lowest node id.

    When fewer than ``k`` nodes have positive residual coverage, the
    remaining seats are filled with the lowest-id unused candidates so
    the result always has exactly ``min(k, |candidates|)`` seeds — a seed
    with zero marginal coverage still satisfies the budget the caller
    asked for.
    """
    if k <= 0:
        raise InvalidQueryError(f"seed budget k must be positive, got {k}")
    if num_nodes <= 0:
        raise InvalidQueryError("num_nodes must be positive")
    rr = (
        rr_sets
        if isinstance(rr_sets, RRCollection)
        else RRCollection.from_sets(rr_sets, num_nodes)
    )

    num_sets = rr.num_sets
    members = rr.members
    set_indptr = rr.indptr
    inv_indptr, inv_sets = rr.inverted()

    allowed = np.zeros(num_nodes, dtype=bool)
    if candidate_nodes is None:
        allowed[:] = True
    else:
        allowed[np.asarray(candidate_nodes, dtype=np.int64)] = True

    allowed_members = allowed[members]
    counts = np.bincount(members[allowed_members], minlength=num_nodes)

    covered_sets = np.zeros(num_sets, dtype=bool)
    seeds: list[int] = []
    marginals: list[int] = []
    used = np.zeros(num_nodes, dtype=bool)

    budget = min(k, int(allowed.sum()))
    evaluations = 0
    for _ in range(budget):
        # Each greedy round is one full residual-gain scan (argmax).
        evaluations += 1
        masked = np.where(allowed & ~used, counts, -1)
        best = int(masked.argmax())
        gain = int(masked[best])
        if gain <= 0:
            break
        seeds.append(best)
        marginals.append(gain)
        used[best] = True
        newly = inv_sets[inv_indptr[best]:inv_indptr[best + 1]]
        newly = newly[~covered_sets[newly]]
        covered_sets[newly] = True
        # Gather the members of every newly covered set in one pass.
        starts = set_indptr[newly]
        lengths = set_indptr[newly + 1] - starts
        total = int(lengths.sum())
        if total:
            cumulative = np.cumsum(lengths)
            positions = np.arange(total, dtype=np.int64) + np.repeat(
                starts - (cumulative - lengths), lengths
            )
            touched = members[positions]
            touched = touched[allowed[touched]]
            counts -= np.bincount(touched, minlength=num_nodes)
    if evaluations:
        obs.count("coverage.gain_evaluations", evaluations)

    # Fill remaining seats with the lowest-id unused candidates.
    if len(seeds) < budget:
        fillers = np.flatnonzero(allowed & ~used)
        for node in fillers[: budget - len(seeds)].tolist():
            seeds.append(int(node))
            marginals.append(0)

    return CoverageResult(
        seeds=tuple(seeds),
        covered=int(covered_sets.sum()),
        total=num_sets,
        marginal_covered=tuple(marginals),
        gain_evaluations=evaluations,
    )
