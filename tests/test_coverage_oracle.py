"""Greedy max coverage ≡ the pure-Python membership-list oracle.

``greedy_max_coverage`` has one implementation: it packs any sequence
of RR sets into a flat :class:`~repro.engine.RRCollection` and runs the
bincount pass. The membership-list greedy it replaced lives on here as
the oracle; the two must agree on every field of the result —
including tie-breaking, the low-id filler rule and the number of
residual-gain scans — and on the ``coverage.gain_evaluations`` counter.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.engine import RRCollection
from repro.sketch import CoverageResult, greedy_max_coverage


def list_greedy_oracle(rr_sets, k, num_nodes, candidate_nodes=None):
    """Greedy max coverage by per-node membership lists, one set at a time."""
    allowed = np.zeros(num_nodes, dtype=bool)
    if candidate_nodes is None:
        allowed[:] = True
    else:
        allowed[np.asarray(candidate_nodes, dtype=np.int64)] = True

    # node -> list of RR-set indices containing it (restricted to allowed)
    membership: list[list[int]] = [[] for _ in range(num_nodes)]
    counts = np.zeros(num_nodes, dtype=np.int64)
    for idx, rr in enumerate(rr_sets):
        for node in rr.tolist():
            if allowed[node]:
                membership[node].append(idx)
                counts[node] += 1

    covered_sets = np.zeros(len(rr_sets), dtype=bool)
    seeds: list[int] = []
    marginals: list[int] = []
    used = np.zeros(num_nodes, dtype=bool)

    budget = min(k, int(allowed.sum()))
    evaluations = 0
    for _ in range(budget):
        evaluations += 1
        obs.count("coverage.gain_evaluations")
        masked = np.where(allowed & ~used, counts, -1)
        best = int(masked.argmax())
        gain = int(masked[best])
        if gain <= 0:
            break
        seeds.append(best)
        marginals.append(gain)
        used[best] = True
        for rr_idx in membership[best]:
            if not covered_sets[rr_idx]:
                covered_sets[rr_idx] = True
                for node in rr_sets[rr_idx].tolist():
                    if allowed[node]:
                        counts[node] -= 1

    if len(seeds) < budget:
        fillers = np.flatnonzero(allowed & ~used)
        for node in fillers[: budget - len(seeds)].tolist():
            seeds.append(int(node))
            marginals.append(0)

    return CoverageResult(
        seeds=tuple(seeds),
        covered=int(covered_sets.sum()),
        total=len(rr_sets),
        marginal_covered=tuple(marginals),
        gain_evaluations=evaluations,
    )


def _observed(fn):
    with obs.observe() as ob:
        result = fn()
    return result, ob.metrics.as_dict()["counters"]


@st.composite
def coverage_cases(draw):
    """RR sets over a small universe: empty sets, ties and k > n included."""
    num_nodes = draw(st.integers(min_value=1, max_value=10))
    node = st.integers(min_value=0, max_value=num_nodes - 1)
    sets = draw(st.lists(
        st.lists(node, max_size=num_nodes, unique=True), max_size=15,
    ))
    k = draw(st.integers(min_value=1, max_value=num_nodes + 3))
    candidates = draw(st.none() | st.lists(node, unique=True, max_size=8))
    return num_nodes, [np.array(s, dtype=np.int64) for s in sets], k, (
        None if candidates is None else np.array(candidates, dtype=np.int64)
    )


@settings(max_examples=300, deadline=None)
@given(case=coverage_cases())
def test_greedy_cover_matches_list_oracle(case):
    num_nodes, sets, k, candidates = case
    want, want_counters = _observed(
        lambda: list_greedy_oracle(sets, k, num_nodes, candidates)
    )
    for rr in (sets, RRCollection.from_sets(sets, num_nodes)):
        got, got_counters = _observed(
            lambda: greedy_max_coverage(rr, k, num_nodes, candidates)
        )
        assert got.seeds == want.seeds
        assert got.covered == want.covered
        assert got.total == want.total
        assert got.marginal_covered == want.marginal_covered
        assert got.gain_evaluations == want.gain_evaluations
        assert got_counters == want_counters


def test_oracle_cases_are_exercised():
    """The corner cases the property test relies on, pinned explicitly."""
    empty = np.empty(0, dtype=np.int64)
    cases = [
        ([empty, np.array([1])], 5, 3, None),  # empty set, k > n
        ([np.array([0, 1]), np.array([1, 2])], 2, 3, np.array([0, 2])),
        ([np.array([0])], 2, 2, np.empty(0, dtype=np.int64)),  # no seats
        ([], 3, 2, None),  # no sets at all: fillers only
    ]
    for sets, k, n, candidates in cases:
        want = list_greedy_oracle(sets, k, n, candidates)
        assert greedy_max_coverage(sets, k, n, candidates) == want
