"""Bit-identity of Algorithm 1's fast kernels against their scalar references.

The path sweep (:func:`repro.tags.paths.top_paths_from_seed`) walks
cached per-node arcs and stops an expansion at the push that fills the
frontier; the exact evaluator (:func:`repro.tags.spread_eval.
exact_path_spread`) relaxes packed world lanes instead of running one
BFS per possible world. Neither may change a single answer, so both are
compared here, bit for bit, with the scalar code they replaced, kept
below as reference copies:

* sweep and ``collect_paths`` — the same paths in the same order, with
  the same float probabilities, for a ``max_queue`` no sweep reaches and
  for tiny binding values, so both the pop cap and the frontier cap
  bind;
* exact spread — the same float for 0-12 active edges, with seeds inside
  and outside the targets, also with the world blocks shrunk so one call
  spans many blocks.
"""

from __future__ import annotations

import heapq
import itertools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.diffusion.cascade import reachable_targets
from repro.graphs import TagGraphBuilder
from repro.tags import spread_eval
from repro.tags.paths import (
    TagPath,
    TagSelectionConfig,
    collect_paths,
    top_paths_from_seed,
)
from repro.tags.spread_eval import PathSpreadEvaluator, exact_path_spread
from repro.utils.rng import ensure_rng

TAGS = ("a", "b", "c")
#: Few distinct probabilities, so equal-cost paths (tiebreak order) occur.
PROBS = (0.25, 0.5, 0.8, 1.0)


# ----------------------------------------------------------------------
# Reference copies of the scalar code the kernels replaced
# ----------------------------------------------------------------------


def reference_top_paths_from_seed(
    graph, source, targets, limit_per_target, forbidden, config
):
    """The one-tuple-per-push sweep: every edge of a pop re-checks the cap."""
    target_set = {int(t) for t in targets if int(t) != source}
    if not target_set:
        return {}
    counter = itertools.count()
    heap = [(0.0, next(counter), source, (source,), (), ())]
    fwd_indptr, fwd_edges = graph.forward_csr()
    dst = graph.dst
    tag_neglogs = graph.edge_tag_neglogs()
    found: dict[int, list[TagPath]] = {}
    unfinished = set(target_set)
    floor_cost = (
        math.inf if config.prob_floor <= 0.0 else -math.log(config.prob_floor)
    )
    pops = 0
    while heap and unfinished and pops < config.max_queue:
        cost, _tie, node, nodes, edge_ids, tags = heapq.heappop(heap)
        pops += 1
        if node in target_set:
            bucket = found.setdefault(node, [])
            if len(bucket) < limit_per_target:
                bucket.append(
                    TagPath(nodes, edge_ids, tags, math.exp(-cost))
                )
                if len(bucket) >= limit_per_target:
                    unfinished.discard(node)
        if len(edge_ids) >= config.max_hops:
            continue
        on_path = set(nodes)
        for eid in fwd_edges[fwd_indptr[node]:fwd_indptr[node + 1]].tolist():
            child = int(dst[eid])
            if child in on_path:
                continue
            if child in forbidden and child != source:
                continue
            for tag, neglog in tag_neglogs[eid]:
                child_cost = cost + neglog
                if child_cost > floor_cost:
                    continue
                if len(heap) >= config.max_queue:
                    break
                heapq.heappush(
                    heap,
                    (child_cost, next(counter), child, nodes + (child,),
                     edge_ids + (eid,), tags + (tag,)),
                )
    return found


def reference_collect_paths(graph, seeds, targets, config, rng):
    rng = ensure_rng(rng)
    seed_list = sorted({int(s) for s in seeds})
    target_list = sorted({int(t) for t in targets})
    if len(target_list) > config.max_path_targets:
        chosen = rng.choice(
            np.array(target_list, dtype=np.int64),
            size=config.max_path_targets,
            replace=False,
        )
        target_list = sorted(int(t) for t in chosen)
    seed_set = frozenset(seed_list)
    paths, seen = [], set()
    for seed in seed_list:
        per_target = reference_top_paths_from_seed(
            graph, seed, target_list, config.per_pair_paths, seed_set, config
        )
        for target in sorted(per_target):
            for path in per_target[target]:
                key = (path.edge_ids, path.tag_choices)
                if key not in seen:
                    seen.add(key)
                    paths.append(path)
    return paths


def reference_exact_spread(graph, seeds, targets, edge_probs, active_edges):
    """One BFS per possible world, probabilities multiplied in edge order."""
    total = 0.0
    count = active_edges.size
    for bits in range(1 << count):
        mask = np.zeros(graph.num_edges, dtype=bool)
        prob = 1.0
        for pos in range(count):
            eid = int(active_edges[pos])
            if bits >> pos & 1:
                mask[eid] = True
                prob *= edge_probs[eid]
            else:
                prob *= 1.0 - edge_probs[eid]
        if prob == 0.0:
            continue
        total += prob * reachable_targets(graph, seeds, targets, mask)
    return total


# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------


@st.composite
def tag_graphs(draw, max_nodes=6, max_assignments=24):
    n = draw(st.integers(min_value=2, max_value=max_nodes))
    builder = TagGraphBuilder(n)
    used = set()
    for _ in range(draw(st.integers(0, max_assignments))):
        u = draw(st.integers(0, n - 1))
        v = draw(st.integers(0, n - 1))
        tag = draw(st.sampled_from(TAGS))
        if u != v and (u, v, tag) not in used:
            used.add((u, v, tag))
            builder.add(u, v, tag, draw(st.sampled_from(PROBS)))
    return builder.build()


def node_subsets(n, min_size=0):
    return st.lists(
        st.integers(0, n - 1), min_size=min_size, max_size=n, unique=True
    )


@st.composite
def sweep_configs(draw):
    return TagSelectionConfig(
        per_pair_paths=draw(st.integers(1, 4)),
        max_hops=draw(st.integers(1, 5)),
        prob_floor=draw(st.sampled_from((0.0, 1e-3, 0.1, 0.3))),
        # 10**9 is never reached; 1-50 makes the pop and frontier caps bind.
        max_queue=draw(st.one_of(st.just(10**9), st.integers(1, 50))),
        max_path_targets=draw(st.sampled_from((1, 2, 200))),
    )


def _as_rows(found):
    return [(t, [(p.nodes, p.edge_ids, p.tag_choices, p.probability.hex())
                 for p in paths]) for t, paths in found.items()]


# ----------------------------------------------------------------------
# Path sweep
# ----------------------------------------------------------------------


class TestSweepMatchesReference:
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_top_paths_from_seed(self, data):
        graph = data.draw(tag_graphs())
        n = graph.num_nodes
        source = data.draw(st.integers(0, n - 1))
        targets = data.draw(node_subsets(n))
        forbidden = frozenset(data.draw(node_subsets(n))) | {source}
        config = data.draw(sweep_configs())
        limit = config.per_pair_paths
        got = top_paths_from_seed(
            graph, source, targets, limit, forbidden=forbidden, config=config
        )
        want = reference_top_paths_from_seed(
            graph, source, targets, limit, forbidden, config
        )
        assert _as_rows(got) == _as_rows(want)

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_collect_paths(self, data):
        graph = data.draw(tag_graphs())
        n = graph.num_nodes
        seeds = data.draw(node_subsets(n, min_size=1))
        targets = data.draw(node_subsets(n, min_size=1))
        config = data.draw(sweep_configs())
        rng = data.draw(st.integers(0, 2**16))
        got = collect_paths(graph, seeds, targets, config, rng=rng)
        want = reference_collect_paths(graph, seeds, targets, config, rng)
        def rows(paths):
            return [(p.nodes, p.tag_choices, p.probability.hex())
                    for p in paths]

        assert rows(got) == rows(want)

    @pytest.mark.parametrize("max_queue", range(1, 60))
    def test_frontier_cap_on_a_dense_graph(self, max_queue):
        # Every pop has up to 15 children, so the frontier fills within
        # a few pops and most expansions stop at the push that fills it.
        builder = TagGraphBuilder(6)
        probs = (0.9, 0.5, 0.7, 0.3, 0.8, 0.6)
        for u in range(6):
            for v in range(6):
                for i, tag in enumerate(TAGS):
                    if u != v:
                        builder.add(u, v, tag, probs[(u + 2 * v + i) % 6])
        graph = builder.build()
        config = TagSelectionConfig(
            per_pair_paths=4, max_queue=max_queue, prob_floor=0.0
        )
        args = (graph, 0, [3, 4, 5], 4, frozenset({0, 1}))
        got = top_paths_from_seed(*args, config=config)
        assert _as_rows(got) == _as_rows(
            reference_top_paths_from_seed(*args, config)
        )

    def test_forbidden_targets_are_skipped(self, line_graph):
        # Node 1 is the only way on and another seed: nothing can finish.
        got = top_paths_from_seed(
            line_graph, 0, [1, 2, 3], 3, forbidden=frozenset({0, 1})
        )
        assert got == {}
        assert top_paths_from_seed(
            line_graph, 0, [1], 3, forbidden=frozenset({1})
        ) == {}


class TestForwardArcs:
    @settings(max_examples=40, deadline=None)
    @given(graph=tag_graphs())
    def test_matches_csr_and_neglogs(self, graph):
        arcs = graph.forward_arcs()
        indptr, edges = graph.forward_csr()
        neglogs = graph.edge_tag_neglogs()
        assert len(arcs) == graph.num_nodes
        for node in range(graph.num_nodes):
            want = [
                (eid, int(graph.dst[eid]), tuple(neglogs[eid]))
                for eid in edges[indptr[node]:indptr[node + 1]].tolist()
            ]
            assert list(arcs[node]) == want
        assert graph.forward_arcs() is arcs


# ----------------------------------------------------------------------
# Exact spread
# ----------------------------------------------------------------------


@st.composite
def exact_cases(draw):
    """A graph of at most 12 edges, per-edge probabilities, seeds, targets."""
    graph = draw(tag_graphs(max_nodes=8, max_assignments=12))
    n = graph.num_nodes
    edge_probs = np.array(
        draw(st.lists(
            st.one_of(
                st.sampled_from((0.0, 0.5, 1.0)),
                st.floats(min_value=1e-6, max_value=1.0),
            ),
            min_size=graph.num_edges, max_size=graph.num_edges,
        )),
        dtype=np.float64,
    )
    seeds = sorted(draw(node_subsets(n, min_size=1)))
    targets = sorted(draw(node_subsets(n, min_size=1)))
    return graph, edge_probs, seeds, targets


def _kernel(graph, edge_probs, active, seeds, targets):
    return exact_path_spread(
        graph.src[active].tolist(), graph.dst[active].tolist(),
        edge_probs[active], seeds, targets,
    )


class TestExactMatchesReference:
    @settings(max_examples=80, deadline=None)
    @given(case=exact_cases())
    def test_evaluator_exact_spread(self, case):
        graph, edge_probs, seeds, targets = case
        active = np.flatnonzero(edge_probs > 0.0)
        evaluator = PathSpreadEvaluator(graph, seeds, targets, [])
        got = evaluator._exact_spread(edge_probs, active)
        want = reference_exact_spread(
            graph, seeds, targets, edge_probs, active
        )
        assert float(got).hex() == float(want).hex()

    @settings(max_examples=40, deadline=None)
    @given(case=exact_cases(), block_bits=st.integers(0, 3))
    def test_many_world_blocks(self, case, block_bits):
        graph, edge_probs, seeds, targets = case
        active = np.flatnonzero(edge_probs > 0.0)
        want = _kernel(graph, edge_probs, active, seeds, targets)
        with mock.patch.object(spread_eval, "EXACT_BLOCK_BITS", block_bits):
            got = _kernel(graph, edge_probs, active, seeds, targets)
        assert got.hex() == want.hex()

    def test_twelve_edges_seeds_in_and_out_of_targets(self):
        # A 2x6 ladder with edge ids against the flow (the relaxation
        # needs one round per hop) and one back edge (a cycle).
        builder = TagGraphBuilder(8)
        builder.add(7, 0, "a", 0.5)
        for u in reversed(range(6)):
            builder.add(u, u + 2, "b", 0.9 - 0.1 * u)
            if u < 5:
                builder.add(u, u + 1, "a", 0.3 + 0.05 * u)
        graph = builder.build()
        edge_probs = graph.edge_probabilities(["a", "b"])
        active = np.flatnonzero(edge_probs > 0.0)
        assert active.size == 12
        for seeds, targets in (([0], [3, 5, 7]), ([0, 3], [3, 5, 7]),
                               ([0, 1], [0, 1, 6])):
            got = _kernel(graph, edge_probs, active, seeds, targets)
            want = reference_exact_spread(
                graph, seeds, targets, edge_probs, active
            )
            assert got.hex() == float(want).hex()

    def test_no_active_edges_counts_seed_targets(self):
        assert exact_path_spread([], [], np.empty(0), [0, 2], [2, 3]) == 1.0


def test_reference_agrees_with_fig9(fig9_graph):
    """The reference loop itself reproduces the paper's Example 3 (0.81)."""
    edge_probs = np.zeros(fig9_graph.num_edges)
    edge_probs[[2, 7]] = 0.9
    active = np.flatnonzero(edge_probs)
    assert reference_exact_spread(
        fig9_graph, [0, 1, 2], [6, 7, 8], edge_probs, active
    ) == pytest.approx(0.81)
