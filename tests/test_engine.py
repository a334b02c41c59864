"""Equivalence tests for the sampling engine.

Three layers of evidence, mirroring ROADMAP's "scalar path is the
correctness oracle" stance:

* *certain-world* equivalence — with probability-1 edges, the
  bit-parallel kernels must return exactly the same node sets as the
  scalar traversals (per-lane replay against the fixed-world oracle
  lives in ``test_bitworld.py``);
* *distributional* equivalence — with coins, engine estimates must
  converge to the exact possible-world oracle on enumerable graphs;
* *determinism* — the parallel driver must be bit-identical across
  worker counts for a fixed master seed, and the flat greedy coverage
  must reproduce the list-based greedy exactly (same seeds, same
  marginals, same tie-breaking).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.diffusion import exact_spread, simulate_cascade
from repro.diffusion.monte_carlo import estimate_spread, target_mask
from repro.engine import (
    RRCollection,
    SamplingEngine,
    bitparallel_cascade_counts,
    bitparallel_rr_members,
)
from repro.engine.parallel import _shard_counts
from repro.exceptions import ConfigurationError
from repro.graphs import TagGraphBuilder
from repro.sketch import greedy_max_coverage
from repro.utils.validation import as_target_array

# ---------------------------------------------------------------------------
# Certain-world equivalence: bit-parallel vs scalar traversal
# ---------------------------------------------------------------------------


def test_certain_world_cascade_matches_scalar(diamond_graph):
    # probability-1 edges: both cascade paths are deterministic.
    edge_probs = np.ones(diamond_graph.num_edges)
    scalar = simulate_cascade(diamond_graph, [0], edge_probs, rng=0)
    seeds = np.array([0], dtype=np.int64)
    bit = np.array([
        bitparallel_cascade_counts(
            diamond_graph, seeds, edge_probs, 1,
            np.array([v], dtype=np.int64), key=0,
        )[0]
        for v in range(diamond_graph.num_nodes)
    ], dtype=bool)
    np.testing.assert_array_equal(scalar, bit)


def test_certain_world_bitparallel_rr_members(line_graph):
    # All edges certain: every RR set is the full ancestor set.
    edge_probs = np.ones(line_graph.num_edges)
    roots = np.array([3, 2, 0], dtype=np.int64)
    members, indptr = bitparallel_rr_members(
        line_graph, roots, edge_probs, key=1
    )
    sets = [
        set(members[indptr[i]:indptr[i + 1]].tolist())
        for i in range(len(roots))
    ]
    assert sets == [{0, 1, 2, 3}, {0, 1, 2}, {0}]


# ---------------------------------------------------------------------------
# Distributional equivalence against the exact oracle
# ---------------------------------------------------------------------------


def test_engine_spread_converges_to_exact(fig4_graph):
    tags = ["c1", "c2", "c3"]
    exact = exact_spread(fig4_graph, [0, 3], [2, 5], tags)
    engine = SamplingEngine(mode="bitparallel", workers=1, shard_size=256)
    value = estimate_spread(
        fig4_graph, [0, 3], [2, 5], tags,
        num_samples=20000, rng=11, engine=engine,
    )
    assert value == pytest.approx(exact, abs=0.05)


# ---------------------------------------------------------------------------
# RRCollection storage
# ---------------------------------------------------------------------------


def test_rr_collection_roundtrip():
    sets = [
        np.array([3, 1], dtype=np.int64),
        np.array([0], dtype=np.int64),
        np.array([2, 3, 4], dtype=np.int64),
    ]
    rr = RRCollection.from_sets(sets, num_nodes=5)
    assert len(rr) == 3
    assert rr.total_members == 6
    for got, want in zip(rr, sets):
        np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(rr[1], sets[1])


def test_rr_collection_concat_and_truncate():
    a = RRCollection.from_sets([np.array([0, 1])], num_nodes=4)
    b = RRCollection.from_sets([np.array([2]), np.array([3, 0])], num_nodes=4)
    merged = RRCollection.concat([a, b])
    assert len(merged) == 3
    np.testing.assert_array_equal(merged[2], [3, 0])
    head = merged[:2]
    assert isinstance(head, RRCollection)
    assert len(head) == 2
    np.testing.assert_array_equal(head[1], [2])
    assert len(merged.truncated(10)) == 3  # clamps, never over-reads


def test_rr_collection_inverted_index():
    rr = RRCollection.from_sets(
        [np.array([1, 2]), np.array([2]), np.array([0, 2])], num_nodes=3
    )
    indptr, set_ids = rr.inverted()
    # node 2 appears in all three sets, node 0 only in set 2.
    assert set(set_ids[indptr[2]:indptr[3]].tolist()) == {0, 1, 2}
    assert set_ids[indptr[0]:indptr[1]].tolist() == [2]
    np.testing.assert_array_equal(rr.member_counts(), [1, 1, 3])


def test_rr_collection_empty():
    rr = RRCollection(
        np.empty(0, dtype=np.int64), np.zeros(1, dtype=np.int64), 4
    )
    assert len(rr) == 0
    assert greedy_max_coverage(rr, 2, 4).covered == 0


# ---------------------------------------------------------------------------
# Flat greedy coverage == list greedy coverage (exact, incl. tie-breaks)
# ---------------------------------------------------------------------------

rr_set_lists = st.lists(
    st.lists(st.integers(min_value=0, max_value=7), min_size=1, max_size=5),
    min_size=1,
    max_size=12,
)


@settings(max_examples=60, deadline=None)
@given(sets=rr_set_lists, k=st.integers(min_value=1, max_value=4))
def test_flat_greedy_matches_list_greedy(sets, k):
    arrays = [np.unique(np.array(s, dtype=np.int64)) for s in sets]
    flat = RRCollection.from_sets(arrays, num_nodes=8)
    want = greedy_max_coverage(arrays, k, 8)
    got = greedy_max_coverage(flat, k, 8)
    assert got.seeds == want.seeds
    assert got.covered == want.covered
    assert got.total == want.total
    assert got.marginal_covered == want.marginal_covered


def test_flat_greedy_respects_candidates():
    arrays = [np.array([0, 1]), np.array([1, 2]), np.array([1])]
    flat = RRCollection.from_sets(arrays, num_nodes=3)
    candidates = np.array([0, 2], dtype=np.int64)
    want = greedy_max_coverage(arrays, 2, 3, candidate_nodes=candidates)
    got = greedy_max_coverage(flat, 2, 3, candidate_nodes=candidates)
    assert got.seeds == want.seeds
    assert got.covered == want.covered


# ---------------------------------------------------------------------------
# Parallel determinism: identical results for any worker count
# ---------------------------------------------------------------------------


def _rr_signature(rr: RRCollection) -> tuple:
    return (
        rr.members.tobytes(),
        rr.indptr.tobytes(),
        rr.num_sets,
    )


@pytest.fixture(scope="module")
def worker_engines():
    """One serial and one 4-worker engine, shared across the module
    (process-pool startup is the expensive part)."""
    serial = SamplingEngine(mode="bitparallel", workers=1, shard_size=16)
    pooled = SamplingEngine(mode="bitparallel", workers=4, shard_size=16)
    yield serial, pooled
    serial.close()
    pooled.close()


def test_rr_sampling_identical_across_workers(small_yelp, worker_engines):
    graph = small_yelp.graph
    serial, pooled = worker_engines
    target_arr = as_target_array(range(0, 40), graph.num_nodes, context="t")
    edge_probs = graph.edge_probabilities(list(graph.tags[:3]))
    a = serial.sample_rr_sets(graph, target_arr, edge_probs, 100, rng=99)
    b = pooled.sample_rr_sets(graph, target_arr, edge_probs, 100, rng=99)
    assert _rr_signature(a) == _rr_signature(b)


def test_cascade_counts_identical_across_workers(small_yelp, worker_engines):
    graph = small_yelp.graph
    serial, pooled = worker_engines
    seed_arr = np.array([0, 7, 19], dtype=np.int64)
    target_arr = np.arange(30, dtype=np.int64)
    edge_probs = graph.edge_probabilities(list(graph.tags[:3]))
    a = serial.cascade_target_counts(
        graph, seed_arr, edge_probs, 100, target_arr, rng=123
    )
    b = pooled.cascade_target_counts(
        graph, seed_arr, edge_probs, 100, target_arr, rng=123
    )
    np.testing.assert_array_equal(a, b)


@settings(max_examples=5, deadline=None)
@given(master=st.integers(min_value=0, max_value=2**31 - 1))
def test_serial_parallel_identical_for_any_seed(
    small_yelp, worker_engines, master
):
    """The determinism contract, property-style: for any fixed master
    SeedSequence the serial and 4-worker drivers are bit-identical."""
    graph = small_yelp.graph
    serial, pooled = worker_engines
    target_arr = np.arange(25, dtype=np.int64)
    edge_probs = graph.edge_probabilities(list(graph.tags[:2]))
    rng_a = np.random.default_rng(np.random.SeedSequence(master))
    rng_b = np.random.default_rng(np.random.SeedSequence(master))
    a = serial.sample_rr_sets(graph, target_arr, edge_probs, 40, rng=rng_a)
    b = pooled.sample_rr_sets(graph, target_arr, edge_probs, 40, rng=rng_b)
    assert _rr_signature(a) == _rr_signature(b)


def test_removed_vectorized_mode_is_rejected():
    # Likewise the scalar mode: the scalar loops are test oracles only.
    for mode in ("vectorized", "scalar"):
        with pytest.raises(ConfigurationError, match=r"\('bitparallel',\)"):
            SamplingEngine(mode=mode)


def test_shard_counts_partition():
    assert _shard_counts(0, 512) == []
    assert _shard_counts(100, 512) == [100]
    assert _shard_counts(1030, 512) == [512, 512, 6]
    assert sum(_shard_counts(9999, 128)) == 9999


def test_shard_layout_independent_of_workers():
    # The shard plan depends only on (total, shard_size) — never on the
    # worker count — which is what makes the contract possible at all.
    assert _shard_counts(1000, 64) == _shard_counts(1000, 64)


# ---------------------------------------------------------------------------
# Engine-threaded high-level APIs
# ---------------------------------------------------------------------------


def test_estimate_spread_accepts_precomputed_mask(fig9_graph):
    tags = ["c1", "c2", "c5"]
    mask = target_mask(fig9_graph, [6, 7, 8])
    a = estimate_spread(
        fig9_graph, [0], [6, 7, 8], tags, num_samples=500, rng=1
    )
    b = estimate_spread(
        fig9_graph, [0], None, tags, num_samples=500, rng=1,
        targets_mask=mask,
    )
    assert a == pytest.approx(b)


def test_find_seeds_with_sampler_all_engines(small_yelp):
    from repro import find_seeds

    graph = small_yelp.graph
    targets = list(range(0, 30))
    tags = list(graph.tags[:3])
    with SamplingEngine(mode="bitparallel", workers=1) as engine:
        for algo in ("trs", "imm", "ltrs", "lltrs"):
            sel = find_seeds(
                graph, targets, tags, 3, engine=algo, rng=17, sampler=engine
            )
            assert len(sel.seeds) == 3
            assert sel.estimated_spread >= 0.0
