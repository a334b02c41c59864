"""Bit-parallel world kernels + shared-memory CSR transport tests.

The bit-parallel engine mode is held to a harder standard than mere
*distributional* equivalence with the scalar oracle: it is
**replayable** — every world (block, lane) defines
an edge mask via :func:`repro.engine.bitworld.world_edge_mask`, and the
scalar fixed-world traversals run on that mask must reproduce each
sample's RR set / cascade count exactly. The tests here assert that
bit-identity, the popcount size accounting, ragged world tails, block-
batching invariance, worker-count invariance of the engine integration
(property-style), and the full lifecycle of the shared-memory /
memmap-spilled CSR transport.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.engine import (
    DEFAULT_SHARD_SIZE,
    SamplingEngine,
    SharedCSR,
    SharedProbs,
    bitparallel_cascade_counts,
    bitparallel_rr_members,
)
from repro.engine import bitworld, shared_csr
from repro.engine.shared_csr import SharedArrayPack
from repro.sketch import rr_set_from_edge_mask

from tests.conftest import FIG9_SEEDS, FIG9_TARGETS


def _forward_bfs_count(graph, seeds, edge_mask, target_arr) -> int:
    """Scalar fixed-world cascade oracle: reachable targets from seeds."""
    fwd_indptr, fwd_edges = graph.forward_csr()
    dst = graph.dst
    active = np.zeros(graph.num_nodes, dtype=bool)
    active[seeds] = True
    frontier = list(seeds)
    while frontier:
        nxt = []
        for u in frontier:
            for eid in fwd_edges[fwd_indptr[u]:fwd_indptr[u + 1]]:
                if edge_mask[eid]:
                    v = int(dst[eid])
                    if not active[v]:
                        active[v] = True
                        nxt.append(v)
        frontier = nxt
    return int(active[np.asarray(target_arr)].sum())


# ---------------------------------------------------------------------------
# Replayable-oracle bit-identity
# ---------------------------------------------------------------------------


def test_rr_members_match_world_oracle(small_yelp):
    """Every sample's RR set equals the scalar traversal of its world."""
    graph = small_yelp.graph
    edge_probs = graph.edge_probabilities(list(graph.tags[:4]))
    rng = np.random.default_rng(3)
    theta = 200  # 3 full blocks + a ragged 8-lane tail
    roots = rng.integers(graph.num_nodes, size=theta)
    key = 0xC0FFEE
    members, indptr = bitparallel_rr_members(graph, roots, edge_probs, key)
    assert indptr.shape == (theta + 1,)
    thr53 = bitworld.coin_thresholds(edge_probs)
    for s in range(theta):
        mine = set(members[indptr[s]:indptr[s + 1]].tolist())
        block, lane = bitworld.rr_world_of_sample(roots, s, graph.num_nodes)
        mask = bitworld.world_edge_mask(
            graph.num_edges, thr53, key, block, lane
        )
        oracle = set(rr_set_from_edge_mask(graph, int(roots[s]), mask).tolist())
        assert mine == oracle, f"sample {s} diverged from its world"


def test_cascade_counts_match_world_oracle(fig9_graph):
    """Per-world cascade counts equal the fixed-world forward BFS."""
    graph = fig9_graph
    edge_probs = graph.edge_probabilities(["c1", "c2", "c4", "c5", "c6"])
    seeds = np.asarray(FIG9_SEEDS, dtype=np.int64)
    targets = np.asarray(FIG9_TARGETS, dtype=np.int64)
    num_samples = 130  # ragged: 2 full blocks + 2 lanes
    key = 77
    counts = bitparallel_cascade_counts(
        graph, seeds, edge_probs, num_samples, targets, key
    )
    assert counts.shape == (num_samples,)
    thr53 = bitworld.coin_thresholds(edge_probs)
    for s in range(num_samples):
        mask = bitworld.world_edge_mask(
            graph.num_edges, thr53, key, s // 64, s % 64
        )
        assert counts[s] == _forward_bfs_count(graph, seeds, mask, targets)


def test_coin_stream_edge_probability_extremes(line_graph):
    """p=1 edges always fire, p=0 edges never do, in every world."""
    m = line_graph.num_edges
    thr_one = bitworld.coin_thresholds(np.ones(m))
    thr_zero = bitworld.coin_thresholds(np.zeros(m))
    for block, lane in [(0, 0), (0, 63), (5, 17)]:
        assert bitworld.world_edge_mask(m, thr_one, 9, block, lane).all()
        assert not bitworld.world_edge_mask(m, thr_zero, 9, block, lane).any()


def test_live_csr_drops_zero_probability_edges(diamond_graph):
    rev_indptr, rev_edges = diamond_graph.reverse_csr()
    probs = np.zeros(diamond_graph.num_edges)
    probs[0] = 0.5
    live_indptr, live_edges = bitworld.live_csr(rev_indptr, rev_edges, probs)
    assert live_edges.tolist() == [0]
    assert live_indptr[-1] == 1


# ---------------------------------------------------------------------------
# Popcount accounting + ragged tails
# ---------------------------------------------------------------------------


def test_popcount_accounting_certain_world(line_graph):
    """All-certain edges: every world's count is exact, tail included."""
    edge_probs = np.ones(line_graph.num_edges)
    targets = np.arange(4, dtype=np.int64)
    for num_samples in (1, 63, 64, 65, 130):
        counts = bitparallel_cascade_counts(
            line_graph, np.array([0]), edge_probs, num_samples, targets, 5
        )
        assert counts.shape == (num_samples,)
        assert (counts == 4).all()  # 0 reaches everyone when p=1


def test_rr_ragged_tail_sizes(small_yelp):
    """θ not a multiple of 64: sizes come from real members, not lanes."""
    graph = small_yelp.graph
    edge_probs = graph.edge_probabilities(list(graph.tags[:3]))
    roots = np.arange(65, dtype=np.int64) % graph.num_nodes
    members, indptr = bitparallel_rr_members(graph, roots, edge_probs, 1)
    sizes = np.diff(indptr)
    assert sizes.shape == (65,)
    assert (sizes >= 1).all()  # the root is always a member
    for s in (0, 64):  # lane 0 of each block, including the tail block
        assert int(roots[s]) in set(members[indptr[s]:indptr[s + 1]].tolist())


def test_block_batching_is_invisible(small_yelp, monkeypatch):
    """Forcing many tiny block batches cannot change a single bit."""
    graph = small_yelp.graph
    edge_probs = graph.edge_probabilities(list(graph.tags[:3]))
    rng = np.random.default_rng(11)
    roots = rng.integers(graph.num_nodes, size=300)
    ref = bitparallel_rr_members(graph, roots, edge_probs, 42)
    monkeypatch.setattr(bitworld, "DEFAULT_BLOCK_CELLS", graph.num_nodes)
    tiny = bitparallel_rr_members(graph, roots, edge_probs, 42)
    np.testing.assert_array_equal(ref[0], tiny[0])
    np.testing.assert_array_equal(ref[1], tiny[1])


# ---------------------------------------------------------------------------
# Engine integration: worker-count invariance (property-style)
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def bit_engines():
    """Serial and pooled bit-parallel engines sharing one process pool.

    ``parallel_threshold=0`` on the pooled engine disables the small-run
    fallback so the shared-memory fan-out path genuinely runs.
    """
    serial = SamplingEngine(mode="bitparallel", workers=1, shard_size=64)
    pooled = SamplingEngine(
        mode="bitparallel", workers=2, shard_size=64, parallel_threshold=0
    )
    yield serial, pooled
    serial.close()
    pooled.close()


@settings(max_examples=5, deadline=None)
@given(
    master=st.integers(min_value=0, max_value=2**31 - 1),
    theta=st.integers(min_value=1, max_value=200),
)
def test_bitparallel_identical_across_workers(
    small_yelp, bit_engines, master, theta
):
    graph = small_yelp.graph
    serial, pooled = bit_engines
    target_arr = np.arange(25, dtype=np.int64)
    edge_probs = graph.edge_probabilities(list(graph.tags[:2]))
    a = serial.sample_rr_sets(
        graph, target_arr, edge_probs, theta,
        rng=np.random.default_rng(np.random.SeedSequence(master)),
    )
    b = pooled.sample_rr_sets(
        graph, target_arr, edge_probs, theta,
        rng=np.random.default_rng(np.random.SeedSequence(master)),
    )
    assert a.members.tobytes() == b.members.tobytes()
    assert a.indptr.tobytes() == b.indptr.tobytes()


def test_bitparallel_cascades_identical_across_workers(
    small_yelp, bit_engines
):
    graph = small_yelp.graph
    serial, pooled = bit_engines
    seed_arr = np.array([0, 7, 19], dtype=np.int64)
    target_arr = np.arange(30, dtype=np.int64)
    edge_probs = graph.edge_probabilities(list(graph.tags[:3]))
    a = serial.cascade_target_counts(
        graph, seed_arr, edge_probs, 150, target_arr, rng=123
    )
    b = pooled.cascade_target_counts(
        graph, seed_arr, edge_probs, 150, target_arr, rng=123
    )
    np.testing.assert_array_equal(a, b)


def test_bitparallel_default_shard_size():
    engine = SamplingEngine(mode="bitparallel")
    assert engine.shard_size == DEFAULT_SHARD_SIZE == 8192
    assert SamplingEngine().mode == "bitparallel"


# ---------------------------------------------------------------------------
# Small-run parallel fallback (reason counter)
# ---------------------------------------------------------------------------


def test_small_run_fallback_reports_below_threshold(small_yelp):
    graph = small_yelp.graph
    target_arr = np.arange(20, dtype=np.int64)
    edge_probs = graph.edge_probabilities(list(graph.tags[:2]))
    with obs.observe():
        engine = SamplingEngine(
            mode="bitparallel", workers=2, parallel_threshold=4096,
            shard_size=64,
        )
        engine.sample_rr_sets(graph, target_arr, edge_probs, 50, rng=0)
        below = obs.current_registry().value(
            "engine.parallel_fallbacks.below_threshold", 0
        )
        assert engine.telemetry.parallel_fallbacks == 1
        engine.close()
    assert below == 1


# ---------------------------------------------------------------------------
# SharedCSR / SharedProbs lifecycle
# ---------------------------------------------------------------------------


def test_shared_csr_roundtrip_and_unlink(small_yelp):
    graph = small_yelp.graph
    before = shared_csr.active_tokens()
    shared = SharedCSR(graph)
    assert shared.backend == "shm"
    view = shared.handle.attach()
    assert view.num_nodes == graph.num_nodes
    assert view.num_edges == graph.num_edges
    np.testing.assert_array_equal(view.src, graph.src)
    np.testing.assert_array_equal(view.dst, graph.dst)
    for mine, theirs in zip(view.reverse_csr(), graph.reverse_csr()):
        np.testing.assert_array_equal(mine, theirs)
    for mine, theirs in zip(view.forward_csr(), graph.forward_csr()):
        np.testing.assert_array_equal(mine, theirs)
    with pytest.raises(ValueError):
        view.src[0] = 1  # views are read-only
    shared.unlink()
    shared.unlink()  # idempotent
    assert shared_csr.active_tokens() == before


def test_shared_csr_handle_is_small(small_yelp):
    import pickle

    shared = SharedCSR(small_yelp.graph)
    try:
        blob = pickle.dumps(shared.handle)
        # The whole point: the handle's size is independent of the graph.
        assert len(blob) < 2048
    finally:
        shared.unlink()


def test_shared_probs_fetch_is_private_copy(small_yelp):
    graph = small_yelp.graph
    edge_probs = graph.edge_probabilities(list(graph.tags[:2]))
    shared = SharedProbs(edge_probs)
    fetched = shared.handle.fetch()
    np.testing.assert_array_equal(fetched, edge_probs)
    shared.unlink()
    # An owned copy stays valid after the backing store is gone.
    np.testing.assert_array_equal(fetched, edge_probs)
    assert fetched.flags.owndata or fetched.base is None


def test_memmap_spill_roundtrip(tmp_path):
    arrays = {
        "a": np.arange(100, dtype=np.int64),
        "b": np.linspace(0.0, 1.0, 33),
    }
    pack = SharedArrayPack(arrays, spill_dir=str(tmp_path), spill_threshold=0)
    assert pack.backend == "mmap"
    token = pack.token
    # Evict the creator-side cache so attach() exercises a real re-map.
    shared_csr._evict("mmap", token)
    views = pack.handle.attach()
    np.testing.assert_array_equal(views["a"], arrays["a"])
    np.testing.assert_array_equal(views["b"], arrays["b"])
    copies = pack.handle.fetch_copy()
    np.testing.assert_array_equal(copies["a"], arrays["a"])
    shared_csr._evict("mmap", token)
    pack.unlink()
    assert token not in shared_csr.active_tokens()
    import os

    assert not os.path.exists(token)


def test_engine_close_unlinks_shared_segments(small_yelp):
    graph = small_yelp.graph
    target_arr = np.arange(20, dtype=np.int64)
    edge_probs = graph.edge_probabilities(list(graph.tags[:2]))
    before = shared_csr.active_tokens()
    engine = SamplingEngine(
        mode="bitparallel", workers=2, shard_size=64, parallel_threshold=0
    )
    engine.sample_rr_sets(graph, target_arr, edge_probs, 130, rng=5)
    assert len(shared_csr.active_tokens()) > len(before)
    engine.close()
    assert shared_csr.active_tokens() == before


def test_query_views_share_one_segment(small_yelp):
    graph = small_yelp.graph
    target_arr = np.arange(20, dtype=np.int64)
    edge_probs = graph.edge_probabilities(list(graph.tags[:2]))
    engine = SamplingEngine(
        mode="bitparallel", workers=2, shard_size=64, parallel_threshold=0
    )
    try:
        a = engine.for_query()
        b = engine.for_query()
        a.sample_rr_sets(graph, target_arr, edge_probs, 130, rng=1)
        b.sample_rr_sets(graph, target_arr, edge_probs, 130, rng=2)
        assert len(engine._shared_graphs) == 1
    finally:
        engine.close()
    assert not engine._shared_graphs
