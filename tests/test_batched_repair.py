"""Batched bit-parallel repair: one kernel pass per shard over dirty lanes.

Bit-parallel repair replays only the dirty samples of each shard through
the same RR kernel that built them (:func:`repro.engine.bitworld.
bit_rr_replay`); the lanes left out are ghost lanes that never get a
bit. These properties pin that down on small random graphs with a
small ``shard_size``, so every sketch has several shards and ragged
tail blocks:

* kernel level — replaying any subset of a shard's samples equals
  those rows of the full :func:`~repro.engine.bitworld.bit_rr_members`
  run, for a single lane, a full 64-lane block, lanes scattered across
  blocks, and every lane;
* sketch level — the same lane patterns resampled on an edited graph
  equal the matching rows of a cold rebuild, and ``repair`` after
  random ``edge_add`` (within capacity) / ``edge_remove`` / ``tag_set``
  batches equals ``cold_rebuild`` bit for bit.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import bitworld
from repro.graphs import (
    EdgeAdd,
    EdgeRemove,
    MutableTagGraph,
    TagGraphBuilder,
    TagSet,
)
from repro.sketch import build_repairable_sketch
from repro.utils.mathx import stable_argsort

TAGS = ("alpha", "beta")
SHARD_SIZE = 100
PATTERNS = ("single", "block", "scattered", "all")


def random_graph(rng: np.random.Generator, n: int, m: int):
    """Random two-tag graph; every edge carries at least one tag."""
    builder = TagGraphBuilder(n)
    seen = set()
    m = min(m, n * (n - 1))
    while len(seen) < m:
        u, v = (int(x) for x in rng.integers(0, n, 2))
        if u == v or (u, v) in seen:
            continue
        seen.add((u, v))
        tags = [t for t in TAGS if rng.random() < 0.6] or [TAGS[0]]
        for tag in tags:
            builder.add(u, v, tag, float(rng.uniform(0.1, 0.9)))
    return builder.build()


def lane_pattern(
    roots: np.ndarray, num_nodes: int, pattern: str,
    rng: np.random.Generator,
) -> np.ndarray:
    """Ascending sample ids whose slots form one dirty-lane pattern."""
    count = roots.size
    if pattern == "all":
        return np.arange(count, dtype=np.int64)
    if pattern == "single":
        return np.array([int(rng.integers(count))], dtype=np.int64)
    slot_order = stable_argsort(roots, num_nodes)  # slot -> sample id
    if pattern == "block":
        full_blocks = count // 64
        block = int(rng.integers(full_blocks)) if full_blocks else 0
        slots = np.arange(block * 64, min(block * 64 + 64, count))
    else:  # scattered: a few lanes from different blocks
        slots = np.arange(int(rng.integers(min(5, count))), count, 37)
    return np.sort(slot_order[slots]).astype(np.int64)


def shard_roots(sketch, shard_idx: int) -> np.ndarray:
    return np.asarray(sketch.shards[shard_idx].roots, dtype=np.int64)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    num_samples=st.integers(1, 300),
    pattern=st.sampled_from(PATTERNS),
)
def test_replay_subset_equals_full_run_rows(seed, num_samples, pattern):
    rng = np.random.default_rng(seed)
    graph = random_graph(rng, n=int(rng.integers(6, 30)),
                         m=int(rng.integers(8, 60)))
    probs = graph.edge_probabilities(TAGS)
    rev_indptr, rev_edges = graph.reverse_csr()
    live_indptr, live_edges = bitworld.live_csr(rev_indptr, rev_edges, probs)
    thr53 = bitworld.coin_thresholds(probs)
    roots = rng.integers(0, min(4, graph.num_nodes), size=num_samples)
    key = int(rng.integers(2**62))
    members, indptr = bitworld.bit_rr_members(
        graph.num_nodes, graph.num_edges, live_indptr, live_edges,
        graph.src, roots, thr53, key,
    )
    gather = bitworld.RRGather(
        graph.num_nodes, graph.num_edges, live_indptr, live_edges,
        graph.src, thr53, num_samples,
    )
    samples = lane_pattern(roots, graph.num_nodes, pattern, rng)
    sub_members, sub_indptr = bitworld.bit_rr_replay(
        gather, roots, key, samples
    )
    assert sub_indptr.size == samples.size + 1
    want = [members[indptr[s]:indptr[s + 1]] for s in samples.tolist()]
    np.testing.assert_array_equal(
        np.diff(sub_indptr), [w.size for w in want]
    )
    np.testing.assert_array_equal(sub_members, np.concatenate(want))


def edit_batch(graph, rng: np.random.Generator) -> list:
    """A few valid edge_add / edge_remove / tag_set edits."""
    edits, removed = [], set()
    for _ in range(int(rng.integers(1, 5))):
        roll = rng.random()
        if roll < 0.3:
            u, v = (int(x) for x in rng.integers(0, graph.num_nodes, 2))
            edits.append(EdgeAdd(src=u, dst=v, tag_probs={
                TAGS[0]: float(rng.uniform(0.1, 0.9))
            }))
            continue
        eid = int(rng.integers(graph.num_edges))
        if eid in removed:
            continue
        if roll < 0.55:
            removed.add(eid)
            edits.append(EdgeRemove(edge_id=eid))
        else:
            edits.append(TagSet(edge_id=eid, tag=str(rng.choice(TAGS)),
                                prob=float(rng.uniform(0.05, 1.0))))
    return edits


def edited(graph, rng):
    """Apply one random batch; return (snapshot, probs, dirty edges)."""
    mutable = MutableTagGraph(graph)
    mutable.apply(edit_batch(graph, rng))
    snap = mutable.snapshot()
    return snap, snap.edge_probabilities(TAGS), mutable.dirty_edges(0)


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    theta=st.integers(101, 450),
    pattern=st.sampled_from(PATTERNS),
)
def test_resampled_lanes_equal_cold_rebuild_rows(seed, theta, pattern):
    rng = np.random.default_rng(seed)
    graph = random_graph(rng, n=int(rng.integers(8, 30)),
                         m=int(rng.integers(12, 70)))
    targets = np.arange(0, graph.num_nodes, 3)
    sketch = build_repairable_sketch(
        graph, targets, graph.edge_probabilities(TAGS), theta, seed=seed,
        mode="bitparallel", shard_size=SHARD_SIZE,
    )
    assert len(sketch.shards) >= 2
    snap, probs, _dirty = edited(graph, rng)
    rebuilt = sketch.cold_rebuild(snap, probs)
    # The pattern is drawn inside each shard so block/lane layouts of
    # ragged tails are exercised too.
    set_ids = np.concatenate([
        shard.start + lane_pattern(
            shard_roots(sketch, i), graph.num_nodes, pattern, rng
        )
        for i, shard in enumerate(sketch.shards)
    ])
    resampled = sketch._resample_bitparallel(snap, probs, set_ids)
    assert resampled.num_sets == set_ids.size
    for row, sid in enumerate(set_ids.tolist()):
        np.testing.assert_array_equal(resampled[row], rebuilt.rr[sid])


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    theta=st.integers(101, 450),
    every_set=st.booleans(),
)
def test_repair_equals_cold_rebuild(seed, theta, every_set):
    rng = np.random.default_rng(seed)
    graph = random_graph(rng, n=int(rng.integers(8, 30)),
                         m=int(rng.integers(12, 70)))
    # Roots with an in-edge, so an all-edges batch dirties every set.
    targets = np.unique(graph.dst)[::2]
    sketch = build_repairable_sketch(
        graph, targets, graph.edge_probabilities(TAGS), theta, seed=seed,
        mode="bitparallel", shard_size=SHARD_SIZE,
    )
    snap, probs, dirty = edited(graph, rng)
    if every_set:
        dirty = np.arange(snap.num_edges)  # every node dirty: every set
    repaired, stats = sketch.repair(snap, probs, dirty)
    rebuilt = sketch.cold_rebuild(snap, probs)
    if every_set:
        assert stats["dirty_sets"] == theta
    assert repaired.theta == rebuilt.theta
    np.testing.assert_array_equal(repaired.rr.indptr, rebuilt.rr.indptr)
    np.testing.assert_array_equal(repaired.rr.members, rebuilt.rr.members)
