"""Batched bit-parallel repair: one kernel pass over every dirty lane.

Bit-parallel repair replays only the dirty samples of each shard through
the same RR kernel that built them (:func:`repro.engine.bitworld.
bit_rr_pass`); the lanes left out are ghost lanes that never get a
bit, and one pass carries the dirty lanes of every shard of every
sketch an edit batch dirties. These properties pin that down on small
random graphs with a small ``shard_size``, so every sketch has several
shards and ragged tail blocks:

* kernel level — replaying any subset of a shard's samples equals
  those rows of the full :func:`~repro.engine.bitworld.bit_rr_members`
  run, for a single lane, a full 64-lane block, lanes scattered across
  blocks, and every lane;
* sketch level — the same lane patterns resampled on an edited graph
  equal the matching rows of a cold rebuild, and ``repair`` after
  random ``edge_add`` (within capacity) / ``edge_remove`` / ``tag_set``
  batches equals ``cold_rebuild`` bit for bit;
* one pass over several sketches — different tag sets, targets, θ,
  shard sizes and edge capacities, with single, scattered and full
  lane patterns — equals each shard replayed alone under its own key,
  the scalar fixed-world oracle and the cold rebuilds, and a sketch
  past its edge capacity fails alone;
* serving — an edit batch dirtying four resident sketches makes
  exactly one kernel pass and every repaired sketch equals its cold
  rebuild; a capacity-overflowed sketch in the same batch is dropped
  while the others repair.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.joint import JointConfig
from repro.engine import bitworld
from repro.graphs import (
    EdgeAdd,
    EdgeRemove,
    MutableTagGraph,
    TagGraphBuilder,
    TagSet,
)
from repro.serve.server import CampaignServer
from repro.sketch import (
    SketchCapacityError,
    SketchConfig,
    build_repairable_sketch,
    incremental,
    repair_sketches,
    rr_set_from_edge_mask,
    trs_select_from_sketch,
)
from repro.utils.mathx import stable_argsort
from tests.test_mutable_differential import make_graph

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


# ----------------------------------------------------------------------
# One kernel pass over several sketches (repro.sketch.repair_sketches)
# ----------------------------------------------------------------------
TAG_SETS = (("alpha",), ("beta",), ("alpha", "beta"))
BATCH_PATTERNS = ("single", "scattered", "all")


def stream_rows(snap, sketch, probs, shard_idx, samples):
    """One shard's samples replayed alone, under its own key and stride."""
    rev_indptr, rev_edges = snap.reverse_csr()
    live_indptr, live_edges = bitworld.live_csr(rev_indptr, rev_edges, probs)
    shard = sketch.shards[shard_idx]
    gather = bitworld.RRGather(
        snap.num_nodes, sketch.edge_capacity, live_indptr, live_edges,
        snap.src, bitworld.coin_thresholds(probs), shard.count,
    )
    members, indptr = bitworld.bit_rr_replay(
        gather, shard_roots(sketch, shard_idx), shard.key, samples
    )
    return [members[indptr[i]:indptr[i + 1]] for i in range(samples.size)]


def oracle_row(snap, sketch, probs, set_id):
    """Scalar fixed-world oracle of one stored set, as a sorted array."""
    starts = [s.start for s in sketch.shards]
    shard_idx = int(np.searchsorted(starts, set_id, side="right")) - 1
    shard = sketch.shards[shard_idx]
    roots = shard_roots(sketch, shard_idx)
    local = set_id - shard.start
    block, lane = bitworld.rr_world_of_sample(roots, local, snap.num_nodes)
    thr = np.zeros(sketch.edge_capacity, dtype=np.uint64)
    thr[:snap.num_edges] = bitworld.coin_thresholds(probs)
    mask = bitworld.world_edge_mask(
        sketch.edge_capacity, thr, shard.key, block, lane
    )[:snap.num_edges]
    return np.sort(rr_set_from_edge_mask(snap, int(roots[local]), mask))


def grown(graph, rng: np.random.Generator, extra: int):
    """Apply tag updates plus ``extra`` new edges; return the snapshot."""
    mutable = MutableTagGraph(graph)
    edits = [
        TagSet(edge_id=int(e), tag=str(rng.choice(TAGS)),
               prob=float(rng.uniform(0.05, 1.0)))
        for e in rng.choice(graph.num_edges, size=3, replace=False)
    ]
    for _ in range(extra):
        u, v = (int(x) for x in rng.integers(0, graph.num_nodes, 2))
        edits.append(EdgeAdd(src=u, dst=v, tag_probs={
            tag: float(rng.uniform(0.1, 0.9)) for tag in TAGS
        }))
    mutable.apply(edits)
    return mutable.snapshot(), mutable.dirty_edges(0)


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    num_sketches=st.integers(2, 4),
    pattern=st.sampled_from(BATCH_PATTERNS),
)
def test_one_pass_equals_per_stream_replays(seed, num_sketches, pattern):
    """Dirty lanes of several sketches share one pass, coins unchanged.

    The sketches differ in tag set (threshold row and live edges),
    targets, θ and shard size (shard counts, ragged tail blocks) and
    frozen edge capacity (coin stride). Every resampled row must equal
    the same shard replayed alone under its own key, the scalar
    fixed-world oracle, and the cold rebuild.
    """
    rng = np.random.default_rng(seed)
    graph = random_graph(rng, n=int(rng.integers(8, 30)),
                         m=int(rng.integers(12, 70)))
    sketches = []
    for i in range(num_sketches):
        tags = TAG_SETS[i % len(TAG_SETS)]
        targets = np.unique(rng.integers(0, graph.num_nodes, 4))
        sketches.append((tags, build_repairable_sketch(
            graph, targets, graph.edge_probabilities(tags),
            int(rng.integers(40, 330)), seed=int(rng.integers(2**31)),
            mode="bitparallel", shard_size=int(rng.choice([64, 100, 150])),
            edge_capacity=graph.num_edges + int(rng.integers(4, 200)),
        )))
    snap, _dirty = grown(graph, rng, extra=3)
    items = []
    for tags, sketch in sketches:
        probs = snap.edge_probabilities(tags)
        set_ids = np.concatenate([
            shard.start + lane_pattern(
                shard_roots(sketch, i), graph.num_nodes, pattern, rng
            )
            for i, shard in enumerate(sketch.shards)
        ])
        items.append((sketch, probs, set_ids))
    resampled = incremental._replay_dirty(snap, items)
    for (sketch, probs, set_ids), got in zip(items, resampled):
        assert got.num_sets == set_ids.size
        rebuilt = sketch.cold_rebuild(snap, probs)
        starts = np.array([s.start for s in sketch.shards])
        owner = np.searchsorted(starts, set_ids, side="right") - 1
        want = []
        for shard_idx in np.unique(owner).tolist():
            local = set_ids[owner == shard_idx] - starts[shard_idx]
            want.extend(stream_rows(snap, sketch, probs, shard_idx, local))
        for row, sid in enumerate(set_ids.tolist()):
            np.testing.assert_array_equal(got[row], want[row])
            np.testing.assert_array_equal(got[row], rebuilt.rr[sid])
        for sid in set_ids[:: max(1, set_ids.size // 3)].tolist():
            np.testing.assert_array_equal(
                np.sort(rebuilt.rr[sid]), oracle_row(snap, sketch, probs, sid)
            )


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), num_sketches=st.integers(2, 4))
def test_repair_sketches_equals_cold_rebuilds(seed, num_sketches):
    """A batch repair equals each sketch's cold rebuild, and its stats
    match the one-item ``repair``."""
    rng = np.random.default_rng(seed)
    graph = random_graph(rng, n=int(rng.integers(8, 30)),
                         m=int(rng.integers(12, 70)))
    sketches = [
        (TAG_SETS[i % len(TAG_SETS)], build_repairable_sketch(
            graph, np.unique(graph.dst)[i::2],
            graph.edge_probabilities(TAG_SETS[i % len(TAG_SETS)]),
            int(rng.integers(101, 400)), seed=i, mode="bitparallel",
            shard_size=SHARD_SIZE,
        ))
        for i in range(num_sketches)
    ]
    snap, dirty = grown(graph, rng, extra=2)
    items = [(s, snap.edge_probabilities(t), None) for t, s in sketches]
    results = repair_sketches(snap, dirty, items)
    for (sketch, probs, _ids), (repaired, stats) in zip(items, results):
        rebuilt = sketch.cold_rebuild(snap, probs)
        np.testing.assert_array_equal(repaired.rr.indptr, rebuilt.rr.indptr)
        np.testing.assert_array_equal(repaired.rr.members, rebuilt.rr.members)
        alone, alone_stats = sketch.repair(snap, probs, dirty)
        assert stats == alone_stats
        np.testing.assert_array_equal(alone.rr.members, repaired.rr.members)


def test_repair_sketches_isolates_a_capacity_failure():
    rng = np.random.default_rng(5)
    graph = random_graph(rng, n=20, m=50)
    probs = graph.edge_probabilities(TAGS)
    tight = build_repairable_sketch(
        graph, np.unique(graph.dst), probs, 200, seed=1,
        mode="bitparallel", shard_size=SHARD_SIZE,
        edge_capacity=graph.num_edges + 1,
    )
    roomy = build_repairable_sketch(
        graph, np.unique(graph.dst), probs, 200, seed=2,
        mode="bitparallel", shard_size=SHARD_SIZE,
    )
    snap, dirty = grown(graph, rng, extra=3)
    snap_probs = snap.edge_probabilities(TAGS)
    failed, (repaired, _stats) = repair_sketches(
        snap, dirty, [(tight, snap_probs, None), (roomy, snap_probs, None)]
    )
    assert isinstance(failed, SketchCapacityError)
    rebuilt = roomy.cold_rebuild(snap, snap_probs)
    np.testing.assert_array_equal(repaired.rr.members, rebuilt.rr.members)
    np.testing.assert_array_equal(repaired.rr.indptr, rebuilt.rr.indptr)


# ----------------------------------------------------------------------
# Serving: one kernel pass per edit batch
# ----------------------------------------------------------------------
SERVE_SKETCH = SketchConfig(theta_min=64, theta_max=256, pilot_samples=60)
SERVE_TAGS = (["alpha"], ["beta"], ["alpha", "gamma"], ["beta", "gamma"])


def serve_graph():
    rng = np.random.default_rng(11)
    return make_graph(rng, n=40, m=160)


def resident(server) -> dict:
    """Resident sketches by cache key."""
    return {
        key: server._cache.peek(key).value
        for key in server._cache.keys_snapshot()
    }


def campaigns_around(graph, target: int, count: int) -> list[list[int]]:
    """``count`` distinct small target sets that all hold ``target``."""
    others = [v for v in range(graph.num_nodes) if v != target]
    return [sorted([target] + others[3 * i:3 * i + 3]) for i in range(count)]


def in_edge_edits(graph, target: int) -> list:
    """Tag updates on every in-edge of ``target``: dirties every set
    rooted there, in every sketch whose targets hold it."""
    rev_indptr, rev_edges = graph.reverse_csr()
    return [
        TagSet(edge_id=int(e), tag=tag, prob=0.5)
        for e in rev_edges[rev_indptr[target]:rev_indptr[target + 1]]
        for tag in ("alpha", "beta", "gamma")
    ]


def assert_repaired_equals_cold(server, before: dict, snap) -> None:
    for key, sketch in before.items():
        repaired = server._cache.peek(key._replace(epoch=key.epoch + 1))
        assert repaired is not None, key
        probs = snap.edge_probabilities(key.tags)
        rebuilt = sketch.cold_rebuild(snap, probs)
        np.testing.assert_array_equal(
            repaired.value.rr.members, rebuilt.rr.members
        )
        np.testing.assert_array_equal(
            repaired.value.rr.indptr, rebuilt.rr.indptr
        )


def test_edit_batch_repairs_every_sketch_in_one_pass():
    graph = serve_graph()
    target = int(np.argmax(np.bincount(graph.dst, minlength=graph.num_nodes)))
    campaigns = list(zip(campaigns_around(graph, target, 4), SERVE_TAGS))
    with CampaignServer(
        graph, config=JointConfig(sketch=SERVE_SKETCH), mutable=True,
        pool_size=1, repair_mode="bitparallel",
    ) as server:
        # Distinct seeds give each sketch its own stream keys.
        for seed, (targets, tags) in enumerate(campaigns):
            server.find_seeds(targets, tags, 3, engine="trs", seed=seed)
        before = resident(server)
        assert len(before) == 4
        with mock.patch.object(
            incremental, "bit_rr_pass", wraps=incremental.bit_rr_pass
        ) as kernel:
            summary = server.apply_edits(in_edge_edits(graph, target))
        assert kernel.call_count == 1
        assert summary["assets"]["repaired"] == 4
        snap = server.mutable_graph.snapshot()
        assert_repaired_equals_cold(server, before, snap)
        for seed, ((targets, tags), sketch) in enumerate(
            zip(campaigns, before.values())
        ):
            post = server.find_seeds(
                targets, tags, 3, engine="trs", seed=seed
            )
            cold = sketch.cold_rebuild(snap, snap.edge_probabilities(tags))
            assert post.epoch == 1
            assert post.seeds == trs_select_from_sketch(snap, cold, 3).seeds


def test_capacity_overflow_drops_one_sketch_and_repairs_the_rest():
    graph = serve_graph()
    target = int(np.argmax(np.bincount(graph.dst, minlength=graph.num_nodes)))
    old, *new = list(zip(campaigns_around(graph, target, 3), SERVE_TAGS))
    rng = np.random.default_rng(3)

    def edge_adds(count):
        return [
            EdgeAdd(src=int(u), dst=target,
                    tag_probs={"alpha": 0.3, "beta": 0.3, "gamma": 0.3})
            for u in rng.integers(0, graph.num_nodes, count)
        ]

    with CampaignServer(
        graph, config=JointConfig(sketch=SERVE_SKETCH), mutable=True,
        pool_size=1, repair_mode="bitparallel",
    ) as server:
        # The old campaign's sketch freezes m + 64 edges; growing by 40
        # keeps it repairable, then the new campaigns freeze m + 104.
        server.find_seeds(old[0], old[1], 3, engine="trs", seed=7)
        (old_key, old_sketch), = resident(server).items()
        server.apply_edits(edge_adds(40))
        for seed, (targets, tags) in enumerate(new, start=8):
            server.find_seeds(targets, tags, 3, engine="trs", seed=seed)
        before = {
            key: sketch for key, sketch in resident(server).items()
            if key.tags != old_key.tags
        }
        assert len(before) == 2
        # 30 more edges pass the old sketch's capacity only.
        summary = server.apply_edits(edge_adds(30))
        assert old_sketch.edge_capacity < graph.num_edges + 70
        assert summary["assets"]["dropped"] == 1
        assert summary["assets"]["repaired"] == 2
        assert all(key.tags != old_key.tags for key in resident(server))
        snap = server.mutable_graph.snapshot()
        assert_repaired_equals_cold(server, before, snap)
        post = server.find_seeds(old[0], old[1], 3, engine="trs", seed=7)
        assert post.epoch == 2
