"""The greedy cover memoized on a cached sketch.

``trs_select_from_sketch`` computes a sketch's cover once per
``(k, num_nodes)`` and stores it on the sketch; later reads look it up.
These tests pin down when a memo may answer and when it must not:

* a repaired sketch is a new object and never answers with its
  parent's cover (repair == cold rebuild still holds after a read);
* a cleanly promoted sketch is the same object and keeps its cover;
* a ``stale_only`` read at another ``k`` gets that ``k``'s own cover;
* concurrent first reads agree on seeds, spread and counters, and a
  memo hit reports the same work counters and span as a computed cover.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro import obs
from repro.core.joint import JointConfig
from repro.graphs import MutableTagGraph, TagGraphBuilder, TagSet
from repro.serve import CampaignServer, canonical_tags
from repro.serve.qos import QosConfig
from repro.sketch import (
    TRSSketch,
    build_repairable_sketch,
    greedy_max_coverage,
    trs_build_sketch,
    trs_select_from_sketch,
)
from repro.sketch import trs as trs_module
from repro.sketch.theta import SketchConfig
from tests.test_mutable_differential import TAGS

SMALL_SKETCH = SketchConfig(theta_min=64, theta_max=256, pilot_samples=60)
STALE_ALWAYS = QosConfig(shed_threshold=1e-6, stale_threshold=1e-6)
WAIT = 120.0
N = 40
TARGETS = list(range(0, N, 2))


def tailed_graph(seed: int):
    """Random three-tag graph on ``N`` nodes plus a tail ``N -> N+1 -> N+2``.

    No node of the random part is reachable from the tail's heads, so no
    RR set rooted at a target contains ``N + 1``: an edit to the first
    tail edge dirties no set of any sketch over ``TARGETS``.
    """
    rng = np.random.default_rng(seed)
    builder = TagGraphBuilder(N + 3)
    added = set()
    while len(added) < 4 * N:
        u, v = (int(x) for x in rng.integers(0, N, 2))
        if u == v or (u, v) in added:
            continue
        added.add((u, v))
        for tag in TAGS:
            if rng.random() < 0.6:
                builder.add(u, v, tag, float(rng.uniform(0.05, 0.6)))
    builder.add(N, N + 1, TAGS[0], 0.5)
    builder.add(N + 1, N + 2, TAGS[0], 0.5)
    return builder.build()


def edge_id(graph, src: int, dst: int) -> int:
    return int(np.flatnonzero((graph.src == src) & (graph.dst == dst))[0])


def _select(graph, sketch, k):
    """One observed selection: (seeds, spread, counters, span names)."""
    with obs.observe() as ob:
        result = trs_select_from_sketch(graph, sketch, k)
    spans = [span["name"] for span in result.report["trace"]]
    return (
        result.seeds, result.estimated_spread,
        ob.metrics.as_dict()["counters"], spans,
    )


@pytest.fixture
def cover_calls(monkeypatch):
    """Count the greedy covers ``trs_select_from_sketch`` computes."""
    calls = []
    real = trs_module.greedy_max_coverage

    def counting(*args, **kwargs):
        calls.append(args[1])
        return real(*args, **kwargs)

    monkeypatch.setattr(trs_module, "greedy_max_coverage", counting)
    return calls


@pytest.mark.parametrize("mode", ["scalar", "bitparallel"])
def test_repaired_sketch_never_answers_with_parents_cover(mode, cover_calls):
    graph = tailed_graph(3)
    probs = graph.edge_probabilities(TAGS)
    sketch = build_repairable_sketch(
        graph, TARGETS, probs, 300, seed=11, mode=mode, shard_size=128,
    )
    before = trs_select_from_sketch(graph, sketch, 3)
    assert trs_select_from_sketch(graph, sketch, 3).seeds == before.seeds
    assert len(cover_calls) == 1  # the second read hit the memo

    # Make every edge into a target certain: the sets rooted there grow.
    mutable = MutableTagGraph(graph)
    into_targets = np.flatnonzero(np.isin(graph.dst, TARGETS)).tolist()
    mutable.apply([TagSet(edge_id=e, tag=TAGS[1], prob=1.0)
                   for e in into_targets])
    snap = mutable.snapshot()
    snap_probs = snap.edge_probabilities(TAGS)
    repaired, stats = sketch.repair(snap, snap_probs, mutable.dirty_edges(0))
    assert stats["dirty_sets"] > 0

    got = trs_select_from_sketch(snap, repaired, 3)
    rebuilt = sketch.cold_rebuild(snap, snap_probs)
    cold = trs_select_from_sketch(snap, rebuilt, 3)
    assert got.seeds == cold.seeds
    assert got.estimated_spread == cold.estimated_spread
    # The edit moved the answer, so a leaked parent memo would show.
    assert got.estimated_spread != before.estimated_spread
    # The parent still answers from its own, untouched memo.
    again = trs_select_from_sketch(graph, sketch, 3)
    assert (again.seeds, again.estimated_spread) == (
        before.seeds, before.estimated_spread
    )


def _mutable_server(graph):
    return CampaignServer(
        graph, config=JointConfig(sketch=SMALL_SKETCH), mutable=True,
        pool_size=2,
    )


def test_promoted_asset_keeps_its_cover(cover_calls):
    graph = tailed_graph(4)
    with _mutable_server(graph) as server:
        cold = server.find_seeds(TARGETS, list(TAGS), 3, engine="trs", seed=5)
        assert cold.cache == "miss"
        assert len(cover_calls) == 1
        summary = server.apply_edits(
            [TagSet(edge_id=edge_id(graph, N, N + 1), tag=TAGS[0], prob=0.9)]
        )
        assert summary["assets"]["promoted"] == 1
        assert summary["assets"]["repaired"] == 0
        warm = server.find_seeds(TARGETS, list(TAGS), 3, engine="trs", seed=5)
        (key,) = server._cache.keys_snapshot()
        sketch = server._cache.peek(key).value
    assert warm.cache == "hit"
    assert warm.epoch == 1
    assert len(cover_calls) == 1  # the promoted sketch kept its cover
    assert warm.value.seeds == cold.value.seeds
    assert warm.value.estimated_spread == cold.value.estimated_spread
    fresh = greedy_max_coverage(sketch.rr_sets, 3, graph.num_nodes)
    assert warm.value.seeds == fresh.seeds


def test_dirty_edit_recomputes_the_cover(cover_calls):
    graph = tailed_graph(4)
    with _mutable_server(graph) as server:
        server.find_seeds(TARGETS, list(TAGS), 3, engine="trs", seed=5)
        into_target = int(np.flatnonzero(graph.dst == TARGETS[0])[0])
        summary = server.apply_edits(
            [TagSet(edge_id=into_target, tag=TAGS[2], prob=1.0)]
        )
        assert summary["assets"]["repaired"] == 1
        warm = server.find_seeds(TARGETS, list(TAGS), 3, engine="trs", seed=5)
        (key,) = server._cache.keys_snapshot()
        sketch = server._cache.peek(key).value
    assert warm.cache == "hit"
    assert len(cover_calls) == 2  # the repaired sketch covered afresh
    fresh = greedy_max_coverage(sketch.rr_sets, 3, graph.num_nodes)
    assert warm.value.seeds == fresh.seeds
    assert warm.value.estimated_spread == fresh.spread_estimate(len(TARGETS))


def test_stale_only_hit_at_other_k_gets_its_own_cover(cover_calls):
    graph = tailed_graph(5)
    tags = canonical_tags(TAGS)
    with CampaignServer(
        graph, config=JointConfig(sketch=SMALL_SKETCH), qos=STALE_ALWAYS,
        pool_size=2,
    ) as server:
        warm = server.submit_find_seeds(
            TARGETS, tags, 2, engine="trs", seed=0,
        ).result(timeout=WAIT)
        stale = [
            server.submit_find_seeds(
                TARGETS, tags, 4, engine="trs", seed=0,
                qos_class="best_effort",
            ).result(timeout=WAIT)
            for _ in range(2)
        ]
        exact = server.submit_find_seeds(
            TARGETS, tags, 2, engine="trs", seed=0, qos_class="best_effort",
        ).result(timeout=WAIT)
        (key,) = server._cache.keys_snapshot()
        sketch = server._cache.peek(key).value
    fresh = greedy_max_coverage(sketch.rr_sets, 4, graph.num_nodes)
    for resp in stale:
        assert resp.tier == "stale"
        assert resp.value.seeds == fresh.seeds
        assert resp.value.estimated_spread == fresh.spread_estimate(
            len(TARGETS)
        )
    assert len(fresh.seeds) == 4 != len(warm.value.seeds)
    # One cover per k: k=2 at build, k=4 on the first stale read.
    assert cover_calls == [2, 4]
    assert exact.tier == "full"
    assert exact.value.seeds == warm.value.seeds


def test_concurrent_first_reads_agree():
    graph = tailed_graph(6)
    sketch = trs_build_sketch(
        graph, TARGETS, TAGS, 3, config=SMALL_SKETCH, rng=9
    )
    twin = TRSSketch(
        rr_sets=sketch.rr_sets, theta=sketch.theta,
        opt_t_estimate=sketch.opt_t_estimate,
        num_targets=sketch.num_targets,
    )
    computed = _select(graph, twin, 3)
    assert computed[2] == {"coverage.gain_evaluations": 3}
    assert computed[3] == ["trs.cover"]

    barrier = threading.Barrier(8)
    results = [None] * 8

    def read(slot: int) -> None:
        barrier.wait()
        results[slot] = _select(graph, sketch, 3)

    threads = [threading.Thread(target=read, args=(i,)) for i in range(8)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=WAIT)
    assert all(r == computed for r in results)
    # A memo hit reports exactly what the computed cover reported.
    assert _select(graph, sketch, 3) == computed
