"""Microbenchmarks of the hot primitives (multi-round pytest-benchmark).

Unlike the experiment benches (one pedantic round each, table output),
these measure the throughput-critical inner operations with proper
statistics: IC cascade simulation, RR-set sampling, working-graph
union + deterministic reverse BFS, path enumeration, and combined
edge-probability aggregation. Useful for tracking performance
regressions of the substrate itself.

Two of them time Algorithm 1's kernels on the shape of the
``tag-select`` benchmark workload (yelp-0.5, a 25-node target ball,
3 upstream seeds, ``max_queue=1500``, exact enumeration up to 10
edges): the capped path sweep of ``collect_paths`` and one exact
path-set spread over 10 active edges. ``test_micro_indexed_rr`` times
Algorithm 2's LL-TRS seed-step traversal on the same ball (θ=1000
working graphs over r=2 tags): the scalar loop, one working-graph mask
and one Python BFS per RR set, against the 64-lane indexed kernel.

``test_micro_serve_hit`` and ``test_micro_fleet_read`` time one cached
TRS ``find_seeds`` read through the wire protocol (``handle_line``):
against an in-process ``CampaignServer`` and through a 1-worker
``ShardedCampaignService``. A hit does no cover work, so both measure
the serving plumbing around a memoized lookup.

``test_micro_edit_batch`` times one in-process ``apply_edits`` on the
shape of the ``edit-fleet`` benchmark workload (twitter-1.0, 12
resident bit-parallel repairable campaigns, 2-edit batches on target
in-edges): the snapshot, the asset triage and the one-pass repair of
every dirty sketch, without the fleet's pipes.
"""

from __future__ import annotations

import json
from dataclasses import replace

import numpy as np
import pytest

from benchmarks._harness import SKETCH, dataset
from repro.core.initialization import frequency_tags
from repro.core.joint import JointConfig
from repro.datasets import bfs_targets
from repro.diffusion import simulate_cascade
from repro.engine import SamplingEngine
from repro.graphs import MutableTagGraph, TagSet
from repro.index import make_lltrs_manager, make_ltrs_manager, theta_c
from repro.index.itrs import sample_indexed_rr_sets
from repro.serve import CampaignServer, ShardedCampaignService, WorkerSpec
from repro.serve.protocol import handle_line
from repro.sketch import SketchConfig, reverse_reachable_set
from tests.test_indexed_kernel import hybrid_rr_set
from repro.tags import (
    PathSpreadEvaluator,
    TagSelectionConfig,
    collect_paths,
    top_paths_from_seed,
)

#: Algorithm 1's knobs in the ``tag-select`` benchmark workload.
TAG_SELECT = TagSelectionConfig(
    per_pair_paths=3, max_path_targets=20, max_queue=1500,
    exact_edge_limit=10,
)


def _setup():
    data = dataset("twitter")
    graph = data.graph
    targets = bfs_targets(graph, 60)
    tags = list(graph.tags[:5])
    probs = graph.edge_probabilities(tags)
    return graph, targets, tags, probs


def test_micro_edge_probability_aggregation(benchmark):
    graph, _targets, tags, _probs = _setup()
    result = benchmark(graph.edge_probabilities, tags)
    assert result.shape == (graph.num_edges,)


def test_micro_ic_cascade(benchmark):
    graph, _targets, _tags, probs = _setup()
    rng = np.random.default_rng(0)
    active = benchmark(simulate_cascade, graph, [0, 1, 2], probs, rng)
    assert active.shape == (graph.num_nodes,)


def test_micro_rr_set_online(benchmark):
    graph, targets, _tags, probs = _setup()
    rng = np.random.default_rng(0)
    root = int(targets[0])
    rr = benchmark(reverse_reachable_set, graph, root, probs, rng)
    assert root in rr.tolist()


def test_micro_rr_set_indexed(benchmark):
    graph, targets, tags, probs = _setup()
    manager = make_ltrs_manager(graph)
    manager.ensure_indexes(tags, 50, rng=0)
    rng = np.random.default_rng(0)
    covered = manager.covered_mask
    root = int(targets[0])
    buffer = np.zeros(graph.num_edges, dtype=bool)

    def indexed_rr():
        choices = manager.sample_world_choices(tags, rng)
        working = manager.working_mask(choices, out=buffer)
        return hybrid_rr_set(graph, root, working, covered, probs, rng)

    rr = benchmark(indexed_rr)
    assert root in rr.tolist()


def test_micro_path_enumeration(benchmark):
    graph, targets, _tags, _probs = _setup()
    cfg = TagSelectionConfig(per_pair_paths=5, max_queue=20_000)
    source = int(targets[0])
    goal = [int(t) for t in targets[1:20]]
    found = benchmark(
        top_paths_from_seed, graph, source, goal, 5,
        frozenset({source}), cfg,
    )
    assert isinstance(found, dict)


def _tag_select_setup():
    graph = dataset("yelp", scale=0.5).graph
    targets = [int(t) for t in bfs_targets(graph, 25)]
    upstream = {
        int(u) for t in targets for u in graph.in_neighbors(t)
    } - set(targets)
    return graph, sorted(upstream)[:3], targets


def test_micro_path_sweep(benchmark):
    graph, seeds, targets = _tag_select_setup()
    graph.forward_arcs()  # built once per graph, outside the timing
    paths = benchmark(collect_paths, graph, seeds, targets, TAG_SELECT, 0)
    assert paths


def test_micro_exact_spread(benchmark):
    graph, seeds, targets = _tag_select_setup()
    paths = collect_paths(graph, seeds, targets, TAG_SELECT, rng=0)
    # The largest path prefix whose edges fit the exact-enumeration cap.
    active, edges = [], set()
    for idx, path in enumerate(paths):
        if len(edges | set(path.edge_ids)) > TAG_SELECT.exact_edge_limit:
            continue
        edges |= set(path.edge_ids)
        active.append(idx)
    evaluator = PathSpreadEvaluator(
        graph, seeds, targets, paths,
        replace(TAG_SELECT, evaluator_mode="exact"), rng=0,
    )
    spread = benchmark(evaluator.spread, active)
    assert len(edges) == TAG_SELECT.exact_edge_limit
    assert 0.0 < spread <= len(targets)


@pytest.mark.parametrize("impl", ["scalar", "kernel"])
def test_micro_indexed_rr(benchmark, impl):
    """θ=1000 LL-TRS working graphs over r=2 tags: scalar loop vs kernel."""
    graph, _seeds, targets = _tag_select_setup()
    tags = list(frequency_tags(graph, targets, 2))
    theta = 1000
    config = SketchConfig()
    manager = make_lltrs_manager(graph, targets, config)
    manager.ensure_indexes(
        tags, theta_c(theta, len(tags), config.alpha, config.delta), rng=0
    )
    probs = graph.edge_probabilities(tags)
    target_arr = np.asarray(targets, dtype=np.int64)

    if impl == "scalar":
        rng = np.random.default_rng(0)
        covered = manager.covered_mask
        buffer = np.zeros(graph.num_edges, dtype=bool)

        def traverse():
            sets = []
            for root in rng.choice(target_arr, size=theta).tolist():
                choices = manager.sample_world_choices(tags, rng)
                working = manager.working_mask(choices, out=buffer)
                sets.append(
                    hybrid_rr_set(graph, root, working, covered, probs, rng)
                )
            return sets
    else:
        rng = np.random.default_rng(0)
        highs = [target_arr.size] + [
            manager.index_for(tag).num_worlds for tag in tags
        ]

        def traverse():
            draws = rng.integers(0, highs, size=(theta, len(highs)))
            key = int(rng.integers(np.iinfo(np.int64).max, dtype=np.int64))
            return sample_indexed_rr_sets(
                graph, manager, tags, probs, target_arr[draws[:, 0]],
                draws[:, 1:], key,
            )

    sets = benchmark(traverse)
    assert len(sets) == theta


def test_micro_rr_batch_scalar(benchmark):
    """100 RR samples, one scalar traversal per sample (the old path)."""
    graph, targets, _tags, probs = _setup()
    rng = np.random.default_rng(0)
    roots = rng.choice(targets, size=100)

    def scalar_batch():
        return [
            reverse_reachable_set(graph, int(r), probs, rng) for r in roots
        ]

    sets = benchmark(scalar_batch)
    assert len(sets) == 100


def test_micro_rr_batch_parallel(benchmark):
    """The sharded driver end to end (pool startup amortized outside)."""
    graph, targets, _tags, probs = _setup()
    target_arr = np.asarray(targets, dtype=np.int64)
    with SamplingEngine(
        mode="bitparallel", workers=2, shard_size=64
    ) as engine:
        engine.sample_rr_sets(graph, target_arr, probs, 8, rng=0)  # warm up
        rr = benchmark(
            engine.sample_rr_sets, graph, target_arr, probs, 100, 0
        )
    assert rr.num_sets == 100


def test_micro_index_build(benchmark):
    graph, _targets, tags, _probs = _setup()

    def build():
        manager = make_ltrs_manager(graph)
        manager.ensure_indexes(tags, 50, rng=0)
        return manager

    manager = benchmark(build)
    assert manager.stats.worlds_built == 50 * len(tags)


def _hit_line():
    graph, targets, tags, _probs = _setup()
    line = json.dumps({
        "op": "find_seeds", "targets": [int(t) for t in targets],
        "tags": tags[:3], "k": 8, "engine": "trs", "seed": 1,
    })
    return graph, line


_HIT_CONFIG = JointConfig(sketch=SketchConfig(theta_max=5000))


def test_micro_serve_hit(benchmark):
    """A cached find_seeds read against an in-process server."""
    graph, line = _hit_line()
    with SamplingEngine(mode="bitparallel", workers=1) as engine:
        with CampaignServer(
            graph, config=_HIT_CONFIG, sampler=engine, pool_size=1
        ) as server:
            assert handle_line(server, line)["cache"] == "miss"
            reply = benchmark(handle_line, server, line)
    assert reply["ok"] and reply["cache"] == "hit"


def test_micro_fleet_read(benchmark):
    """The same cached read through a 1-worker fleet (router + pipe)."""
    graph, line = _hit_line()
    spec = WorkerSpec(
        config=_HIT_CONFIG, engine_mode="bitparallel", pool_size=1
    )
    with ShardedCampaignService(
        graph, workers=1, spec=spec, share_graph=False
    ) as service:
        assert handle_line(service, line)["cache"] == "miss"
        reply = benchmark(handle_line, service, line)
    assert reply["ok"] and reply["cache"] == "hit"


def _ball(graph, root: int, size: int) -> list[int]:
    """``size`` nodes around ``root`` by undirected BFS (a local campaign)."""
    seen = [root]
    for node in seen:
        for nb in np.concatenate(
            [graph.out_neighbors(node), graph.in_neighbors(node)]
        ).tolist():
            if len(seen) < size and nb not in seen:
                seen.append(nb)
    return sorted(seen)


def test_micro_edit_batch(benchmark):
    """One 2-edit batch against 12 resident repairable campaigns."""
    graph = dataset("twitter", scale=1.0).graph
    rng = np.random.default_rng(9)
    campaigns = [
        (
            _ball(graph, int(rng.integers(graph.num_nodes)), 40),
            sorted(str(t) for t in rng.choice(graph.tags, 3, replace=False)),
        )
        for _ in range(12)
    ]

    def batch():
        edits = []
        while len(edits) < 2:
            targets, tags = campaigns[int(rng.integers(len(campaigns)))]
            in_edges = graph.in_edge_ids(int(rng.choice(targets)))
            if in_edges.size:
                edits.append(TagSet(
                    edge_id=int(rng.choice(in_edges)),
                    tag=str(rng.choice(tags)),
                    prob=float(rng.uniform(0.05, 0.3)),
                ))
        return server.apply_edits(edits)

    with SamplingEngine(mode="bitparallel", workers=1) as engine:
        with CampaignServer(
            MutableTagGraph(graph), config=_HIT_CONFIG, sampler=engine,
            pool_size=1, repair_mode="bitparallel",
        ) as server:
            for seed, (targets, tags) in enumerate(campaigns):
                server.find_seeds(targets, tags, 8, engine="trs", seed=seed)
            summary = benchmark(batch)
    assert summary["assets"]["repaired"] >= 1
