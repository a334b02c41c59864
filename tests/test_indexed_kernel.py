"""The bit-parallel indexed RR kernel (I-TRS / L-TRS / LL-TRS) and its gates.

Three gates keep the 64-lane indexed traversal honest:

* a **fixed-world replay**: every lane of every block must equal the
  scalar fixed-world BFS (``rr_set_from_edge_mask``) run on that lane's
  own edge mask — covered edges from the union of the lane's chosen
  worlds, uncovered edges from the kernel's counter coins
  (``world_edge_mask``);
* a **statistical gate** against exact enumeration: the indexed,
  TRS and scalar-oracle spread estimates of a fixed seed set must lie
  within Hoeffding bounds (δ = 1e-9 per assertion) of the exact spread
  and of each other;
* **bit-identity** of Algorithm 2 with no sampler, a serial bit-parallel
  engine and a two-worker pool.

:func:`hybrid_rr_set` is the scalar traversal the kernel replaced; it
stays here as the oracle of the statistical gate and as the baseline of
``benchmarks/bench_micro_primitives.py::test_micro_indexed_rr``.
"""

from __future__ import annotations

import math
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import JointConfig, JointQuery, jointly_select
from repro.datasets import community_targets
from repro.diffusion.exact import exact_spread
from repro.engine import SamplingEngine, bitworld
from repro.engine.bitworld import (
    coin_thresholds,
    rr_world_of_sample,
    transpose_bits64,
    world_edge_mask,
)
from repro.engine.runtime import RunBudget
from repro.exceptions import BudgetExceededError
from repro.graphs import TagGraphBuilder
from repro.index import (
    IndexManager,
    TagIndex,
    indexed_select_seeds,
    make_lltrs_manager,
)
from repro.index.itrs import sample_indexed_rr_sets
from repro.sketch import SketchConfig
from repro.sketch.rr_sets import rr_set_from_edge_mask
from repro.tags import TagSelectionConfig


def hybrid_rr_set(graph, root, working_mask, covered, edge_probs, rng):
    """Scalar indexed RR set: one working graph, one Python coin per edge.

    Covered edges exist iff ``working_mask`` holds them; every other
    edge flips a coin at its aggregated probability.
    """
    visited = np.zeros(graph.num_nodes, dtype=bool)
    visited[root] = True
    members = [int(root)]
    queue = deque([int(root)])
    rev_indptr, rev_edges = graph.reverse_csr()
    src = graph.src
    fully_covered = bool(covered.all())
    while queue:
        node = queue.popleft()
        for eid in rev_edges[rev_indptr[node]:rev_indptr[node + 1]]:
            if fully_covered or covered[eid]:
                exists = working_mask[eid]
            else:
                exists = rng.random() < edge_probs[eid]
            if exists:
                parent = int(src[eid])
                if not visited[parent]:
                    visited[parent] = True
                    members.append(parent)
                    queue.append(parent)
    return np.array(members, dtype=np.int64)


TAGS = ("a", "b", "c", "d")
PROBS = (0.1, 0.5, 0.9, 1.0)


@st.composite
def tag_graphs(draw, max_nodes=9, max_assignments=24):
    n = draw(st.integers(min_value=2, max_value=max_nodes))
    builder = TagGraphBuilder(n)
    builder.add(
        0, 1, draw(st.sampled_from(TAGS)), draw(st.sampled_from(PROBS))
    )
    for _ in range(draw(st.integers(0, max_assignments))):
        u = draw(st.integers(0, n - 1))
        v = draw(st.integers(0, n - 1))
        tag = draw(st.sampled_from(TAGS))
        try:
            builder.add(u, v, tag, draw(st.sampled_from(PROBS)))
        except Exception:  # self-loop or duplicate (edge, tag): skip
            pass
    return builder.build()


# ----------------------------------------------------------------------
# Packing primitives
# ----------------------------------------------------------------------


def _bit_matrix(words):
    """``[..., i, b]`` bit ``b`` of ``words[..., i]`` as bool."""
    shifts = np.arange(64, dtype=np.uint64)
    return ((words[..., None] >> shifts) & np.uint64(1)).astype(bool)


class TestPacking:
    def test_transpose_bits64_matches_unpacked_transpose(self):
        rng = np.random.default_rng(3)
        rows = rng.integers(0, 2**63, size=(7, 64), dtype=np.uint64)
        rows ^= rng.integers(0, 2**63, size=(7, 64), dtype=np.uint64) << 1
        got = _bit_matrix(transpose_bits64(rows))
        assert np.array_equal(got, _bit_matrix(rows).transpose(0, 2, 1))
        assert np.array_equal(transpose_bits64(transpose_bits64(rows)), rows)

    @settings(max_examples=60, deadline=None)
    @given(graph=tag_graphs(), seed=st.integers(0, 2**16))
    def test_tag_lane_words_match_worlds(self, graph, seed):
        rng = np.random.default_rng(seed)
        tag = graph.tags[int(rng.integers(len(graph.tags)))]
        index = TagIndex(graph, tag, int(rng.integers(1, 9)), rng=rng)
        choices = rng.integers(0, index.num_worlds, size=128)
        words = index.lane_words(choices)
        cands = index.candidate_edges
        assert words.shape == (2, cands.size)
        bits = _bit_matrix(words)  # [block, edge, lane]
        for slot, world in enumerate(choices.tolist()):
            held = np.isin(cands, index.world(world))
            assert np.array_equal(bits[slot // 64, :, slot % 64], held)

    @settings(max_examples=40, deadline=None)
    @given(graph=tag_graphs(), seed=st.integers(0, 2**16))
    def test_manager_lane_words_match_working_mask(self, graph, seed):
        rng = np.random.default_rng(seed)
        tags = list(graph.tags)
        manager = IndexManager(graph)
        manager.ensure_indexes(tags, int(rng.integers(1, 6)), rng)
        highs = [manager.index_for(t).num_worlds for t in tags]
        choices = rng.integers(0, highs, size=(64, len(tags)))
        columns = manager.forced_columns(tags)
        bits = _bit_matrix(manager.lane_words(tags, choices, columns))[0]
        outside = np.setdiff1d(np.arange(graph.num_edges), columns)
        for lane in range(64):
            mask = manager.working_mask(
                dict(zip(tags, choices[lane].tolist()))
            )
            assert np.array_equal(bits[:, lane], mask[columns])
            assert not mask[outside].any()

    def test_world_round_trip_through_edge_ids(self, fig9_graph):
        index = TagIndex(fig9_graph, "c5", 40, rng=5)
        again = TagIndex.from_worlds(
            fig9_graph, "c5", [index.world(i) for i in range(40)]
        )
        assert np.array_equal(again._packed, index._packed)
        assert again.stored_edges == index.stored_edges


# ----------------------------------------------------------------------
# Fixed-world replay
# ----------------------------------------------------------------------


def _draw_query(graph, rng, local: bool, theta: int, targets_max: int = 3):
    n = graph.num_nodes
    size = int(rng.integers(1, targets_max + 1))
    targets = np.unique(rng.integers(0, n, size=size))
    tags = sorted(set(rng.choice(graph.tags, size=int(rng.integers(1, 3)))))
    if local:
        manager = make_lltrs_manager(
            graph, targets.tolist(), SketchConfig(h=int(rng.integers(0, 3)))
        )
    else:
        manager = IndexManager(graph)
    manager.ensure_indexes(tags, int(rng.integers(1, 6)), rng)
    highs = [targets.size] + [manager.index_for(t).num_worlds for t in tags]
    draws = rng.integers(0, highs, size=(theta, len(highs)))
    key = int(rng.integers(np.iinfo(np.int64).max, dtype=np.int64))
    return targets[draws[:, 0]], draws[:, 1:], key, tags, manager


def _replay_matches(graph, roots, choices, key, tags, manager, rr):
    probs = graph.edge_probabilities(tags)
    thr53 = coin_thresholds(probs)
    covered = manager.covered_mask
    for i, root in enumerate(roots.tolist()):
        block, lane = rr_world_of_sample(roots, i, graph.num_nodes)
        working = manager.working_mask(dict(zip(tags, choices[i].tolist())))
        coins = world_edge_mask(graph.num_edges, thr53, key, block, lane)
        mask = np.where(covered, working, coins)
        want = np.sort(rr_set_from_edge_mask(graph, root, mask))
        assert np.array_equal(np.sort(rr[i]), want), (i, block, lane)


class TestFixedWorldReplay:
    @settings(max_examples=120, deadline=None)
    @given(
        graph=tag_graphs(),
        seed=st.integers(0, 2**20),
        local=st.booleans(),
        theta=st.one_of(st.integers(1, 70), st.integers(120, 260)),
    )
    def test_every_lane_equals_its_fixed_world(
        self, graph, seed, local, theta
    ):
        rng = np.random.default_rng(seed)
        roots, choices, key, tags, manager = _draw_query(
            graph, rng, local, theta
        )
        rr = sample_indexed_rr_sets(
            graph, manager, tags, graph.edge_probabilities(tags), roots,
            choices, key,
        )
        assert len(rr) == theta
        _replay_matches(graph, roots, choices, key, tags, manager, rr)

    @pytest.mark.parametrize("h", [None, 0, 2])
    def test_lane_dense_blocks_on_a_real_graph(self, small_yelp, h,
                                               monkeypatch):
        # θ=300 samples of one root pack whole 64-lane blocks, so the
        # first levels run in row space and later ones in pair space.
        # With h=0 no edge is covered and the full first-level rows
        # take the dense all-lane coin branch.
        graph = small_yelp.graph
        in_degree = np.bincount(graph.dst, minlength=graph.num_nodes)
        target = int(in_degree.argmax())
        rng = np.random.default_rng(11)
        tags = list(graph.tags[:6])
        manager = (
            IndexManager(graph) if h is None
            else make_lltrs_manager(graph, [target], SketchConfig(h=h))
        )
        manager.ensure_indexes(tags, 7, rng)
        roots = np.full(300, target, dtype=np.int64)
        choices = rng.integers(0, 7, size=(300, len(tags)))
        key = 0x5EED
        dense_calls = []
        dense = bitworld._dense_coins
        monkeypatch.setattr(
            bitworld, "_dense_coins",
            lambda *a: dense_calls.append(1) or dense(*a),
        )
        rr = sample_indexed_rr_sets(
            graph, manager, tags, graph.edge_probabilities(tags), roots,
            choices, key,
        )
        assert rr.members.size > 10 * len(rr)
        assert bool(dense_calls) == (h == 0)
        _replay_matches(graph, roots, choices, key, tags, manager, rr)

    def test_block_batching_changes_nothing(self, small_yelp, monkeypatch):
        graph = small_yelp.graph
        rng = np.random.default_rng(2)
        targets = np.asarray(
            community_targets(small_yelp, "vegas", size=4, rng=0)
        )
        tags = list(graph.tags[:2])
        manager = make_lltrs_manager(
            graph, targets.tolist(), SketchConfig(h=1)
        )
        manager.ensure_indexes(tags, 5, rng)
        roots = rng.choice(targets, size=333)
        choices = rng.integers(0, 5, size=(333, 2))
        probs = graph.edge_probabilities(tags)
        whole = sample_indexed_rr_sets(
            graph, manager, tags, probs, roots, choices, 77
        )
        # Two blocks per batch: three batches plus a ragged tail.
        monkeypatch.setattr(
            bitworld, "DEFAULT_BLOCK_CELLS", 2 * max(graph.num_nodes, 1)
        )
        batches = []
        split = sample_indexed_rr_sets(
            graph, manager, tags, probs, roots, choices, 77,
            on_batch=lambda new, _partial: batches.append(new),
        )
        assert len(batches) == 3
        assert sum(batches) == whole.members.size
        assert np.array_equal(split.members, whole.members)
        assert np.array_equal(split.indptr, whole.indptr)


class _RecordingBudget(RunBudget):
    """A budget that remembers every RR-member charge, in order."""

    def __init__(self, **limits) -> None:
        super().__init__(**limits)
        self.charges: list[int] = []

    def charge_rr_members(self, count: int, partial: object = None) -> None:
        self.charges.append(int(count))
        super().charge_rr_members(count, partial)


class TestIndexedBudget:
    def test_partial_keeps_finished_batches(self, small_yelp, monkeypatch):
        graph = small_yelp.graph
        targets = community_targets(small_yelp, "vegas", size=10, rng=0)
        tags = list(graph.tags[:2])
        cfg = SketchConfig(pilot_samples=50, theta_min=1000, theta_max=1000)
        # Four 64-lane blocks per batch: θ=1000 runs in four batches.
        monkeypatch.setattr(
            bitworld, "DEFAULT_BLOCK_CELLS", 4 * graph.num_nodes
        )

        def run(budget):
            return indexed_select_seeds(
                graph, targets, tags, 2,
                make_lltrs_manager(graph, targets, cfg), cfg, rng=0,
                budget=budget, record_choices=True,
            )

        probe = _RecordingBudget()
        full = run(probe)
        assert full.theta == 1000
        pilot, *batches = probe.charges
        assert len(batches) == 4
        # Room for the pilot and two batches: the third one trips the
        # budget, and the partial keeps every set generated, the
        # tripping batch's included.
        limit = pilot + batches[0] + batches[1]
        with pytest.raises(BudgetExceededError) as info:
            run(RunBudget(max_rr_members=limit))
        partial = info.value.partial
        assert partial.theta == 3 * 256
        assert len(partial.world_choices) == partial.theta
        assert len(partial.seeds) == 2


# ----------------------------------------------------------------------
# Statistical gate against exact enumeration
# ----------------------------------------------------------------------

#: Per-assertion failure probability.
DELTA = 1e-9

#: RR sets per estimate, and worlds per tag for the index engines.
THETA = 20_000
WORLDS = 20_000


def _hoeffding(n: int, delta: float) -> float:
    """Deviation bound of a mean of ``n`` i.i.d. [0, 1] draws."""
    return math.sqrt(math.log(2.0 / delta) / (2.0 * n))


def indexed_bound(delta: float) -> float:
    """Bound on an indexed coverage fraction's distance from the truth.

    Given the index, the θ RR indicators are i.i.d. with mean g(index);
    g is a multi-sample U-statistic over the per-tag worlds (equal
    counts), so Hoeffding's U-statistic bound holds for it with the
    world count in place of n. Half the failure budget goes to each.
    """
    return _hoeffding(THETA, delta / 2) + _hoeffding(WORLDS, delta / 2)


def _coverage(rr_sets, seeds) -> float:
    seed_set = set(seeds)
    hit = sum(1 for s in rr_sets if seed_set.intersection(s.tolist()))
    return hit / len(rr_sets)


def _flat_coverage(rr, seeds) -> float:
    hit = np.zeros(rr.num_nodes, dtype=bool)
    hit[list(seeds)] = True
    owner = np.repeat(np.arange(len(rr)), np.diff(rr.indptr))
    return np.unique(owner[hit[rr.members]]).size / len(rr)


# (fixture, seeds, targets, tags, LL-TRS hop bound)
CASES = [
    ("fig4_graph", [0, 3], [2, 5], ["c1", "c2", "c3"], 1),
    ("fig9_graph", [0, 1, 2], [6, 7, 8], ["c4", "c5"], 1),
    ("fig9_graph", [0, 2], [6, 7, 8], ["c3", "c4", "c5", "c6"], 0),
    ("diamond_graph", [0], [3], ["a", "b", "c"], 0),
]


def _manager(graph, kind, targets, tags, h, rng):
    if kind == "itrs":
        manager = IndexManager(graph)
        manager.build_all_tags(WORLDS, rng)
    elif kind == "ltrs":
        manager = IndexManager(graph)
        manager.ensure_indexes(tags, WORLDS, rng)
    else:
        manager = make_lltrs_manager(graph, targets, SketchConfig(h=h))
        manager.ensure_indexes(tags, WORLDS, rng)
    return manager


@pytest.mark.parametrize("kind", ["itrs", "ltrs", "lltrs"])
@pytest.mark.parametrize("case", CASES, ids=lambda c: f"{c[0]}-{c[3]}")
def test_indexed_estimates_match_trs_and_exact(case, kind, request):
    fixture, seeds, targets, tags, h = case
    graph = request.getfixturevalue(fixture)
    num_targets = len(targets)
    exact = exact_spread(graph, seeds, targets, tags) / num_targets
    rng = np.random.default_rng(2024)
    target_arr = np.asarray(targets, dtype=np.int64)
    probs = graph.edge_probabilities(tags)

    manager = _manager(graph, kind, targets, tags, h, rng)
    if kind == "lltrs":
        assert not manager.covered_mask.all() or h == 0
    highs = [num_targets] + [manager.index_for(t).num_worlds for t in tags]
    draws = rng.integers(0, highs, size=(THETA, len(highs)))
    key = int(rng.integers(np.iinfo(np.int64).max, dtype=np.int64))
    rr = sample_indexed_rr_sets(
        graph, manager, tags, probs, target_arr[draws[:, 0]], draws[:, 1:],
        key,
    )
    indexed = _flat_coverage(rr, seeds)

    with SamplingEngine(mode="bitparallel", workers=1) as engine:
        trs_rr = engine.sample_rr_sets(graph, target_arr, probs, THETA, rng=7)
    trs = _flat_coverage(trs_rr, seeds)

    assert abs(indexed - exact) <= indexed_bound(DELTA), (indexed, exact)
    assert abs(trs - exact) <= _hoeffding(THETA, DELTA), (trs, exact)
    assert abs(indexed - trs) <= (
        indexed_bound(DELTA / 2) + _hoeffding(THETA, DELTA / 2)
    ), (indexed, trs)


@pytest.mark.parametrize("case", CASES[:2], ids=lambda c: f"{c[0]}-{c[3]}")
def test_scalar_oracle_matches_exact(case, request):
    fixture, seeds, targets, tags, h = case
    graph = request.getfixturevalue(fixture)
    exact = exact_spread(graph, seeds, targets, tags) / len(targets)
    rng = np.random.default_rng(99)
    manager = make_lltrs_manager(graph, targets, SketchConfig(h=h))
    manager.ensure_indexes(tags, WORLDS, rng)
    probs = graph.edge_probabilities(tags)
    covered = manager.covered_mask
    sets = []
    for _ in range(THETA // 4):
        root = int(rng.choice(targets))
        choices = manager.sample_world_choices(tags, rng)
        working = manager.working_mask(choices)
        sets.append(hybrid_rr_set(graph, root, working, covered, probs, rng))
    oracle = _coverage(sets, seeds)
    bound = _hoeffding(THETA // 4, DELTA / 2) + _hoeffding(WORLDS, DELTA / 2)
    assert abs(oracle - exact) <= bound, (oracle, exact)


# ----------------------------------------------------------------------
# Algorithm 2: no sampler == serial bit-parallel == pooled
# ----------------------------------------------------------------------

JOINT = JointConfig(
    max_rounds=3,
    sketch=SketchConfig(pilot_samples=80, theta_min=200, theta_max=800),
    tag_config=TagSelectionConfig(
        per_pair_paths=3, max_path_targets=20, max_queue=1500,
    ),
    eval_samples=150,
)


def _fingerprint(result):
    return (
        result.seeds,
        result.tags,
        result.spread.hex(),
        result.rounds,
        result.converged,
        tuple(
            (h.step, h.seeds, h.tags, h.spread.hex()) for h in result.history
        ),
    )


@pytest.mark.parametrize("seed_engine", ["lltrs", "ltrs"])
def test_joint_without_sampler_equals_bitparallel_engines(
    small_yelp, seed_engine
):
    graph = small_yelp.graph
    targets = community_targets(small_yelp, "vegas", size=20, rng=1)
    query = JointQuery(targets, k=3, r=2)
    config = JointConfig(**{**JOINT.__dict__, "seed_engine": seed_engine})
    plain = jointly_select(graph, query, config, rng=5)
    with SamplingEngine(mode="bitparallel", workers=1) as serial:
        with_serial = jointly_select(graph, query, config, rng=5,
                                     sampler=serial)
    # No sampler means a fresh serial engine, counters included.
    assert plain.telemetry == with_serial.telemetry
    with SamplingEngine(
        mode="bitparallel", workers=2, parallel_threshold=0
    ) as pooled:
        with_pool = jointly_select(graph, query, config, rng=5,
                                   sampler=pooled)
        assert pooled.telemetry.parallel_fallbacks == 0
    assert _fingerprint(plain) == _fingerprint(with_serial)
    assert _fingerprint(plain) == _fingerprint(with_pool)
    assert len(plain.history) >= 3
