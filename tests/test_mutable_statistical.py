"""Statistical calibration of repaired sketches against the exact oracle.

The differential harness (``test_mutable_differential``) proves repair
is *bit-identical* to a cold rebuild; this module proves the rebuilt
distribution is the *right* one — that after edits, spread estimates
read off a repaired sketch are estimates of the **post-edit** influence
function, within the same δ=1e-9 Hoeffding gates the MC estimator paths
are held to in ``test_statistical``.

The RR-set estimator: with θ sets rooted at uniform targets,
``σ̂(S) = |T| · #{R : S ∩ R ≠ ∅} / θ`` has i.i.d. ``[0, |T|]``-range
per-set contributions, so ``|σ̂ − σ| ≤ |T|·sqrt(ln(2/δ)/(2θ))`` w.p.
``1 − δ``. The edit batches are chosen so the pre/post exact spreads
differ by *more* than twice that bound — a stale (unrepaired) sketch
provably fails the gate, which is asserted, so these tests have teeth:
they would have caught a repair that silently kept old coins.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.diffusion.cascade import simulate_cascade
from repro.diffusion.exact import exact_spread
from repro.diffusion.monte_carlo import estimate_spread
from repro.engine import SamplingEngine
from repro.graphs.mutable import EdgeAdd, MutableTagGraph, TagSet
from repro.sketch.incremental import build_repairable_sketch

from tests.conftest import FIG9_SEEDS, FIG9_TARGETS

DELTA = 1e-9
THETA = 4000
ALL_TAGS = ("c1", "c2", "c3", "c4", "c5", "c6")

#: A deliberately violent batch: three strong edges collapsed to 0.05
#: and one brand-new high-probability edge C -> H. Shifts the exact
#: spread by far more than two Hoeffding bounds (asserted below).
SHIFT_EDITS = [
    TagSet(edge_id=3, tag="c5", prob=0.05),   # e4: B -> E, was 0.7
    TagSet(edge_id=6, tag="c4", prob=0.05),   # e7: B -> G, was 0.8
    TagSet(edge_id=7, tag="c3", prob=0.05),   # e8: D -> G, was 0.9
    TagSet(edge_id=8, tag="c6", prob=0.05),   # e9: A -> H, was 0.6
    EdgeAdd(src=2, dst=7, tag_probs={"c4": 0.9}),
]


def hoeffding_bound(range_width: float, n: int) -> float:
    return range_width * math.sqrt(math.log(2.0 / DELTA) / (2.0 * n))


def rr_spread(sketch, seeds) -> float:
    """Unbiased RR-coverage estimate of σ(seeds) for a *fixed* seed set.

    The greedy-selected estimate in ``TRSResult`` is biased upward by
    selection; evaluating an a-priori seed set keeps the per-set
    indicators i.i.d. so the Hoeffding gate applies exactly.
    """
    rr = sketch.rr
    mask = np.isin(rr.members, np.asarray(seeds, dtype=rr.members.dtype))
    indptr = rr.indptr
    covered = sum(
        bool(mask[s:e].any()) for s, e in zip(indptr[:-1], indptr[1:])
    )
    return sketch.num_targets * covered / sketch.theta


@pytest.mark.parametrize("mode", ["scalar", "bitparallel"])
def test_repaired_sketch_is_calibrated_to_post_edit_graph(fig9_graph, mode):
    bound = hoeffding_bound(len(FIG9_TARGETS), THETA)

    probs0 = fig9_graph.edge_probabilities(ALL_TAGS)
    sketch0 = build_repairable_sketch(
        fig9_graph, FIG9_TARGETS, probs0, THETA, seed=2024, mode=mode
    )
    exact_old = exact_spread(fig9_graph, FIG9_SEEDS, FIG9_TARGETS, ALL_TAGS)
    assert abs(rr_spread(sketch0, FIG9_SEEDS) - exact_old) <= bound

    mutable = MutableTagGraph(fig9_graph)
    mutable.apply(SHIFT_EDITS)
    snap = mutable.snapshot()
    probs1 = snap.edge_probabilities(ALL_TAGS)
    exact_new = exact_spread(snap, FIG9_SEEDS, FIG9_TARGETS, ALL_TAGS)

    # The batch moves the truth by more than two gates — so a sketch
    # that kept its pre-edit coins *cannot* pass the post-edit gate.
    assert abs(exact_new - exact_old) > 2.0 * bound
    assert abs(rr_spread(sketch0, FIG9_SEEDS) - exact_new) > bound

    repaired, stats = sketch0.repair(
        snap, probs1, mutable.dirty_edges(0)
    )
    # Partial repair, not a disguised full rebuild.
    assert 0 < stats["dirty_sets"] < THETA

    est = rr_spread(repaired, FIG9_SEEDS)
    assert abs(est - exact_new) <= bound, (
        f"{mode} repaired estimate {est:.4f} deviates from post-edit "
        f"exact {exact_new:.4f} by more than the δ={DELTA} bound "
        f"{bound:.4f}"
    )


@pytest.mark.parametrize("mode", ["scalar", "bitparallel"])
def test_calibration_survives_successive_epochs(fig9_graph, mode):
    """Three edit epochs, repairing incrementally each time; the sketch
    must stay inside the gate at *every* epoch (no error accumulation —
    guaranteed by bit-identity, gated here statistically)."""
    bound = hoeffding_bound(len(FIG9_TARGETS), THETA)
    batches = [
        [TagSet(edge_id=0, tag="c1", prob=0.15)],          # e1: A -> B
        [TagSet(edge_id=4, tag="c5", prob=0.1),            # e5: C -> E
         TagSet(edge_id=10, tag="c6", prob=0.15)],         # e11: E -> I
        [EdgeAdd(src=0, dst=8, tag_probs={"c1": 0.85})],   # new A -> I
    ]

    mutable = MutableTagGraph(fig9_graph)
    sketch = build_repairable_sketch(
        fig9_graph,
        FIG9_TARGETS,
        fig9_graph.edge_probabilities(ALL_TAGS),
        THETA,
        seed=77,
        mode=mode,
    )
    for batch in batches:
        before = mutable.epoch
        mutable.apply(batch)
        snap = mutable.snapshot()
        sketch, _ = sketch.repair(
            snap,
            snap.edge_probabilities(ALL_TAGS),
            mutable.dirty_edges(before),
        )
        exact = exact_spread(snap, FIG9_SEEDS, FIG9_TARGETS, ALL_TAGS)
        est = rr_spread(sketch, FIG9_SEEDS)
        assert abs(est - exact) <= bound, (
            f"epoch {mutable.epoch} ({mode}): {est:.4f} vs exact "
            f"{exact:.4f}, bound {bound:.4f}"
        )


def test_mc_estimators_agree_with_exact_on_edited_snapshot(fig9_graph):
    """Edited snapshots are first-class graphs for the MC paths too:
    the scalar oracle loop, the no-engine default and an explicit
    bit-parallel engine all land inside the gate on a post-edit
    snapshot (tombstones, appended edge, rewritten probs)."""
    mutable = MutableTagGraph(fig9_graph)
    mutable.apply(SHIFT_EDITS)
    snap = mutable.snapshot()
    exact = exact_spread(snap, FIG9_SEEDS, FIG9_TARGETS, ALL_TAGS)
    bound = hoeffding_bound(len(FIG9_TARGETS), THETA)

    rng = np.random.default_rng(12345)
    probs = snap.edge_probabilities(ALL_TAGS)
    targets = np.asarray(FIG9_TARGETS, dtype=np.int64)
    est_scalar = float(np.mean([
        simulate_cascade(snap, FIG9_SEEDS, probs, rng)[targets].sum()
        for _ in range(THETA)
    ]))
    assert abs(est_scalar - exact) <= bound

    est_default = estimate_spread(
        snap, FIG9_SEEDS, FIG9_TARGETS, ALL_TAGS,
        num_samples=THETA, rng=12345,
    )
    assert abs(est_default - exact) <= bound

    with SamplingEngine(mode="bitparallel", workers=1) as engine:
        est_engine = estimate_spread(
            snap, FIG9_SEEDS, FIG9_TARGETS, ALL_TAGS,
            num_samples=THETA, rng=12345, engine=engine,
        )
    assert abs(est_engine - exact) <= bound
