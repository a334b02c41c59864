"""Statistical equivalence of every estimator path vs the exact oracle.

Each Monte-Carlo spread estimate — the scalar reference loop (a
test-local :func:`~repro.diffusion.simulate_cascade` oracle), the
no-engine default, the serial bit-parallel engine, and the
multi-process engine — is compared against the possible-world
enumeration of :mod:`repro.diffusion.exact` on the paper's small
worked-example graphs.

The tolerance is not a tuned constant: every per-cascade activated
count lies in ``[0, |T|]``, so Hoeffding's inequality bounds the
deviation of the sample mean from the true spread by

    |est − σ| ≤ |T| · sqrt(ln(2/δ) / (2 n))

with probability at least ``1 − δ``.  With ``δ = 1e-9`` a failure is a
one-in-a-billion event per assertion *even for adversarial seeds* — and
since the RNG seeds here are fixed, any failure at all is a genuine
estimator bug, not flakiness.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.diffusion.cascade import simulate_cascade
from repro.diffusion.exact import exact_spread
from repro.diffusion.monte_carlo import estimate_spread
from repro.engine import SamplingEngine

#: Per-assertion failure probability for the Hoeffding bound.
DELTA = 1e-9

#: MC samples per estimate; drives the CI width.
NUM_SAMPLES = 4000


def hoeffding_bound(range_width: float, n: int) -> float:
    """Two-sided deviation bound for a mean of ``[0, range_width]`` i.i.d.
    samples: ``P(|mean − μ| > bound) ≤ DELTA``."""
    return range_width * math.sqrt(math.log(2.0 / DELTA) / (2.0 * n))


def scalar_spread(graph, seeds, targets, tags, num_samples, rng) -> float:
    """The scalar oracle: one lazy-coin cascade per sample, averaged."""
    rng = np.random.default_rng(rng)
    probs = graph.edge_probabilities(tags)
    target_arr = np.asarray(sorted(set(targets)), dtype=np.int64)
    return float(np.mean([
        simulate_cascade(graph, seeds, probs, rng)[target_arr].sum()
        for _ in range(num_samples)
    ]))


@pytest.fixture(scope="module")
def engines():
    """One bit-parallel serial and one pooled engine, shared per module.

    ``parallel_threshold=0`` disables the small-work fallback so the
    pooled engine genuinely exercises the multi-process path.
    """
    serial = SamplingEngine(mode="bitparallel", workers=1)
    pooled = SamplingEngine(
        mode="bitparallel", workers=2, shard_size=256, parallel_threshold=0
    )
    yield {"bitparallel": serial, "parallel": pooled}
    serial.close()
    pooled.close()


# (fixture name, seeds, targets, tags) — graphs small enough for the
# 2^m possible-world enumeration.
CASES = [
    ("line_graph", [0], [3], ["a", "b", "c"]),
    ("line_graph", [0, 1], [2, 3], ["a", "b", "c"]),
    ("diamond_graph", [0], [3], ["a", "b", "c"]),
    ("diamond_graph", [0], [1, 2, 3], ["a", "b"]),
    ("fig4_graph", [0, 3], [2, 5], ["c1"]),
    ("fig4_graph", [0, 3], [2, 5], ["c1", "c2", "c3"]),
    ("fig9_graph", [0, 1, 2], [6, 7, 8], ["c4", "c5"]),
    ("fig9_graph", [0, 1, 2], [6, 7, 8], ["c3", "c4", "c5", "c6"]),
]


@pytest.mark.parametrize(
    "path", ["scalar", "default", "bitparallel", "parallel"]
)
@pytest.mark.parametrize("case", CASES, ids=lambda c: f"{c[0]}-{c[3]}")
def test_mc_estimate_within_ci_of_exact(case, path, engines, request):
    fixture, seeds, targets, tags = case
    graph = request.getfixturevalue(fixture)
    exact = exact_spread(graph, seeds, targets, tags)

    if path == "scalar":
        est = scalar_spread(graph, seeds, targets, tags, NUM_SAMPLES, 12345)
    else:
        est = estimate_spread(
            graph, seeds, targets, tags,
            num_samples=NUM_SAMPLES, rng=12345, engine=engines.get(path),
        )

    bound = hoeffding_bound(len(targets), NUM_SAMPLES)
    assert abs(est - exact) <= bound, (
        f"{path} estimate {est:.4f} deviates from exact {exact:.4f} by "
        f"more than the δ={DELTA} Hoeffding bound {bound:.4f}"
    )


@pytest.mark.parametrize("case", CASES[:4], ids=lambda c: f"{c[0]}-{c[3]}")
def test_vectorized_and_parallel_estimates_identical(case, engines, request):
    """The engine's determinism contract: the serial and the pooled
    bit-parallel engine give the same estimate — sharding depends only
    on (count, shard_size), and shard RNG streams are spawned per
    shard."""
    fixture, seeds, targets, tags = case
    graph = request.getfixturevalue(fixture)
    serial_same_shard = SamplingEngine(
        mode="bitparallel", workers=1, shard_size=256
    )
    try:
        a = estimate_spread(
            graph, seeds, targets, tags,
            num_samples=NUM_SAMPLES, rng=7, engine=serial_same_shard,
        )
        b = estimate_spread(
            graph, seeds, targets, tags,
            num_samples=NUM_SAMPLES, rng=7, engine=engines["parallel"],
        )
    finally:
        serial_same_shard.close()
    assert a == b


def test_exact_oracle_matches_hand_computation(line_graph):
    """Anchor the oracle itself: P(reach 3 from 0) = 0.5^3 on the chain."""
    assert exact_spread(line_graph, [0], [3], ["a", "b", "c"]) == (
        pytest.approx(0.125)
    )
    assert exact_spread(line_graph, [0], [1], ["a"]) == pytest.approx(0.5)


def test_scalar_and_engine_agree_with_each_other(line_graph):
    """Cross-path closeness (both within a CI of exact implies within
    two CIs of each other) — checked directly for one case as a guard
    against correlated biases that happen to cancel against exact."""
    est_scalar = scalar_spread(
        line_graph, [0], [3], ["a", "b", "c"], NUM_SAMPLES, 99
    )
    est_engine = estimate_spread(
        line_graph, [0], [3], ["a", "b", "c"],
        num_samples=NUM_SAMPLES, rng=99,
    )
    assert abs(est_scalar - est_engine) <= 2 * hoeffding_bound(1, NUM_SAMPLES)
