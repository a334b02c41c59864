"""One sampling path: no sampler == a serial engine == a 2-worker pool.

Every public entry point reads ``engine=None`` / ``sampler=None`` as a
fresh serial bit-parallel :class:`~repro.engine.SamplingEngine` for the
call. By the engine's determinism contract the answer is then
bit-identical to passing ``SamplingEngine("bitparallel", workers=1)``
or a 2-worker pool, and so is the logical work: the ``rr.*`` and
``cascade.*`` counters are counted at the driver, whoever sampled.

A tripped :class:`~repro.engine.RunBudget` must stop the no-sampler
run and the serial-engine run at the same point, with equal partials.
"""

from __future__ import annotations

import pytest

from repro import obs
from repro.core import CampaignSession, JointConfig, JointQuery, jointly_select
from repro.diffusion.monte_carlo import estimate_spread
from repro.engine import RRCollection, SamplingEngine
from repro.engine.runtime import RunBudget
from repro.exceptions import BudgetExceededError
from repro.seeds.api import ENGINES, find_seeds
from repro.seeds.greedy_mc import greedy_mc_select_seeds
from repro.serve import CampaignServer
from repro.serve.protocol import handle_request
from repro.sketch import SketchConfig
from repro.sketch.imm import imm_select_seeds
from repro.sketch.rr_sets import sample_rr_sets
from repro.sketch.trs import (
    trs_build_sketch,
    trs_select_from_sketch,
    trs_select_seeds,
)

SKETCH = SketchConfig(pilot_samples=60, theta_min=300, theta_max=900)
JOINT = JointConfig(max_rounds=2, sketch=SKETCH, eval_samples=80)
TARGETS = list(range(30))
SAMPLERS = ("none", "serial", "pool")


@pytest.fixture(scope="module")
def pool():
    """One 2-worker pool for the module; every operation uses it."""
    with SamplingEngine(workers=2, parallel_threshold=0) as engine:
        yield engine


def _sampler(name: str, pool: SamplingEngine):
    return {"none": None, "serial": SamplingEngine(), "pool": pool}[name]


def _fingerprint(value):
    """A hashable, bit-exact digest of any entry point's answer."""
    if isinstance(value, RRCollection):
        return (value.members.tobytes(), value.indptr.tobytes())
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, tuple):
        return tuple(_fingerprint(v) for v in value)
    fields = [
        getattr(value, name) for name in (
            "seeds", "tags", "theta", "rounds", "spread_evaluations",
        ) if hasattr(value, name)
    ]
    for name in ("estimated_spread", "spread"):
        if hasattr(value, name):
            fields.append(float(getattr(value, name)).hex())
    for entry in getattr(value, "history", ()):
        fields.append((entry.seeds, entry.tags, entry.spread.hex()))
    return tuple(fields)


def _work(ob) -> dict:
    return {
        name: count for name, count in ob.metrics.as_dict()["counters"].items()
        if name.startswith(("rr.", "cascade."))
    }


def _entry_points(graph):
    """``name -> call(sampler, budget)`` for every public entry point."""
    tags = list(graph.tags[:3])

    def session_run(sampler, budget):
        session = CampaignSession(graph, JOINT, rng=5, sampler=sampler)
        seeds = session.seeds(TARGETS, tags, 3, budget=budget)
        spread = session.spread(
            seeds.seeds, TARGETS, tags, num_samples=120, budget=budget
        )
        joint = session.joint(TARGETS, 2, 2, budget=budget)
        return seeds, spread, joint

    points = {
        "sample_rr_sets": lambda s, b: sample_rr_sets(
            graph, TARGETS, graph.edge_probabilities(tags), 500, rng=3,
            engine=s,
        ),
        "estimate_spread": lambda s, b: estimate_spread(
            graph, [0, 5, 9], TARGETS, tags, num_samples=300, rng=3,
            engine=s, budget=b,
        ),
        "trs_build_sketch": lambda s, b: trs_select_from_sketch(
            graph,
            trs_build_sketch(
                graph, TARGETS, tags, 3, SKETCH, rng=3, engine=s, budget=b
            ),
            3,
        ),
        "trs_select_seeds": lambda s, b: trs_select_seeds(
            graph, TARGETS, tags, 3, SKETCH, rng=3, engine=s, budget=b
        ),
        "imm_select_seeds": lambda s, b: imm_select_seeds(
            graph, TARGETS, tags, 3, SKETCH, rng=3, engine=s, budget=b
        ),
        "greedy_mc_select_seeds": lambda s, b: greedy_mc_select_seeds(
            graph, TARGETS, tags, 2, num_samples=40,
            candidates=range(0, 60, 3), rng=3, engine=s, budget=b,
        ),
        "jointly_select": lambda s, b: jointly_select(
            graph, JointQuery(TARGETS, k=2, r=2), JOINT, rng=3, sampler=s,
            budget=b,
        ),
        "session": session_run,
    }
    for engine in ENGINES:
        if engine == "greedy-mc":
            continue  # its own entry, on a candidate subset above
        points[f"find_seeds-{engine}"] = (
            lambda s, b, engine=engine: find_seeds(
                graph, TARGETS, tags, 3, engine=engine, config=SKETCH,
                rng=3, sampler=s, budget=b,
            )
        )
    return points


ENTRY_POINTS = [
    "sample_rr_sets", "estimate_spread", "trs_build_sketch",
    "trs_select_seeds", "imm_select_seeds", "greedy_mc_select_seeds",
    "jointly_select", "session",
    *(f"find_seeds-{e}" for e in ENGINES if e != "greedy-mc"),
]


@pytest.mark.parametrize("point", ENTRY_POINTS)
def test_no_sampler_equals_serial_engine_equals_pool(small_yelp, pool, point):
    call = _entry_points(small_yelp.graph)[point]
    answers, work = {}, {}
    for name in SAMPLERS:
        with obs.observe() as ob:
            answers[name] = _fingerprint(call(_sampler(name, pool), None))
        work[name] = _work(ob)
    assert answers["none"] == answers["serial"] == answers["pool"]
    assert work["none"] == work["serial"] == work["pool"]
    assert work["none"], "the entry point sampled nothing"


def test_greedy_mc_through_find_seeds(fig9_graph, pool):
    """``find_seeds(engine="greedy-mc")`` over every node, on a graph
    small enough for CELF to visit them all."""
    answers = {
        name: _fingerprint(find_seeds(
            fig9_graph, [6, 7, 8], ["c4", "c5"], 2, engine="greedy-mc",
            num_samples=60, rng=4, sampler=_sampler(name, pool),
        ))
        for name in SAMPLERS
    }
    assert answers["none"] == answers["serial"] == answers["pool"]


#: Entry points that take a budget, with a ``max_samples`` that trips
#: part-way through.
BUDGETED = {
    "estimate_spread": 200,
    "trs_select_seeds": 400,
    "imm_select_seeds": 500,
    "greedy_mc_select_seeds": 400,
    "jointly_select": 700,
    "find_seeds-ltrs": 400,
}


@pytest.mark.parametrize("point", sorted(BUDGETED))
def test_no_sampler_partial_equals_serial_engine_partial(small_yelp, point):
    call = _entry_points(small_yelp.graph)[point]
    partials = {}
    for name in ("none", "serial"):
        budget = RunBudget(max_samples=BUDGETED[point])
        with pytest.raises(BudgetExceededError) as info:
            call(_sampler(name, None), budget)
        partials[name] = _fingerprint(info.value.partial)
    assert partials["none"] == partials["serial"]


@pytest.mark.parametrize("op", ["find_seeds", "spread"])
def test_server_without_sampler_equals_serial_engine_and_pool(
    small_yelp, pool, op
):
    graph = small_yelp.graph
    tags = sorted(graph.tags[:3])
    request = {
        "find_seeds": {
            "op": "find_seeds", "targets": TARGETS, "tags": tags, "k": 3,
            "engine": "trs", "seed": 3, "report": True,
        },
        "spread": {
            "op": "spread", "seeds": [0, 5, 9], "targets": TARGETS,
            "tags": tags, "num_samples": 300, "seed": 3, "report": True,
        },
    }[op]
    answers, work = {}, {}
    for name in SAMPLERS:
        server = CampaignServer(
            graph, config=JOINT, sampler=_sampler(name, pool), pool_size=1
        )
        try:
            response = handle_request(server, dict(request))
        finally:
            server.close()
        assert response["ok"], response
        answers[name] = (response.get("seeds"), response["spread"])
        work[name] = {
            k: v for k, v in response["report"]["metrics"]["counters"].items()
            if k.startswith(("rr.", "cascade."))
        }
    assert answers["none"] == answers["serial"] == answers["pool"]
    assert work["none"] == work["serial"] == work["pool"]
    assert work["none"]
