"""Cross-shard differential suite: sharded answers ≡ single-process, bit for bit.

The sharded service's contract is that sharding is *invisible*: for
every op, engine, and worker count, the wire response — seeds, tags,
spread, epoch, **and the inlined observability work counters** — is
bit-identical to what one in-process :class:`~repro.serve.CampaignServer`
(with the same single-worker engine) returns for the same request.

Covered here:

* all four query ops × {default, bitparallel} engines ×
  {1, 2, 4} workers, cold and warm (the warm repeat must be a cache
  hit, proving ring affinity landed it on the same worker's cache).
  ``default`` passes no sampler and no ``engine_mode``, so each server
  kind builds its own serial engine; ``bitparallel`` passes both;
* scatter/gather ``find_seeds`` — the partitioned build + router-side
  greedy cover must reproduce the monolithic TRS answer exactly;
* ``apply_edits`` epoch broadcast on a mutable fleet — same epoch on
  every worker, post-edit answers equal to a mutable single-process
  server's, epochs stamped on every response.

Worker processes are spawned (not forked), so each (engine × fleet)
combination boots once per module and every op runs against it.
"""

from __future__ import annotations

import copy

import numpy as np
import pytest

from repro.core.joint import JointConfig
from repro.engine.parallel import SamplingEngine
from repro.graphs.tag_graph import TagGraph
from repro.serve import CampaignServer, ShardedCampaignService, WorkerSpec
from repro.serve.protocol import handle_request
from repro.sketch.theta import SketchConfig

FAST_SKETCH = SketchConfig(theta_max=800, pilot_samples=30)
CONFIG = JointConfig(sketch=FAST_SKETCH)
ENGINES = ("default", "bitparallel")
FLEETS = (1, 2, 4)

TARGETS = list(range(8, 20))
SPREAD_SEEDS = [0, 3]

#: Every query op, with inlined observability reports for the counter
#: comparison. ``elapsed_ms`` is timing and excluded from comparison.
REQUESTS = {
    "find_seeds": {
        "op": "find_seeds", "targets": TARGETS, "tags": ["a"], "k": 2,
        "engine": "trs", "seed": 3, "report": True,
    },
    "find_tags": {
        "op": "find_tags", "seeds": SPREAD_SEEDS, "targets": TARGETS,
        "r": 1, "seed": 1, "report": True,
    },
    "joint": {
        "op": "joint", "targets": TARGETS, "k": 2, "r": 1, "seed": 2,
        "report": True,
    },
    "spread": {
        "op": "spread", "seeds": SPREAD_SEEDS, "targets": TARGETS,
        "tags": ["a", "b"], "num_samples": 60, "seed": 5, "report": True,
    },
}

_COMPARED_FIELDS = (
    "ok", "seeds", "tags", "spread", "engine", "method", "rounds",
    "converged", "class", "tier", "epoch",
)


def make_graph(num_nodes: int = 40, num_edges: int = 160) -> TagGraph:
    rng = np.random.default_rng(11)
    src = rng.integers(0, num_nodes, num_edges).astype(np.int64)
    dst = (src + 1 + rng.integers(0, num_nodes - 1, num_edges)) % num_nodes
    tag_probs = {}
    for tag in ("a", "b"):
        ids = np.sort(
            rng.choice(num_edges, size=num_edges // 2, replace=False)
        ).astype(np.int64)
        tag_probs[tag] = (ids, rng.uniform(0.05, 0.45, ids.size))
    return TagGraph(num_nodes, src, dst.astype(np.int64), tag_probs)


GRAPH = make_graph()


def _comparable(response: dict) -> dict:
    """The deterministic slice of a wire response."""
    return {f: response[f] for f in _COMPARED_FIELDS if f in response}


def _counters(response: dict) -> dict:
    return response["report"]["metrics"]["counters"]


@pytest.fixture(scope="module", params=ENGINES)
def engine_mode(request):
    return request.param


@pytest.fixture(scope="module")
def oracle(engine_mode):
    sampler = None
    if engine_mode != "default":
        sampler = SamplingEngine(mode=engine_mode, workers=1)
    server = CampaignServer(GRAPH, config=CONFIG, sampler=sampler)
    yield server
    server.close()
    if sampler is not None:
        sampler.close()


@pytest.fixture(scope="module", params=FLEETS)
def fleet(request, engine_mode):
    engine = {} if engine_mode == "default" else {"engine_mode": engine_mode}
    service = ShardedCampaignService(
        GRAPH,
        workers=request.param,
        spec=WorkerSpec(config=CONFIG, **engine),
    )
    yield service
    service.close()


class TestAllOpsAllEnginesAllFleets:
    @pytest.mark.parametrize("op", sorted(REQUESTS))
    def test_cold_and_warm_bit_identical(self, op, oracle, fleet):
        request = REQUESTS[op]
        expected_cold = handle_request(oracle, copy.deepcopy(request))
        expected_warm = handle_request(oracle, copy.deepcopy(request))
        got_cold = handle_request(fleet, copy.deepcopy(request))
        got_warm = handle_request(fleet, copy.deepcopy(request))

        assert expected_cold["ok"] and got_cold["ok"], (
            expected_cold, got_cold,
        )
        assert _comparable(got_cold) == _comparable(expected_cold)
        assert _comparable(got_warm) == _comparable(expected_warm)
        # Work counters: the sharded cold answer accounts for exactly
        # the work the single-process cold answer does, and the warm
        # repeat merges the cached asset's build counters identically.
        assert _counters(got_cold) == _counters(expected_cold)
        assert _counters(got_warm) == _counters(expected_warm)
        # Affinity: the repeat landed on the worker holding the asset.
        assert got_warm["cache"] == expected_warm["cache"]

    def test_error_responses_identical(self, oracle, fleet):
        bad = {
            "op": "find_seeds", "targets": TARGETS, "tags": ["nope"],
            "k": 2, "engine": "trs", "seed": 0,
        }
        expected = handle_request(oracle, copy.deepcopy(bad))
        got = handle_request(fleet, copy.deepcopy(bad))
        assert not expected["ok"] and not got["ok"]
        assert got["error"] == expected["error"]
        assert got["type"] == expected["type"]


class TestScatterGather:
    @pytest.mark.parametrize("k", [1, 2, 4])
    def test_scatter_matches_monolithic_trs(self, k, oracle, fleet):
        request = {
            "op": "find_seeds", "targets": TARGETS, "tags": ["a"],
            "k": k, "engine": "trs", "seed": 9,
        }
        expected = handle_request(oracle, copy.deepcopy(request))
        got = handle_request(fleet, {**request, "scatter": True})
        assert got["ok"], got
        assert got["seeds"] == expected["seeds"]
        assert got["spread"] == expected["spread"]
        assert got["cache"] == "scatter"
        assert got["scatter"]["workers"] == fleet.num_workers
        # The partition is exhaustive: local set counts sum to θ.
        assert got["scatter"]["total_sets"] == got["scatter"]["theta"]

    def test_scatter_rejects_non_trs_engines(self, fleet, oracle):
        request = {
            "op": "find_seeds", "targets": TARGETS, "tags": ["a"],
            "k": 2, "engine": "imm", "scatter": True, "seed": 0,
        }
        response = handle_request(fleet, request)
        assert not response["ok"]
        assert response["type"] == "InvalidQueryError"


EDITS = [
    {"op": "tag_set", "edge_id": 3, "tag": "a", "prob": 0.31},
    {"op": "tag_set", "edge_id": 11, "tag": "b", "prob": 0.22},
]
MORE_EDITS = [
    {"op": "tag_set", "edge_id": 5, "tag": "a", "prob": 0.18},
]


class TestEpochBroadcast:
    @pytest.fixture(scope="class", params=(2, 4))
    def mutable_pair(self, request):
        sampler = SamplingEngine(mode="bitparallel", workers=1)
        oracle = CampaignServer(
            GRAPH, config=CONFIG, sampler=sampler, mutable=True
        )
        fleet = ShardedCampaignService(
            GRAPH,
            workers=request.param,
            spec=WorkerSpec(
                config=CONFIG, engine_mode="bitparallel", mutable=True
            ),
        )
        yield oracle, fleet
        fleet.close()
        oracle.close()
        sampler.close()

    def test_edits_advance_every_worker_to_the_same_epoch(
        self, mutable_pair
    ):
        oracle, fleet = mutable_pair
        request = REQUESTS["find_seeds"]

        expected0 = handle_request(oracle, copy.deepcopy(request))
        got0 = handle_request(fleet, copy.deepcopy(request))
        assert got0["epoch"] == expected0["epoch"] == 0
        assert _comparable(got0) == _comparable(expected0)

        expected_apply = handle_request(
            oracle, {"op": "apply_edits", "edits": EDITS}
        )
        got_apply = handle_request(
            fleet, {"op": "apply_edits", "edits": EDITS}
        )
        assert got_apply["ok"] and expected_apply["ok"]
        assert got_apply["epoch"] == expected_apply["epoch"] == 1
        assert got_apply["workers"] == fleet.num_workers
        assert fleet.epoch == 1

        # Post-edit answers are served at the new epoch on *every*
        # routed worker, and stay bit-identical to the single-process
        # mutable server's post-edit answers.
        expected1 = handle_request(oracle, copy.deepcopy(request))
        got1 = handle_request(fleet, copy.deepcopy(request))
        assert got1["epoch"] == expected1["epoch"] == 1
        assert _comparable(got1) == _comparable(expected1)

        # A second batch keeps the fleet in lockstep.
        handle_request(oracle, {"op": "apply_edits", "edits": MORE_EDITS})
        got_apply2 = handle_request(
            fleet, {"op": "apply_edits", "edits": MORE_EDITS}
        )
        assert got_apply2["epoch"] == 2
        expected2 = handle_request(oracle, copy.deepcopy(request))
        got2 = handle_request(fleet, copy.deepcopy(request))
        assert _comparable(got2) == _comparable(expected2)
        assert got2["epoch"] == 2

    def test_every_worker_reports_the_broadcast_epoch(self, mutable_pair):
        _oracle, fleet = mutable_pair
        # Probe each worker directly (broadcast bypasses the ring).
        for reply in fleet.broadcast({"op": "health"}):
            assert reply["ok"]
            assert reply["health"]["epoch"] == fleet.epoch


class TestRouterSurface:
    def test_metrics_health_events_aggregate(self):
        service = ShardedCampaignService(
            GRAPH, workers=2, spec=WorkerSpec(config=CONFIG)
        )
        try:
            request = REQUESTS["find_seeds"]
            assert handle_request(service, copy.deepcopy(request))["ok"]
            response = handle_request(service, {"op": "metrics"})
            assert response["ok"]
            counters = response["metrics"]["counters"]
            assert counters["router.dispatched"] >= 1
            assert counters.get("serve.queries", 0) >= 1
            assert set(response["workers"]) <= {"w0", "w1"}

            health = handle_request(service, {"op": "health"})["health"]
            assert health["status"] == "ok"
            assert sorted(health["workers"]) == ["w0", "w1"]
            assert health["ring"]["members"] == ["w0", "w1"]

            events = handle_request(service, {"op": "events"})
            assert events["ok"]
            kinds = {e["kind"] for e in events["events"]}
            assert "shard.worker_up" in kinds
        finally:
            service.close()

    def test_closed_service_rejects_cleanly(self):
        service = ShardedCampaignService(
            GRAPH, workers=1, spec=WorkerSpec(config=CONFIG)
        )
        service.close()
        response = handle_request(service, {"op": "ping"})
        assert not response["ok"]
        assert response["type"] == "ServerClosedError"
