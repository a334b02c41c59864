"""One query lifecycle on both server kinds: admin-op and flight-record parity.

``repro.serve.protocol`` dispatches every admin op through one table to
same-named methods of a :class:`~repro.serve.CampaignServer` or a
:class:`~repro.serve.ShardedCampaignService`, and
:meth:`~repro.obs.distributed.FlightRecorder.record_query` builds every
flight record on both. So, for the same requests:

* every admin op gets the same ``ok`` from both kinds, and the fleet adds
  only its documented fleet fields;
* an unknown op gets the same error from both;
* a slow query and an admission rejection leave flight records with the
  same top-level keys and the same ``decisions`` keys;
* ``protocol.warm`` runs a warm list the way the wire would, so an
  ``apply_edits`` in it moves every fleet worker to the same epoch.
"""

from __future__ import annotations

import gc
import threading
import time
import weakref

import numpy as np
import pytest

from repro.core.joint import JointConfig
from repro.exceptions import ReproError
from repro.graphs.tag_graph import TagGraph
from repro.serve import (
    CampaignServer,
    QosConfig,
    ServeFaultPlan,
    ShardedCampaignService,
    WorkerSpec,
)
from repro.serve.protocol import handle_request, warm
from repro.sketch.theta import SketchConfig

CONFIG = JointConfig(sketch=SketchConfig(theta_max=400, pilot_samples=30))
#: Every completed query is flight-worthy.
QOS = QosConfig(flight_slow_ms=0.0)
TARGETS = list(range(8, 20))
FIND_SEEDS = {
    "op": "find_seeds", "targets": TARGETS, "tags": ["a"], "k": 2,
    "engine": "trs", "seed": 3, "class": "batch",
}

#: Documented fleet-only reply fields (docs/sharding.md).
FLEET_ONLY = {
    "ping": {"workers"},
    "metrics": {"workers"},
    "events": {"sources", "unreachable_sources"},
}
ADMIN_OPS = ("ping", "metrics", "health", "events", "trace", "flightrec")


def _graph() -> TagGraph:
    rng = np.random.default_rng(11)
    num_nodes, num_edges = 40, 160
    src = rng.integers(0, num_nodes, num_edges).astype(np.int64)
    dst = (src + 1 + rng.integers(0, num_nodes - 1, num_edges)) % num_nodes
    tag_probs = {}
    for tag in ("a", "b"):
        ids = np.sort(
            rng.choice(num_edges, size=num_edges // 2, replace=False)
        ).astype(np.int64)
        tag_probs[tag] = (ids, rng.uniform(0.05, 0.45, ids.size))
    return TagGraph(num_nodes, src, dst.astype(np.int64), tag_probs)


GRAPH = _graph()


@pytest.fixture(scope="module", params=[False, True], ids=["plain", "traced"])
def pair(request):
    """An in-process server and a 1-worker fleet, same config and QoS."""
    tracing = request.param
    server = CampaignServer(GRAPH, config=CONFIG, qos=QOS, tracing=tracing)
    fleet = ShardedCampaignService(
        GRAPH, workers=1, spec=WorkerSpec(config=CONFIG, qos=QOS),
        tracing=tracing, share_graph=False,
    )
    yield server, fleet
    fleet.close()
    server.close()


def _last_record(kind) -> dict:
    return kind.flight_payload()["records"][-1]


def _shape(record: dict) -> tuple:
    return set(record), set(record["decisions"])


class TestAdminOpParity:
    @pytest.mark.parametrize("op", ADMIN_OPS)
    def test_same_ok_and_only_fleet_fields_extra(self, pair, op):
        server, fleet = pair
        local = handle_request(server, {"op": op})
        routed = handle_request(fleet, {"op": op})
        assert local["ok"] is True, local
        assert routed["ok"] is True, routed
        assert set(local) <= set(routed)
        assert set(routed) - set(local) <= FLEET_ONLY.get(op, set())

    def test_unknown_op_gets_one_error(self, pair):
        server, fleet = pair
        local = handle_request(server, {"op": "nope", "id": 7})
        routed = handle_request(fleet, {"op": "nope", "id": 7})
        assert local["ok"] is False
        assert local == routed
        assert local["type"] == "ReproError"
        for op in ADMIN_OPS:
            assert repr(op) in local["error"]


class TestFlightRecordParity:
    def test_slow_query_records_one_shape(self, pair):
        server, fleet = pair
        local = handle_request(server, dict(FIND_SEEDS))
        routed = handle_request(fleet, dict(FIND_SEEDS))
        assert local["ok"] and routed["ok"], (local, routed)
        assert routed["seeds"] == local["seeds"]
        records = [_last_record(server), _last_record(fleet)]
        assert _shape(records[0]) == _shape(records[1])
        for record in records:
            assert record["reason"] == "slow"
            assert record["op"] == "find_seeds"
            decisions = record["decisions"]
            assert decisions["class"] == FIND_SEEDS["class"]
            assert decisions["tier"] == "full"
            assert decisions["degraded"] is None
            assert decisions["epoch"] == 0
            assert decisions["queue_wait_ms"] >= 0.0

    def test_admission_rejection_records_one_shape(self):
        """Both kinds reject at admission while their one slot is held."""
        slow_build = {
            "seed": 1, "build_slow_rate": 1.0, "build_slow_seconds": 1.0,
        }
        server = CampaignServer(
            GRAPH, config=CONFIG, qos=QOS, pool_size=1, queue_capacity=0,
            chaos=ServeFaultPlan(**slow_build),
        )
        fleet = ShardedCampaignService(
            GRAPH, workers=1, admission_capacity=1, share_graph=False,
            spec=WorkerSpec(config=CONFIG, qos=QOS, chaos=slow_build),
        )
        try:
            records = [
                self._reject_while_busy(server, lambda: server.health()[
                    "in_flight"
                ]),
                self._reject_while_busy(fleet, lambda: fleet.health()[
                    "admission"
                ]["in_flight"]),
            ]
        finally:
            fleet.close()
            server.close()
        assert _shape(records[0]) == _shape(records[1])
        for record in records:
            assert record["reason"] == "rejected"
            assert record["phase"] == "admission"
            assert record["code"] == "overloaded"
            assert record["decisions"]["class"] == "interactive"

    @staticmethod
    def _reject_while_busy(kind, in_flight) -> dict:
        busy = threading.Thread(
            target=handle_request,
            args=(kind, {**FIND_SEEDS, "seed": 11, "class": "interactive"}),
        )
        busy.start()
        try:
            deadline = time.monotonic() + 30.0
            while not in_flight():
                assert time.monotonic() < deadline, "slot never taken"
                time.sleep(0.01)
            response = handle_request(
                kind, {**FIND_SEEDS, "seed": 12, "class": "interactive"}
            )
        finally:
            busy.join()
        assert response["ok"] is False
        assert response["error"]["code"] == "overloaded"
        # The held query's own (slow) record may land after this one.
        records = kind.flight_payload()["records"]
        return [r for r in records if r["reason"] == "rejected"][-1]


EDIT = {"op": "apply_edits",
        "edits": [{"op": "tag_set", "edge_id": 3, "tag": "a", "prob": 0.3}]}


class TestWarm:
    def test_fleet_warm_edit_reaches_every_worker(self):
        fleet = ShardedCampaignService(
            GRAPH, workers=2, share_graph=False,
            spec=WorkerSpec(config=CONFIG, mutable=True),
        )
        try:
            assert warm(fleet, [dict(FIND_SEEDS), EDIT]) == 2
            epochs = [reply["health"]["epoch"]
                      for reply in fleet.broadcast({"op": "health"})]
            assert epochs == [1, 1]
            assert fleet.health()["epoch"] == 1
        finally:
            fleet.close()

    def test_in_process_warm_edit_advances_epoch(self):
        with CampaignServer(GRAPH, config=CONFIG, mutable=True) as server:
            assert warm(server, [EDIT, dict(FIND_SEEDS)]) == 2
            assert server.health()["epoch"] == 1
            repeat = handle_request(server, dict(FIND_SEEDS))
            assert repeat["cache"] == "hit"  # the warm list built it

    def test_failed_warm_request_raises_on_both_kinds(self, pair):
        for kind in pair:
            with pytest.raises(ReproError, match="warm request failed"):
                warm(kind, [{"op": "find_seeds", "targets": TARGETS}])

    def test_route_request_routes_query_ops_only(self, pair):
        _server, fleet = pair
        for op in ("apply_edits", "warm_index", "ping", "nope"):
            with pytest.raises(ReproError, match="query ops only"):
                fleet.route_request({**EDIT, "op": op})


class TestCloseFreesTheServer:
    """A closed, dropped server and its graph are freed by reference
    counting alone: the server owns no reference cycle (its cache and
    breaker callbacks hold it weakly), so repeated set-ups do not pile
    up servers until the cyclic GC runs."""

    @pytest.mark.parametrize("kind", ["plain", "mutable", "engine"])
    def test_closed_server_is_freed_without_the_cyclic_gc(self, kind):
        from repro.engine import SamplingEngine

        def run():
            graph = _graph()
            # "engine" is a fleet worker's set-up: an explicit serial
            # engine that outlives the server.
            kwargs = {
                "plain": {},
                "mutable": {"mutable": True},
                "engine": {"sampler": SamplingEngine()},
            }[kind]
            server = CampaignServer(graph, config=CONFIG, **kwargs)
            assert handle_request(server, dict(FIND_SEEDS))["ok"]
            assert handle_request(server, {
                "op": "spread", "seeds": [0, 3], "targets": TARGETS,
                "tags": ["a"], "num_samples": 40, "seed": 1,
            })["ok"]
            assert server._breakers  # the callbacks are registered
            server.close()
            return weakref.ref(server), weakref.ref(graph)

        gc.collect()
        gc.disable()
        try:
            server_ref, graph_ref = run()
            assert server_ref() is None
            assert graph_ref() is None
        finally:
            gc.enable()
