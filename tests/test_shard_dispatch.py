"""How a shard worker dispatches requests, pinned end to end.

A worker's receive loop admits each query op straight into its
``CampaignServer`` class queues and replies from the server thread
that completes the query; every other op runs on a small admin pool
(see ``docs/sharding.md``). These tests pin what that dispatch must
preserve:

* a slow build on a ``pool_size=1`` worker holds up neither the
  receive loop nor the admin ops (``ping``, ``health``);
* overload and deadline rejections and validation errors reach the
  client byte for byte as the in-process server words them;
* a worker SIGKILL'd mid-burst has each outstanding retryable query
  replayed exactly once;
* ``"report": true`` replies carry the in-process report.
"""

from __future__ import annotations

import copy
import json
import os
import signal
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.core.joint import JointConfig
from repro.engine.parallel import SamplingEngine
from repro.graphs.tag_graph import TagGraph
from repro.serve import CampaignServer, ShardedCampaignService, WorkerSpec
from repro.serve.chaos import ServeFaultPlan
from repro.serve.protocol import handle_request
from repro.sketch.theta import SketchConfig

CONFIG = JointConfig(sketch=SketchConfig(theta_max=600, pilot_samples=30))
TARGETS = list(range(10, 24))


def make_graph(num_nodes: int = 40, num_edges: int = 160) -> TagGraph:
    rng = np.random.default_rng(29)
    src = rng.integers(0, num_nodes, num_edges).astype(np.int64)
    dst = (src + 1 + rng.integers(0, num_nodes - 1, num_edges)) % num_nodes
    ids = np.sort(
        rng.choice(num_edges, size=num_edges // 2, replace=False)
    ).astype(np.int64)
    return TagGraph(
        num_nodes, src, dst.astype(np.int64),
        {"a": (ids, rng.uniform(0.05, 0.4, ids.size))},
    )


GRAPH = make_graph()


def query(seed: int, **extra) -> dict:
    return {
        "op": "find_seeds", "targets": TARGETS, "tags": ["a"], "k": 2,
        "engine": "trs", "seed": seed, **extra,
    }


def wire(response: dict) -> str:
    """The reply line a client reads, timing removed."""
    response = dict(response)
    response.pop("elapsed_ms", None)
    return json.dumps(response)


def fleet(chaos=None, **spec) -> ShardedCampaignService:
    """A 1-worker fleet whose router admits whatever the worker may."""
    spec = {"config": CONFIG, "engine_mode": "bitparallel", **spec}
    return ShardedCampaignService(
        GRAPH, workers=1, spec=WorkerSpec(chaos=chaos, **spec),
        admission_capacity=64,
    )


def in_process(chaos=None, **kwargs) -> tuple[CampaignServer, SamplingEngine]:
    sampler = SamplingEngine(mode="bitparallel", workers=1)
    server = CampaignServer(
        GRAPH, config=CONFIG, sampler=sampler,
        chaos=ServeFaultPlan(**chaos) if chaos else None, **kwargs,
    )
    return server, sampler


@pytest.fixture(scope="module")
def pair():
    """An in-process server and a 1-worker fleet, same config."""
    server, sampler = in_process()
    service = fleet()
    yield server, service
    service.close()
    server.close()
    sampler.close()


def in_flight(target) -> int:
    """Queries executing on ``target``'s (only) server, from ``health``."""
    if isinstance(target, ShardedCampaignService):
        (reply,) = target.broadcast({"op": "health"})
        return reply["health"]["in_flight"]
    return target.health()["in_flight"]


def wait_until(predicate, timeout: float = 30.0) -> None:
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "condition never held"
        time.sleep(0.01)


class TestReceiveLoopNeverBlocks:
    def test_admin_ops_answer_during_a_slow_build(self):
        slow = {"seed": 1, "build_slow_rate": 1.0, "build_slow_seconds": 3.0}
        service = fleet(slow, pool_size=1, queue_capacity=4)
        try:
            with ThreadPoolExecutor(1) as pool:
                started = time.monotonic()
                cold = pool.submit(handle_request, service, query(1))
                # Once the worker's one query thread is inside the slow
                # build, its admin ops must still be answered at once.
                wait_until(lambda: in_flight(service) == 1)
                (ping,) = service.broadcast({"op": "ping"})
                (health,) = service.broadcast({"op": "health"})
                answered = time.monotonic() - started
                assert not cold.done()
                assert cold.result(timeout=60)["ok"]
            assert ping == {"ok": True, "pong": True}
            assert health["ok"] and health["health"]["in_flight"] == 1
            assert answered < 2.0, f"admin ops waited {answered:.2f}s"
        finally:
            service.close()


class TestErrorRepliesMatchInProcess:
    """Error replies are built once, wherever the query was refused."""

    SLOW = {"seed": 2, "build_slow_rate": 1.0, "build_slow_seconds": 1.5}

    def _both(self, chaos, **kwargs):
        server, sampler = in_process(chaos, **kwargs)
        service = fleet(chaos, **kwargs)
        return server, sampler, service

    def test_overload_rejection_is_byte_identical(self):
        server, sampler, service = self._both(
            self.SLOW, pool_size=1, queue_capacity=0
        )
        try:
            replies = []
            for target in (server, service):
                with ThreadPoolExecutor(1) as pool:
                    busy = pool.submit(handle_request, target, query(1))
                    # Wait until the one slot is inside the build.
                    wait_until(lambda: in_flight(target) == 1)
                    replies.append(handle_request(target, query(2, id=7)))
                    assert busy.result(timeout=60)["ok"]
            expected, got = replies
            assert expected["error"]["code"] == "overloaded"
            assert wire(got) == wire(expected)
        finally:
            service.close()
            server.close()
            sampler.close()

    def test_deadline_rejection_is_byte_identical(self):
        # A clock skew past the deadline makes admission refuse the
        # query with a prediction that does not depend on timing.
        skew = {"seed": 3, "deadline_skew_s": 0.25}
        server, sampler, service = self._both(skew)
        try:
            request = query(3, deadline=0.1, id="d-1", **{"class": "batch"})
            expected = handle_request(server, copy.deepcopy(request))
            got = handle_request(service, copy.deepcopy(request))
            assert expected["error"]["code"] == "deadline"
            assert wire(got) == wire(expected)
        finally:
            service.close()
            server.close()
            sampler.close()

    @pytest.mark.parametrize("request_", [
        query(0, tags=["nope"], id=1),
        query(0, targets=[0, 999], id=2),
        query(0, engine="bogus", id=3),
        query(0, k="two", id=4),
        {"op": "find_seeds", "targets": TARGETS, "tags": ["a"], "id": 5},
        query(0, **{"class": "vip"}, id=6),
        {"op": "spread", "seeds": [0], "tags": ["a"], "id": 7},
    ], ids=["unknown-tag", "target-range", "engine", "k-type", "missing-k",
            "qos-class", "missing-targets"])
    def test_validation_errors_are_byte_identical(self, pair, request_):
        server, service = pair
        expected = handle_request(server, copy.deepcopy(request_))
        got = handle_request(service, copy.deepcopy(request_))
        assert not expected["ok"]
        assert wire(got) == wire(expected)


class TestKillMidBurst:
    def test_each_outstanding_query_is_replayed_exactly_once(self):
        with fleet() as clean:
            oracle = {
                seed: wire(handle_request(clean, query(seed)))
                for seed in range(6)
            }
        slow = {"seed": 4, "build_slow_rate": 1.0, "build_slow_seconds": 0.4}
        service = fleet(slow, pool_size=1, queue_capacity=8)
        try:
            pid = service.worker_pids()["w0"]
            with ThreadPoolExecutor(6) as pool:
                futures = {
                    seed: pool.submit(handle_request, service, query(seed))
                    for seed in range(6)
                }
                wait_until(lambda: sum(
                    f.done() for f in futures.values()) >= 1)
                os.kill(pid, signal.SIGKILL)
                replies = {
                    seed: f.result(timeout=120)
                    for seed, f in futures.items()
                }
            assert {s: wire(r) for s, r in replies.items()} == oracle
            (down,) = [
                e for e in service.events.snapshot()
                if e["kind"] == "shard.worker_down"
            ]
            orphaned = down["attrs"]["orphaned"]
            assert 1 <= orphaned <= 5
            metrics = service.metrics()
            assert metrics["counters"]["router.retries"] == orphaned
            # The respawned worker ran each replayed query once, no more.
            assert metrics["counters"]["serve.queries"] == orphaned
        finally:
            service.close()


class TestReportReplies:
    def test_report_replies_match_in_process(self, pair):
        server, service = pair
        for request in (query(5), query(5, report=True),
                        query(5, report=True, id="r")):
            expected = handle_request(server, copy.deepcopy(request))
            got = handle_request(service, copy.deepcopy(request))
            assert got.keys() == expected.keys()
            assert ("report" in got) == bool(request.get("report"))
            if "report" not in expected:
                assert wire(got) == wire(expected)
                continue
            want, have = expected.pop("report"), got.pop("report")
            assert wire(got) == wire(expected)
            assert have.keys() == want.keys()
            assert have["metrics"]["counters"]["rr.samples_drawn"] > 0
            assert have["metrics"]["counters"] == (
                want["metrics"]["counters"]
            )
            assert [p["name"] for p in have["phases"]] == [
                p["name"] for p in want["phases"]
            ]

            def names(spans):
                return [(s["name"], names(s.get("children") or []))
                        for s in spans]

            assert names(have["trace"]) == names(want["trace"])
