"""Fleet tracing differential suite: one stitched trace, zero perturbation.

The distributed-tracing contract (``repro.obs.distributed``) layered on
the sharded campaign service:

* one routed query — affinity or scatter — yields ONE stitched Chrome
  trace: a single ``trace_id``, every worker span grafted under the
  router's ``serve.query`` span via resolvable parent links, and all
  timestamps/durations non-negative after clock alignment;
* tracing is *observation only*: answers and the inlined observability
  work counters are bit-identical with tracing on and off;
* a SIGKILL'd worker mid-stream still leaves a parseable stitched
  trace, and the respawned worker ships spans under a fresh clock
  offset;
* the slow-query flight recorder retains rejections / deadline misses /
  slow queries with their QoS decisions and stitched trace, bounded.

Plus unit coverage for the building blocks: trace-context propagation,
the flight-recorder ring, metrics-merge hardening against mid-scrape
worker death, and the causal event merge (schema ``repro.obs.events/2``).
"""

from __future__ import annotations

import copy
import json
import os
import signal
import time
import urllib.request

import numpy as np
import pytest

from repro.core.joint import JointConfig
from repro.graphs.tag_graph import TagGraph
from repro.obs.distributed import (
    FLIGHT_SCHEMA,
    TRACE_CONTEXT_KEY,
    TRACE_SCHEMA,
    FlightRecorder,
    TraceContext,
    merge_event_payloads,
)
from repro.obs.events import EVENTS_SCHEMA
from repro.obs.live import TelemetryEndpoint, merge_metrics_snapshots
from repro.serve import (
    CampaignServer,
    QosConfig,
    ShardedCampaignService,
    WorkerSpec,
)
from repro.serve.protocol import handle_request
from repro.sketch.theta import SketchConfig

FAST_SKETCH = SketchConfig(theta_max=800, pilot_samples=30)
CONFIG = JointConfig(sketch=FAST_SKETCH)

TARGETS = list(range(8, 20))

REQUESTS = {
    "find_seeds": {
        "op": "find_seeds", "targets": TARGETS, "tags": ["a"], "k": 2,
        "engine": "trs", "seed": 3, "report": True,
    },
    "find_tags": {
        "op": "find_tags", "seeds": [0, 3], "targets": TARGETS,
        "r": 1, "seed": 1, "report": True,
    },
    "joint": {
        "op": "joint", "targets": TARGETS, "k": 2, "r": 1, "seed": 2,
        "report": True,
    },
    "spread": {
        "op": "spread", "seeds": [0, 3], "targets": TARGETS,
        "tags": ["a", "b"], "num_samples": 60, "seed": 5, "report": True,
    },
}

SCATTER_REQUEST = {
    "op": "find_seeds", "targets": TARGETS, "tags": ["a"], "k": 2,
    "engine": "trs", "seed": 9, "scatter": True,
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
    return {f: response[f] for f in _COMPARED_FIELDS if f in response}


def _counters(response: dict) -> dict:
    return response["report"]["metrics"]["counters"]


def _complete_events(trace: list) -> list:
    return [e for e in trace if e.get("ph") == "X"]


def _assert_stitched(trace: list, *, min_pids: int) -> str:
    """One trace: single id, resolvable parents, aligned clocks."""
    spans = _complete_events(trace)
    assert spans, trace
    trace_ids = {e["args"]["trace_id"] for e in spans}
    assert len(trace_ids) == 1, trace_ids
    pids = {e["pid"] for e in spans}
    assert len(pids) >= min_pids, pids
    by_id = {e["args"]["span_id"]: e for e in spans}
    for event in spans:
        assert event["ts"] >= 0 and event["dur"] >= 0, event
        parent = event["args"].get("parent_span_id")
        if parent is None:
            continue
        assert parent in by_id, (event["name"], parent)
        parent_event = by_id[parent]
        # Clock alignment: a child never starts before its parent.
        assert event["ts"] >= parent_event["ts"] - 1, (
            event["name"], parent_event["name"],
        )
    roots = [
        e for e in spans if e["args"].get("parent_span_id") is None
    ]
    assert len(roots) == 1 and roots[0]["name"] == "serve.query", roots
    return trace_ids.pop()


# ---------------------------------------------------------------------------
# Unit: trace-context propagation
# ---------------------------------------------------------------------------


class TestTraceContext:
    def test_round_trip(self):
        ctx = TraceContext("t-1", "abc-1")
        assert TraceContext.from_dict(ctx.as_dict()) == ctx

    def test_root_context_elides_parent(self):
        assert TraceContext("t-1").as_dict() == {"trace_id": "t-1"}

    @pytest.mark.parametrize("payload", [
        None, "t-1", 7, [], {}, {"trace_id": ""}, {"trace_id": 3},
        {"parent_span_id": "abc"},
    ])
    def test_malformed_yields_none_never_raises(self, payload):
        assert TraceContext.from_dict(payload) is None

    def test_non_string_parent_degrades_to_root(self):
        ctx = TraceContext.from_dict({"trace_id": "t-1", "parent_span_id": 5})
        assert ctx == TraceContext("t-1", None)

    def test_pop_from_strips_the_wire_key(self):
        request = {"op": "ping", TRACE_CONTEXT_KEY: {"trace_id": "t-9"}}
        ctx = TraceContext.pop_from(request)
        assert ctx == TraceContext("t-9")
        assert TRACE_CONTEXT_KEY not in request
        assert TraceContext.pop_from({"op": "ping"}) is None
        assert TraceContext.pop_from("not a dict") is None


# ---------------------------------------------------------------------------
# Unit: flight recorder
# ---------------------------------------------------------------------------


class TestFlightRecorder:
    def test_should_record_matrix(self):
        rec = FlightRecorder(4, slow_ms=100.0)
        assert rec.should_record(failed=True)
        assert not rec.should_record()
        assert rec.should_record(elapsed_ms=250.0)            # slow
        assert not rec.should_record(elapsed_ms=50.0)
        assert rec.should_record(elapsed_ms=50.0, deadline_ms=20.0)
        assert not rec.should_record(elapsed_ms=50.0, deadline_ms=80.0)

    def test_no_slow_threshold_only_failures_and_misses(self):
        rec = FlightRecorder(4)
        assert not rec.should_record(elapsed_ms=10_000.0)
        assert rec.should_record(elapsed_ms=10.0, deadline_ms=5.0)
        assert rec.should_record(failed=True)

    def test_ring_is_bounded_and_total_is_lifetime(self):
        rec = FlightRecorder(3)
        for i in range(5):
            rec.record(reason="slow", op=f"q{i}")
        assert len(rec) == 3
        payload = rec.payload()
        assert payload["schema"] == FLIGHT_SCHEMA
        assert payload["total"] == 5
        assert [r["op"] for r in payload["records"]] == ["q2", "q3", "q4"]
        assert [r["op"] for r in rec.snapshot(limit=1)] == ["q4"]

    def test_none_fields_are_elided(self):
        rec = FlightRecorder(2)
        entry = rec.record(reason="rejected", code="shed", trace=None)
        assert "trace" not in entry
        assert entry["code"] == "shed"

    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            FlightRecorder(0)


# ---------------------------------------------------------------------------
# Unit: metrics merge hardened against mid-scrape death
# ---------------------------------------------------------------------------


class TestMetricsMergeHardening:
    GOOD = {
        "counters": {"serve.queries": 3},
        "gauges": {"serve.inflight": 1},
        "histograms": {
            "serve.op.latency_ms.find_seeds": {
                "count": 2, "sum": 30.0, "min": 10.0, "max": 20.0,
                "buckets": {"4": 1, "5": 1},
            },
        },
    }

    def test_dead_worker_snapshot_is_skipped_not_fatal(self):
        merged = merge_metrics_snapshots([self.GOOD, None, "garbage"])
        assert merged["counters"]["serve.queries"] == 3
        assert merged["gauges"]["serve.inflight"] == 1

    def test_malformed_values_are_skipped(self):
        junk = {
            "counters": {"serve.queries": "NaN-ish", "extra": 2},
            "gauges": {"serve.inflight": None},
            "histograms": {
                "h": "not a dict",
                "serve.op.latency_ms.find_seeds": {
                    "count": 1, "sum": 5.0,
                    "buckets": {"bad-edge": 1, "4": None, "6": 2},
                },
            },
        }
        merged = merge_metrics_snapshots([self.GOOD, junk])
        assert merged["counters"]["serve.queries"] == 3  # junk skipped
        assert merged["counters"]["extra"] == 2
        hist = merged["histograms"]["serve.op.latency_ms.find_seeds"]
        assert hist["count"] == 3
        assert hist["buckets"] == {"4": 1, "5": 1, "6": 2}

    def test_all_dead_yields_empty_document(self):
        merged = merge_metrics_snapshots([None, None])
        assert merged["counters"] == {}
        assert merged["gauges"] == {}


# ---------------------------------------------------------------------------
# Unit: causal event merge (repro.obs.events/2)
# ---------------------------------------------------------------------------


def _event(ts, seq, kind="query.done", **attrs):
    record = {"ts": ts, "seq": seq, "kind": kind}
    if attrs:
        record["attrs"] = attrs
    return record


def _payload(events):
    return {"capacity": 64, "total": len(events), "dropped": 0,
            "sink_errors": 0, "events": events}


class TestMergeEventPayloads:
    def test_causal_order_and_worker_epoch_labels(self):
        merged = merge_event_payloads({
            "w1": _payload([_event(2.0, 1), _event(4.0, 2)]),
            "router": _payload([_event(1.0, 1), _event(3.0, 2)]),
        }, epoch=7)
        assert merged["schema"] == EVENTS_SCHEMA
        stream = merged["events"]
        assert [e["ts"] for e in stream] == [1.0, 2.0, 3.0, 4.0]
        assert [e["worker"] for e in stream] == [
            "router", "w1", "router", "w1",
        ]
        assert all(e["epoch"] == 7 for e in stream)

    def test_record_epoch_wins_over_fleet_epoch(self):
        merged = merge_event_payloads(
            {"w0": _payload([_event(1.0, 1, epoch=3)])}, epoch=9,
        )
        assert merged["events"][0]["epoch"] == 3

    def test_tie_breaks_stable_by_worker_then_seq(self):
        merged = merge_event_payloads({
            "w1": _payload([_event(1.0, 2), _event(1.0, 1)]),
            "w0": _payload([_event(1.0, 5)]),
        })
        assert [(e["worker"], e["seq"]) for e in merged["events"]] == [
            ("w0", 5), ("w1", 1), ("w1", 2),
        ]

    def test_dead_source_is_a_labeled_gap(self):
        merged = merge_event_payloads({
            "w0": _payload([_event(1.0, 1)]),
            "w1": None,
        })
        assert merged["sources"]["w1"] == {"unreachable": True}
        assert merged["unreachable_sources"] == 1
        assert len(merged["events"]) == 1

    def test_limit_keeps_the_newest(self):
        merged = merge_event_payloads(
            {"w0": _payload([_event(float(i), i) for i in range(5)])},
            limit=2,
        )
        assert [e["ts"] for e in merged["events"]] == [3.0, 4.0]


# ---------------------------------------------------------------------------
# Fleet integration: stitching, differential, respawn, flight recorder
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def traced_fleet():
    service = ShardedCampaignService(
        GRAPH,
        workers=2,
        spec=WorkerSpec(config=CONFIG, engine_mode="bitparallel"),
        tracing=True,
    )
    yield service
    service.close()


@pytest.fixture(scope="module")
def plain_fleet():
    service = ShardedCampaignService(
        GRAPH,
        workers=2,
        spec=WorkerSpec(config=CONFIG, engine_mode="bitparallel"),
    )
    yield service
    service.close()


class TestFleetStitching:
    def test_affinity_query_yields_one_stitched_trace(self, traced_fleet):
        response = handle_request(
            traced_fleet, copy.deepcopy(REQUESTS["find_seeds"])
        )
        assert response["ok"], response
        trace = traced_fleet.chrome_trace()
        # Affinity routes to exactly one worker: router + worker pids.
        _assert_stitched(
            [e for e in trace
             if e.get("ph") != "X"
             or e["args"]["trace_id"] == "t-000001"],
            min_pids=2,
        )
        names = {e["name"] for e in _complete_events(trace)}
        assert "serve.query" in names

    def test_scatter_covers_every_worker_in_one_trace(self, traced_fleet):
        response = handle_request(
            traced_fleet, copy.deepcopy(SCATTER_REQUEST)
        )
        assert response["ok"], response
        assert response["cache"] == "scatter"
        trace_id = sorted(traced_fleet._trace.trace_ids())[-1]
        trace = traced_fleet.chrome_trace(trace_id)
        # Router + both workers contribute spans to the single trace.
        _assert_stitched(trace, min_pids=3)
        names = {e["name"] for e in _complete_events(trace)}
        assert {"serve.query", "shard.build", "shard.pick"} <= names
        # Full document parses as Chrome trace JSON.
        parsed = json.loads(json.dumps(traced_fleet.chrome_trace()))
        assert any(
            e.get("ph") == "M" and e.get("name") == "process_name"
            for e in parsed
        )

    def test_wire_trace_and_flightrec_ops(self, traced_fleet):
        response = handle_request(traced_fleet, {"op": "trace"})
        assert response["ok"]
        assert response["schema"] == TRACE_SCHEMA
        assert response["enabled"] is True
        assert response["traces"] >= 1

        response = handle_request(traced_fleet, {"op": "flightrec"})
        assert response["ok"]
        assert response["schema"] == FLIGHT_SCHEMA

    def test_trace_off_serves_the_disabled_document(self, plain_fleet):
        response = handle_request(plain_fleet, {"op": "trace"})
        assert response["ok"]
        assert response["enabled"] is False
        assert plain_fleet.chrome_trace() == []

    def test_clock_offsets_measured_per_worker(self, traced_fleet):
        health = traced_fleet.health()
        assert health["tracing"] is True
        for worker in health["workers"].values():
            assert "clock_offset_ms" in worker
            # Offsets are one-way-latency biased: small and >= 0.
            assert 0.0 <= worker["clock_offset_ms"] < 1000.0


class TestTracingIsObservationOnly:
    @pytest.mark.parametrize("op", sorted(REQUESTS))
    def test_answers_and_work_counters_bit_identical(
        self, op, traced_fleet, plain_fleet
    ):
        request = REQUESTS[op]
        expected = handle_request(plain_fleet, copy.deepcopy(request))
        got = handle_request(traced_fleet, copy.deepcopy(request))
        assert expected["ok"] and got["ok"], (expected, got)
        assert _comparable(got) == _comparable(expected)
        assert _counters(got) == _counters(expected)

    def test_scatter_answers_bit_identical(self, traced_fleet, plain_fleet):
        expected = handle_request(plain_fleet, copy.deepcopy(SCATTER_REQUEST))
        got = handle_request(traced_fleet, copy.deepcopy(SCATTER_REQUEST))
        assert got["seeds"] == expected["seeds"]
        assert got["spread"] == expected["spread"]
        assert got["scatter"] == expected["scatter"]

    def test_replies_carry_no_span_residue(self, traced_fleet):
        response = handle_request(
            traced_fleet, copy.deepcopy(REQUESTS["spread"])
        )
        assert "_spans" not in response
        assert "_trace" not in response


class TestRespawnMidStream:
    def test_sigkill_still_yields_parseable_stitched_trace(self):
        service = ShardedCampaignService(
            GRAPH,
            workers=2,
            spec=WorkerSpec(config=CONFIG, engine_mode="bitparallel"),
            tracing=True,
        )
        try:
            assert handle_request(
                service, copy.deepcopy(SCATTER_REQUEST)
            )["ok"]
            victim_pid = service.worker_pids()["w0"]
            os.kill(victim_pid, signal.SIGKILL)
            # The next query triggers detection + respawn + retry.
            response = handle_request(
                service, copy.deepcopy(SCATTER_REQUEST)
            )
            assert response["ok"], response
            deadline = time.monotonic() + 30.0
            while service.health()["workers"]["w0"]["respawns"] == 0:
                assert time.monotonic() < deadline, "respawn never happened"
                time.sleep(0.05)
            # The whole collector output still parses and stitches.
            trace = json.loads(json.dumps(service.chrome_trace()))
            spans = _complete_events(trace)
            assert spans
            for event in spans:
                assert event["ts"] >= 0 and event["dur"] >= 0
            # The respawned worker ships spans under its fresh clock:
            # a post-respawn query contributes its new pid.
            assert handle_request(
                service, copy.deepcopy(SCATTER_REQUEST)
            )["ok"]
            new_pid = service.worker_pids()["w0"]
            assert new_pid != victim_pid
            pids = {e["pid"] for e in
                    _complete_events(service.chrome_trace())}
            assert new_pid in pids
            offset = service.health()["workers"]["w0"]["clock_offset_ms"]
            assert 0.0 <= offset < 1000.0
        finally:
            service.close()


class TestFleetFlightRecorder:
    def test_rejection_and_deadline_miss_are_recorded(self, traced_fleet):
        before = traced_fleet.flightrec.payload()["total"]
        request = {
            **copy.deepcopy(REQUESTS["find_seeds"]),
            "deadline": 1e-9,
        }
        response = handle_request(traced_fleet, request)
        assert not response["ok"]
        payload = traced_fleet.flightrec.payload()
        assert payload["total"] > before
        record = payload["records"][-1]
        assert record["reason"] in ("rejected", "deadline_miss")
        assert record["op"] == "find_seeds"
        assert record["trace_id"]

    def test_validation_errors_are_not_flight_worthy(self, traced_fleet):
        before = traced_fleet.flightrec.payload()["total"]
        response = handle_request(traced_fleet, {
            "op": "find_seeds", "targets": TARGETS, "tags": ["nope"],
            "k": 2, "engine": "trs", "seed": 0,
        })
        assert not response["ok"]
        assert traced_fleet.flightrec.payload()["total"] == before


# ---------------------------------------------------------------------------
# HTTP surface: /trace and /debug/slow
# ---------------------------------------------------------------------------


def _get(url):
    with urllib.request.urlopen(url, timeout=5.0) as resp:
        return resp.status, resp.read().decode("utf-8")


class TestHttpSurface:
    def test_trace_and_debug_slow_routes(self):
        server = CampaignServer(
            GRAPH, config=CONFIG, pool_size=2, tracing=True,
            qos=QosConfig(flight_slow_ms=0.0),
        )
        try:
            assert handle_request(
                server, copy.deepcopy(REQUESTS["find_seeds"])
            )["ok"]
            with TelemetryEndpoint(server) as endpoint:
                status, body = _get(endpoint.url + "/trace")
                assert status == 200
                payload = json.loads(body)
                assert payload["schema"] == TRACE_SCHEMA
                assert payload["enabled"] is True
                assert payload["events"]

                # slow_ms=0 makes every completed query flight-worthy.
                status, body = _get(endpoint.url + "/debug/slow")
                assert status == 200
                flight = json.loads(body)
                assert flight["schema"] == FLIGHT_SCHEMA
                assert flight["records"]
                assert flight["records"][-1]["reason"] == "slow"

                status, body = _get(endpoint.url + "/debug/slow?limit=1")
                assert len(json.loads(body)["records"]) == 1
        finally:
            server.close()

    def test_untraced_server_serves_disabled_trace(self):
        server = CampaignServer(GRAPH, config=CONFIG, pool_size=2)
        try:
            with TelemetryEndpoint(server) as endpoint:
                status, body = _get(endpoint.url + "/trace")
                assert status == 200
                payload = json.loads(body)
                assert payload["enabled"] is False

                status, body = _get(endpoint.url + "/debug/slow")
                assert status == 200
                assert json.loads(body)["schema"] == FLIGHT_SCHEMA
        finally:
            server.close()
