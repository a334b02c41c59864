"""Load-generator suite: synthesis determinism, exact accounting, report.

The traffic generator's claims:

* The synthesized query sequence is a pure function of the
  :class:`LoadSpec` seed (replayable load tests), Zipf-shaped over tags
  and overlapping target sets (so the asset cache is actually
  exercised), and respects the configured class/op mixes.
* ``run_rate`` accounts every issued query in exactly one of
  done / degraded / rejected / errors — in open *and* closed loop.
* ``capacity_report`` emits the ``repro.bench.load/1`` document that
  ``scripts/check_bench.py`` gates in CI.
* ``replay_ops_from_events`` lifts an (op, class) sequence from a
  ``--events-out`` JSONL, skipping torn lines.
"""

from __future__ import annotations

import json
import sys
from collections import Counter
from pathlib import Path

import pytest

from repro.core.joint import JointConfig
from repro.exceptions import ConfigurationError
from repro.serve import CampaignServer
from repro.serve.chaos import ServeFaultPlan
from repro.serve.loadgen import (
    LOAD_SCHEMA,
    LoadSpec,
    QuerySpec,
    RateResult,
    capacity_report,
    replay_ops_from_events,
    run_rate,
    synthesize_queries,
)
from repro.sketch.theta import SketchConfig

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "scripts"))
from check_bench import check_load, detect_kind  # noqa: E402

FAST_SKETCH = SketchConfig(theta_max=1_000, pilot_samples=50)

#: Small, fast workload over the 9-node fig9 graph.
TINY = LoadSpec(
    seed=0,
    queries_per_rate=12,
    rates=(200.0,),
    target_size=4,
    target_pool=3,
    spread_samples=20,
    slo_p95_ms=60_000.0,  # generous: this suite tests plumbing, not perf
)


def _server(graph, **kwargs):
    kwargs.setdefault("config", JointConfig(sketch=FAST_SKETCH))
    kwargs.setdefault("pool_size", 4)
    return CampaignServer(graph, **kwargs)


class TestSynthesis:
    def test_deterministic_in_seed(self, fig9_graph):
        a = synthesize_queries(fig9_graph, TINY)
        b = synthesize_queries(fig9_graph, TINY)
        assert a == b
        different = synthesize_queries(
            fig9_graph, LoadSpec(**{**TINY.__dict__, "seed": 1})
        )
        assert a != different

    def test_respects_mixes_and_shape(self, fig9_graph):
        spec = LoadSpec(
            seed=3, queries_per_rate=200, rates=(1.0,),
            class_mix=(("interactive", 1.0),),
            op_mix=(("find_seeds", 1.0),),
            tags_per_query=2, target_size=4,
        )
        queries = synthesize_queries(fig9_graph, spec)
        assert len(queries) == 200
        assert {q.qos_class for q in queries} == {"interactive"}
        assert {q.op for q in queries} == {"find_seeds"}
        for q in queries:
            kwargs = q.kwargs()
            assert len(kwargs["tags"]) == 2
            assert len(set(kwargs["tags"])) == 2
            assert all(0 <= t < 9 for t in kwargs["targets"])
            # Interactive queries carry the SLO-derived deadline.
            assert q.deadline == pytest.approx(
                spec.interactive_deadline_factor * spec.slo_p95_ms / 1000.0
            )

    def test_zipf_head_is_hot(self, fig9_graph):
        """Rank-0 tag dominates: the workload is genuinely skewed."""
        spec = LoadSpec(
            seed=0, queries_per_rate=400, rates=(1.0,),
            zipf_s=1.2, tags_per_query=1,
        )
        queries = synthesize_queries(fig9_graph, spec)
        counts = Counter(
            q.kwargs()["tags"][0] for q in queries
            if "tags" in q.kwargs()
        )
        hottest = counts.most_common(1)[0][1]
        assert hottest > len(queries) / 4  # >> uniform share (1/6)

    def test_target_sets_overlap(self, fig9_graph):
        spec = LoadSpec(
            seed=0, queries_per_rate=50, rates=(1.0,),
            target_size=6, target_pool=4, target_overlap=0.5,
        )
        queries = synthesize_queries(fig9_graph, spec)
        distinct = {
            q.kwargs()["targets"] for q in queries
            if "targets" in q.kwargs()
        }
        # Draws come from a small pool → few distinct digests, and the
        # shared core makes every pair overlap.
        assert len(distinct) <= spec.target_pool
        sets = [set(t) for t in distinct]
        for i, a in enumerate(sets):
            for b in sets[i + 1:]:
                assert a & b

    def test_ops_pin_replays_sequence(self, fig9_graph):
        ops = [("spread", "batch"), ("find_seeds", "best_effort")]
        queries = synthesize_queries(fig9_graph, TINY, count=6, ops=ops)
        assert [(q.op, q.qos_class) for q in queries] == ops * 3

    @pytest.mark.parametrize("kwargs", [
        {"queries_per_rate": 0},
        {"rates": ()},
        {"rates": (0.0,)},
        {"class_mix": (("vip", 1.0),)},
        {"op_mix": (("mine_bitcoin", 1.0),)},
        {"target_overlap": 1.5},
    ])
    def test_spec_validation(self, kwargs):
        with pytest.raises(ConfigurationError):
            LoadSpec(**kwargs)


class TestRunRate:
    def _assert_exact(self, result: RateResult, n: int) -> None:
        assert result.issued == n
        accounted = (
            result.done + result.degraded + result.rejected_total
            + result.errors
        )
        assert accounted == n

    def test_open_loop_accounts_every_query(self, fig9_graph):
        queries = synthesize_queries(fig9_graph, TINY)
        with _server(fig9_graph) as server:
            result = run_rate(server, queries, rate=200.0, open_loop=True)
        self._assert_exact(result, len(queries))
        assert result.errors == 0
        assert result.elapsed_s > 0
        # Completed queries recorded client-observed latencies.
        recorded = sum(len(v) for v in result.latencies_ms.values())
        assert recorded == result.done + result.degraded

    def test_closed_loop_accounts_every_query(self, fig9_graph):
        queries = synthesize_queries(fig9_graph, TINY)
        with _server(fig9_graph) as server:
            result = run_rate(
                server, queries, rate=200.0, open_loop=False,
                concurrency=4,
            )
        self._assert_exact(result, len(queries))
        assert result.errors == 0

    def test_overload_ends_in_clean_rejections(self, fig9_graph):
        """Past capacity every extra query is rejected, never lost.

        Every build sleeps 50 ms, so one worker with two queue slots is
        past capacity at 500 queries/s however fast the kernels are.
        """
        queries = synthesize_queries(
            fig9_graph,
            LoadSpec(**{**TINY.__dict__, "queries_per_rate": 30}),
        )
        slow = ServeFaultPlan(build_slow_rate=1.0, build_slow_seconds=0.05)
        with _server(
            fig9_graph, pool_size=1, queue_capacity=2, chaos=slow
        ) as server:
            result = run_rate(server, queries, rate=500.0, open_loop=True)
        self._assert_exact(result, len(queries))
        assert result.errors == 0
        assert result.rejected_total > 0
        assert set(result.rejected) <= {
            "overloaded", "deadline", "shed", "breaker_open", "rejected",
        }

    def test_as_row_shape(self, fig9_graph):
        queries = synthesize_queries(fig9_graph, TINY)
        with _server(fig9_graph) as server:
            row = run_rate(server, queries, rate=200.0).as_row()
        assert row["accounted"] == row["issued"]
        for name in ("interactive", "batch", "best_effort"):
            assert f"p95_ms.{name}" in row
        assert row["rate_qps"] == 200.0
        assert row["achieved_qps"] is not None


class TestCapacityReport:
    def test_report_schema_and_gate(self, fig9_graph, tmp_path):
        spec = LoadSpec(**{**TINY.__dict__, "rates": (100.0, 200.0)})

        def make_server():
            return _server(fig9_graph)

        report = capacity_report(make_server, fig9_graph, spec)
        assert report["schema"] == LOAD_SCHEMA
        assert len(report["rows"]) == 2
        for row in report["rows"]:
            assert row["accounted"] == row["issued"] > 0
            assert "slo_ok" in row and "interactive_reject_frac" in row
        # The generous SLO makes every swept rate sustainable.
        assert report["max_sustainable_qps"] == 200.0
        # Round-trip through the CI gate.
        path = tmp_path / "BENCH_load.json"
        path.write_text(json.dumps(report), encoding="utf-8")
        payload = json.loads(path.read_text(encoding="utf-8"))
        assert detect_kind(payload) == "load"
        assert check_load(payload) == []

    def test_gate_rejects_broken_accounting(self):
        payload = {
            "schema": LOAD_SCHEMA,
            "rows": [{
                "rate_qps": 4.0, "issued": 10, "accounted": 9,
                "errors": 0, "p95_ms.interactive": 1.0,
                "p95_ms.batch": 1.0, "p95_ms.best_effort": 1.0,
            }],
        }
        failures = check_load(payload)
        assert any("accounted" in f for f in failures)

    def test_gate_rejects_raw_errors(self):
        payload = {
            "schema": LOAD_SCHEMA,
            "rows": [{
                "rate_qps": 4.0, "issued": 10, "accounted": 10,
                "errors": 2, "p95_ms.interactive": 1.0,
                "p95_ms.batch": 1.0, "p95_ms.best_effort": 1.0,
            }],
        }
        assert any("errors" in f for f in check_load(payload))
        # A tolerance can be opted into explicitly.
        assert not any(
            "errors" in f
            for f in check_load(payload, max_error_frac=0.2)
        )


class TestReplay:
    def test_replay_from_events_jsonl(self, tmp_path):
        path = tmp_path / "events.jsonl"
        lines = [
            json.dumps({"kind": "query.admitted", "attrs": {
                "op": "find_seeds", "qos_class": "batch"}}),
            json.dumps({"kind": "query.done", "attrs": {"ok": True}}),
            json.dumps({"kind": "query.admitted", "attrs": {
                "op": "spread", "qos_class": "interactive"}}),
            json.dumps({"kind": "query.admitted", "attrs": {
                "op": "spread", "qos_class": "vip"}}),  # unknown class
            '{"kind": "query.admitted", "attrs": {"op": "find',  # torn
        ]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        ops = replay_ops_from_events(path)
        assert ops == [
            ("find_seeds", "batch"),
            ("spread", "interactive"),
            ("spread", "interactive"),  # unknown class normalized
        ]

    def test_replay_empty_file_is_an_error(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("", encoding="utf-8")
        with pytest.raises(ConfigurationError):
            replay_ops_from_events(path)

    def test_replayed_ops_drive_the_report(self, fig9_graph, tmp_path):
        events = tmp_path / "events.jsonl"
        events.write_text(
            json.dumps({"kind": "query.admitted", "attrs": {
                "op": "find_seeds", "qos_class": "interactive"}}) + "\n",
            encoding="utf-8",
        )
        ops = replay_ops_from_events(events)
        spec = LoadSpec(**{**TINY.__dict__, "queries_per_rate": 6})
        report = capacity_report(
            lambda: _server(fig9_graph), fig9_graph, spec,
            replay_ops=ops,
        )
        assert report["replayed"] is True
        assert report["rows"][0]["issued"] == 6


def test_queryspec_kwargs_round_trip():
    spec = QuerySpec(
        op="find_seeds", qos_class="batch",
        args=(("targets", (1, 2)), ("k", 2)),
    )
    assert spec.kwargs() == {"targets": (1, 2), "k": 2}
