"""Observability-layer tests: exact counters, invariance, zero impact.

Three families of guarantees:

1. **Counters equal work.** ``rr.samples_drawn`` / ``rr.members`` /
   ``cascade.samples_drawn`` exactly equal the work an operation
   performed, on every execution path.
2. **Invariance.** Those counters do not depend on worker count,
   shard size, retries, or checkpoint/resume replay — they are counted
   at the driver level from returned shapes, never inside workers.
3. **No perturbation.** Runs with observability enabled are
   bit-identical to runs without it, and the disabled path costs one
   ``is None`` check per call site.
"""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.engine import (
    CheckpointManager,
    FaultPlan,
    RetryPolicy,
    RunTelemetry,
    SamplingEngine,
)
from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.profile import kernel_timer
from repro.obs.report import SCHEMA, build_report, render_report
from repro.obs.trace import NULL_SPAN, Tracer, chrome_events_from_dicts
from repro.seeds.api import find_seeds
from repro.utils.timing import Timer
from repro.utils.validation import as_target_array

FAST = RetryPolicy(backoff_base=0.001, backoff_max=0.005, jitter=0.0)


@pytest.fixture(scope="module")
def query(small_yelp):
    graph = small_yelp.graph
    targets = as_target_array(
        list(range(12)), graph.num_nodes, context="test"
    )
    edge_probs = graph.edge_probabilities(list(graph.tags[:3]))
    return graph, targets, edge_probs


def _rr_counters(engine, query, theta=64, seed=11):
    """Run one RR op under observation; return (collection, counters)."""
    graph, targets, edge_probs = query
    with obs.observe() as ob:
        collection = engine.sample_rr_sets(
            graph, targets, edge_probs, theta, np.random.default_rng(seed)
        )
    return collection, ob.metrics.as_dict()["counters"]


# ---------------------------------------------------------------------------
# Metrics primitives
# ---------------------------------------------------------------------------


class TestMetricsRegistry:
    def test_counter_counts(self):
        reg = MetricsRegistry()
        reg.count("x")
        reg.count("x", 4)
        assert reg.value("x") == 5

    def test_counter_rejects_negative(self):
        with pytest.raises(ValueError):
            Counter(name="x").inc(-1)

    def test_gauge_last_write_wins(self):
        reg = MetricsRegistry()
        reg.set_gauge("theta", 100)
        reg.set_gauge("theta", 42)
        assert reg.value("theta") == 42.0

    def test_histogram_summary_and_buckets(self):
        h = Histogram(name="sizes")
        h.observe_many([1, 2, 3, 1000, 2**40])
        assert h.count == 5
        assert h.min == 1 and h.max == 2**40
        assert h.buckets[1] == 1          # 0.875 < v <= 1
        assert h.buckets[2] == 1          # 1.875 < v <= 2
        assert h.buckets[3] == 1          # 2.75 < v <= 3 (log-linear)
        assert h.buckets[1024] == 1       # 960 < v <= 1024
        assert h.buckets[-1] == 1         # overflow
        assert h.mean == pytest.approx(h.total / 5)

    def test_kind_mismatch_raises(self):
        reg = MetricsRegistry()
        reg.count("x")
        with pytest.raises(TypeError):
            reg.record("x", 1.0)

    def test_merge_semantics(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.count("c", 2)
        b.count("c", 3)
        a.set_gauge("g", 1)
        b.set_gauge("g", 9)
        a.record("h", 1)
        b.record("h", 100)
        a.merge(b)
        assert a.value("c") == 5            # counters add
        assert a.value("g") == 9.0          # gauges overwrite
        assert a.histogram("h").count == 2  # histograms combine
        assert a.histogram("h").max == 100

    def test_as_dict_groups_by_kind(self):
        reg = MetricsRegistry()
        reg.count("c")
        reg.set_gauge("g", 2)
        reg.record("h", 3)
        snap = reg.as_dict()
        assert set(snap) == {"counters", "gauges", "histograms"}
        assert snap["counters"] == {"c": 1}
        assert snap["gauges"] == {"g": 2.0}
        assert snap["histograms"]["h"]["count"] == 1


# ---------------------------------------------------------------------------
# Tracing
# ---------------------------------------------------------------------------


class TestTracer:
    def test_nesting_builds_a_tree(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner", theta=4):
                pass
            with tracer.span("inner2"):
                pass
        assert len(tracer.roots) == 1
        root = tracer.roots[0]
        assert root.name == "outer"
        assert [c.name for c in root.children] == ["inner", "inner2"]
        assert root.children[0].attrs == {"theta": 4}
        assert root.duration >= root.children[0].duration >= 0.0

    def test_span_set_attaches_attrs(self):
        tracer = Tracer()
        with tracer.span("s") as span:
            span.set(theta=128)
        assert tracer.roots[0].attrs["theta"] == 128

    def test_as_dicts_and_chrome_roundtrip(self):
        tracer = Tracer()
        with tracer.span("a"):
            with tracer.span("b"):
                pass
        dicts = tracer.as_dicts()
        assert dicts[0]["name"] == "a"
        assert dicts[0]["children"][0]["name"] == "b"
        live = tracer.to_chrome_events()
        offline = chrome_events_from_dicts(dicts)
        assert [e["name"] for e in live] == ["a", "b"]
        assert [e["name"] for e in offline] == ["a", "b"]
        for e_live, e_off in zip(live, offline):
            assert e_live["ts"] == pytest.approx(e_off["ts"])
            assert e_live["dur"] == pytest.approx(e_off["dur"])
            assert e_live["ph"] == e_off["ph"] == "X"

    def test_find(self):
        tracer = Tracer()
        with tracer.span("x"):
            with tracer.span("y"):
                pass
        with tracer.span("y"):
            pass
        assert len(tracer.find("y")) == 2

    def test_null_span_is_inert_singleton(self):
        with NULL_SPAN as s:
            s.set(anything=1)
        assert obs.span("whatever") is NULL_SPAN  # obs off by default


class TestObserveScope:
    def test_helpers_are_noops_when_off(self):
        assert obs.active() is None
        obs.count("ghost")
        obs.record("ghost", 1.0)
        obs.gauge("ghost", 1.0)
        assert obs.snapshot_report() is None
        assert not obs.profiling_enabled()

    def test_nested_scopes_merge_into_parent(self):
        with obs.observe() as outer:
            obs.count("a")
            with obs.observe() as inner:
                obs.count("a", 2)
                with obs.span("inner_span"):
                    pass
            assert inner.metrics.value("a") == 2
            assert outer.metrics.value("a") == 3  # merged on exit
            assert [s.name for s in outer.tracer.roots] == ["inner_span"]
        assert obs.active() is None

    def test_traced_decorator(self):
        calls = []

        @obs.traced("fn")
        def fn(x):
            calls.append(x)
            return x + 1

        assert fn(1) == 2  # off: plain call
        with obs.observe() as ob:
            assert fn(2) == 3
        assert len(ob.tracer.find("fn")) == 1

    def test_report_schema(self):
        with obs.observe() as ob:
            obs.count("c", 7)
            with obs.span("phase_a"):
                pass
        report = ob.report()
        assert report["schema"] == SCHEMA
        assert report["metrics"]["counters"] == {"c": 7}
        assert [p["name"] for p in report["phases"]] == ["phase_a"]
        assert report["phases"][0]["percent"] == pytest.approx(100.0)
        text = render_report(report)
        assert "phase_a" in text and "c" in text

    def test_render_rejects_unknown_schema(self):
        with pytest.raises(ValueError):
            render_report({"schema": "bogus/9"})


# ---------------------------------------------------------------------------
# Counters equal work — exactly, on every path
# ---------------------------------------------------------------------------


class TestCountersEqualWork:
    def test_rr_counters_match_collection(self, query):
        with SamplingEngine(shard_size=8) as engine:
            collection, counters = _rr_counters(engine, query, theta=64)
        assert counters["rr.samples_drawn"] == 64 == len(collection)
        assert counters["rr.members"] == int(collection.members.size)

    def test_cascade_counter_matches_samples(self, query):
        graph, targets, edge_probs = query
        seeds = targets[:3]
        with SamplingEngine(shard_size=8) as engine:
            with obs.observe() as ob:
                counts = engine.cascade_target_counts(
                    graph, seeds, edge_probs, 50, targets,
                    np.random.default_rng(3),
                )
        assert counts.size == 50
        assert ob.metrics.value("cascade.samples_drawn") == 50

    def test_scalar_rr_path_counts_identically(self, line_graph):
        """The no-engine default (once the scalar loop) counts the
        same logical work as an explicit engine."""
        from repro.sketch.rr_sets import sample_rr_sets_validated

        probs = line_graph.edge_probabilities(["a", "b", "c"])
        targets = as_target_array([3], line_graph.num_nodes, context="t")
        with obs.observe() as ob:
            sets = sample_rr_sets_validated(
                line_graph, targets, probs, 37, np.random.default_rng(0)
            )
        counters = ob.metrics.as_dict()["counters"]
        assert counters["rr.samples_drawn"] == 37 == len(sets)
        assert counters["rr.members"] == sum(s.size for s in sets)

    def test_worker_count_invariance(self, query):
        with SamplingEngine(shard_size=8) as serial:
            c1, counters1 = _rr_counters(serial, query, theta=64)
        with SamplingEngine(
            shard_size=8, workers=2, parallel_threshold=0
        ) as pooled:
            c2, counters2 = _rr_counters(pooled, query, theta=64)
        np.testing.assert_array_equal(c1.members, c2.members)
        drop = {"runtime.shards_run", "engine.parallel_fallbacks",
                "runtime.parallel_fallbacks"}
        work1 = {k: v for k, v in counters1.items() if k not in drop}
        work2 = {k: v for k, v in counters2.items() if k not in drop}
        assert work1 == work2

    def test_retry_invariance(self, query):
        plan = FaultPlan().fail_shard(1, attempts=(0, 1)).fail_shard(4)
        with SamplingEngine(shard_size=8) as clean_engine:
            _, clean = _rr_counters(clean_engine, query, theta=64)
        with SamplingEngine(
            shard_size=8, retry_policy=FAST, fault_plan=plan
        ) as engine:
            _, faulted = _rr_counters(engine, query, theta=64)
            assert engine.telemetry.shards_retried == 3
        assert faulted["rr.samples_drawn"] == clean["rr.samples_drawn"]
        assert faulted["rr.members"] == clean["rr.members"]

    def test_checkpoint_resume_replay_counts_once(self, query, tmp_path):
        plan = FaultPlan().interrupt_after_shards(3)
        with SamplingEngine(
            shard_size=8, fault_plan=plan,
            checkpoint=CheckpointManager(tmp_path, resume=False, every=1),
        ) as engine:
            with pytest.raises(KeyboardInterrupt):
                _rr_counters(engine, query, theta=64)
        with SamplingEngine(
            shard_size=8,
            checkpoint=CheckpointManager(tmp_path, resume=True, every=1),
        ) as engine:
            collection, counters = _rr_counters(engine, query, theta=64)
            assert engine.telemetry.checkpoint_loads == 1
        # The resumed run spliced 3 checkpointed shards in, yet the
        # counters describe the *logical* work of the full operation.
        assert counters["rr.samples_drawn"] == 64 == len(collection)
        assert counters["rr.members"] == int(collection.members.size)

    @settings(max_examples=15, deadline=None)
    @given(
        theta=st.integers(min_value=1, max_value=80),
        shard_size=st.integers(min_value=1, max_value=32),
    )
    def test_rr_counter_equals_theta_for_any_sharding(
        self, theta, shard_size
    ):
        from repro.graphs import TagGraphBuilder

        builder = TagGraphBuilder(4)
        builder.add(0, 1, "a", 0.5)
        builder.add(1, 2, "b", 0.5)
        builder.add(2, 3, "c", 0.5)
        graph = builder.build()
        probs = graph.edge_probabilities(["a", "b", "c"])
        targets = as_target_array([2, 3], graph.num_nodes, context="t")
        with SamplingEngine(shard_size=shard_size) as engine:
            with obs.observe() as ob:
                collection = engine.sample_rr_sets(
                    graph, targets, probs, theta, np.random.default_rng(1)
                )
        assert (
            ob.metrics.value("rr.samples_drawn") == theta == len(collection)
        )
        assert ob.metrics.value("rr.members") == int(collection.members.size)


# ---------------------------------------------------------------------------
# Observability never perturbs results
# ---------------------------------------------------------------------------


class TestNoPerturbation:
    def test_rr_sampling_bit_identical_with_and_without_obs(self, query):
        graph, targets, edge_probs = query
        with SamplingEngine(shard_size=8) as engine:
            plain = engine.sample_rr_sets(
                graph, targets, edge_probs, 64, np.random.default_rng(11)
            )
            with obs.observe():
                observed = engine.sample_rr_sets(
                    graph, targets, edge_probs, 64, np.random.default_rng(11)
                )
            with obs.observe(profile=True):
                profiled = engine.sample_rr_sets(
                    graph, targets, edge_probs, 64, np.random.default_rng(11)
                )
        np.testing.assert_array_equal(plain.members, observed.members)
        np.testing.assert_array_equal(plain.indptr, observed.indptr)
        np.testing.assert_array_equal(plain.members, profiled.members)

    def test_seed_selection_identical_under_observation(self, small_yelp):
        graph = small_yelp.graph
        tags = list(graph.tags[:3])
        plain = find_seeds(graph, list(range(20)), tags, 3, rng=5)
        with obs.observe():
            observed = find_seeds(graph, list(range(20)), tags, 3, rng=5)
        assert plain.seeds == observed.seeds
        assert plain.estimated_spread == observed.estimated_spread
        assert plain.report is None
        assert observed.report is not None
        assert observed.report["schema"] == SCHEMA


# ---------------------------------------------------------------------------
# Small-work parallel fallback
# ---------------------------------------------------------------------------


class TestParallelFallback:
    def test_small_job_falls_back_and_is_recorded(self, query):
        with SamplingEngine(shard_size=8, workers=2) as engine:
            collection, counters = _rr_counters(engine, query, theta=64)
            assert engine.telemetry.parallel_fallbacks == 1
        assert counters["engine.parallel_fallbacks"] == 1
        with SamplingEngine(shard_size=8) as serial:
            reference = serial.sample_rr_sets(
                query[0], query[1], query[2], 64, np.random.default_rng(11)
            )
        np.testing.assert_array_equal(collection.members, reference.members)

    def test_threshold_zero_disables_fallback(self, query):
        with SamplingEngine(
            shard_size=8, workers=2, parallel_threshold=0
        ) as engine:
            _rr_counters(engine, query, theta=64)
            assert engine.telemetry.parallel_fallbacks == 0

    def test_large_job_uses_the_pool(self, query):
        with SamplingEngine(
            shard_size=8, workers=2, parallel_threshold=32
        ) as engine:
            _rr_counters(engine, query, theta=64)
            assert engine.telemetry.parallel_fallbacks == 0

    def test_fault_plan_suppresses_fallback(self, query):
        # Fault injection targets the pool paths; a fallback would make
        # the injected faults unreachable and silently pass those tests.
        plan = FaultPlan().fail_shard(1)
        with SamplingEngine(
            shard_size=8, workers=2, retry_policy=FAST, fault_plan=plan
        ) as engine:
            _rr_counters(engine, query, theta=64)
            assert engine.telemetry.parallel_fallbacks == 0
            assert engine.telemetry.shards_retried >= 1

    def test_threshold_validation(self):
        from repro.exceptions import ConfigurationError

        with pytest.raises(ConfigurationError):
            SamplingEngine(parallel_threshold=-1)


# ---------------------------------------------------------------------------
# RunTelemetry as a registry view
# ---------------------------------------------------------------------------


class TestTelemetryView:
    def test_kwargs_ctor_and_dict(self):
        t = RunTelemetry(shards_run=3, shards_retried=1)
        assert t.shards_run == 3
        assert t.as_dict()["shards_retried"] == 1
        assert "shards_retried=1" in t.summary()

    def test_counts_flow_into_bound_registry(self):
        reg = MetricsRegistry()
        t = RunTelemetry(registry=reg)
        t.shards_run += 5
        assert reg.value("runtime.shards_run") == 5

    def test_engine_binds_active_registry(self, query):
        with obs.observe() as ob:
            with SamplingEngine(shard_size=8) as engine:
                _rr = engine.sample_rr_sets(
                    query[0], query[1], query[2], 64,
                    np.random.default_rng(11),
                )
        assert ob.metrics.value("runtime.shards_run") == 8
        assert _rr is not None

    def test_unknown_kwarg_rejected(self):
        with pytest.raises(TypeError):
            RunTelemetry(bogus=1)


# ---------------------------------------------------------------------------
# Profiling hooks and the Timer bridge
# ---------------------------------------------------------------------------


class TestProfiling:
    def test_kernel_timer_off_by_default(self):
        with obs.observe() as ob:
            with kernel_timer("kernel.test"):
                pass
        assert "kernel.test.calls" not in ob.metrics

    def test_kernel_timer_records_under_profile(self):
        with obs.observe(profile=True) as ob:
            with kernel_timer("kernel.test"):
                pass
        assert ob.metrics.value("kernel.test.calls") == 1
        assert ob.metrics.histogram("kernel.test.seconds").count == 1

    def test_profiled_engine_run_records_kernels(self, query):
        with SamplingEngine(shard_size=8) as engine:
            with obs.observe(profile=True) as ob:
                engine.sample_rr_sets(
                    query[0], query[1], query[2], 64,
                    np.random.default_rng(11),
                )
        assert ob.metrics.value("kernel.bitworld_rr.calls") >= 1
        assert ob.metrics.histogram("kernel.bitworld_rr.seconds").count >= 1

    def test_timer_metric_bridge(self):
        with obs.observe() as ob:
            with Timer(metric="phase.test"):
                pass
        assert ob.metrics.histogram("phase.test.seconds").count == 1
        with Timer(metric="phase.test"):  # obs off: plain timer
            pass


# ---------------------------------------------------------------------------
# CLI integration
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def cli_graph(tmp_path_factory, small_yelp):
    from repro.graphs.io import save_tag_graph

    root = tmp_path_factory.mktemp("obs_cli")
    graph_path = root / "g.tsv"
    targets_path = root / "g.targets"
    save_tag_graph(small_yelp.graph, graph_path)
    targets_path.write_text(
        "\n".join(str(t) for t in range(10)) + "\n", encoding="utf-8"
    )
    tags = ",".join(small_yelp.graph.tags[:2])
    return graph_path, targets_path, tags


class TestCLI:
    def test_metrics_out_and_trace(self, cli_graph, tmp_path, capsys):
        from repro.cli import main

        graph_path, targets_path, tags = cli_graph
        metrics = tmp_path / "m.json"
        trace = tmp_path / "t.json"
        code = main([
            "seeds", str(graph_path), "--targets-file", str(targets_path),
            "-k", "2", "--tags", tags,
            "--metrics-out", str(metrics), "--trace", str(trace),
        ])
        assert code == 0
        report = json.loads(metrics.read_text(encoding="utf-8"))
        assert report["schema"] == SCHEMA
        assert report["metrics"]["counters"]["rr.samples_drawn"] > 0
        assert any(p["name"] == "trs" for p in report["phases"])
        events = json.loads(trace.read_text(encoding="utf-8"))
        assert events and all(e["ph"] == "X" for e in events)
        assert any(e["name"] == "trs" for e in events)
        capsys.readouterr()

    def test_report_subcommand(self, cli_graph, tmp_path, capsys):
        from repro.cli import main

        graph_path, targets_path, tags = cli_graph
        metrics = tmp_path / "m.json"
        assert main([
            "seeds", str(graph_path), "--targets-file", str(targets_path),
            "-k", "2", "--tags", tags, "--metrics-out", str(metrics),
        ]) == 0
        capsys.readouterr()
        chrome = tmp_path / "c.json"
        assert main(["report", str(metrics), "--chrome", str(chrome)]) == 0
        out = capsys.readouterr().out
        assert "Counters" in out and "rr.samples_drawn" in out
        events = json.loads(chrome.read_text(encoding="utf-8"))
        assert events and events[0]["ph"] == "X"

    def test_no_flags_means_no_observability(self, cli_graph, capsys):
        from repro.cli import main

        graph_path, targets_path, tags = cli_graph
        assert main([
            "seeds", str(graph_path), "--targets-file", str(targets_path),
            "-k", "2", "--tags", tags,
        ]) == 0
        assert obs.active() is None
        capsys.readouterr()


# ---------------------------------------------------------------------------
# build_report is pure serialization
# ---------------------------------------------------------------------------


def test_report_is_json_serializable(query):
    with SamplingEngine(shard_size=8) as engine:
        with obs.observe(profile=True) as ob:
            engine.sample_rr_sets(
                query[0], query[1], query[2], 64, np.random.default_rng(11)
            )
    dumped = json.dumps(build_report(ob))
    assert "rr.samples_drawn" in dumped
