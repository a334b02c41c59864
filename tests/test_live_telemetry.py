"""Live telemetry pipeline suite (``repro.obs.live`` + friends).

Covers the continuous-observability layer end to end:

* ``Histogram.quantile`` / ``bucket_quantile`` against exact numpy
  percentiles on randomized synthetic data (agreement within one
  power-of-two bucket, exactness at the clamped extremes);
* the query-lifecycle :class:`~repro.obs.events.EventLog` (bounded
  ring, drop accounting, JSONL sink, idempotent close);
* OpenMetrics rendering + parsing round trips;
* :class:`TelemetryExporter` rolling windows and delta-aware SLO
  summaries;
* :class:`TelemetryEndpoint` lifecycle — scrapes parse, ``/healthz``
  flips to 503 on close, sockets refuse connections after ``close()``,
  and **no threads leak**;
* the standing serving invariant, now under scrape load: a server
  polled by a tight ``/metrics``/``/events`` loop returns answers and
  work counters bit-identical to an unobserved server and to direct
  library calls;
* the ``repro serve --listen/--events-out`` and ``repro top`` CLI
  paths, including the exit-130 (SIGTERM/Ctrl-C) event-flush
  guarantee.
"""

from __future__ import annotations

import json
import math
import threading
import time
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.core.joint import JointConfig
from repro.obs.events import EVENTS_SCHEMA, EventLog
from repro.obs.live import (
    LiveTelemetry,
    TelemetryEndpoint,
    TelemetryExporter,
    parse_listen_address,
    parse_openmetrics,
    quantile_from_cumulative,
    render_dashboard,
    render_openmetrics,
    start_live_telemetry,
)
from repro.obs.metrics import Histogram, MetricsRegistry, bucket_quantile
from repro.serve import CampaignServer, METRICS_SCHEMA
from repro.sketch.theta import SketchConfig
from tests.conftest import FIG9_TARGETS

FAST_SKETCH = SketchConfig(theta_max=2_000, pilot_samples=50)


def _bucket_index(value: float) -> int:
    """Index of the power-of-two bucket containing ``value``."""
    if value <= 1.0:
        return 0
    return min(int(math.ceil(math.log2(value))), 31)


def _get(url: str) -> tuple[int, str]:
    try:
        with urllib.request.urlopen(url, timeout=5.0) as resp:
            return resp.status, resp.read().decode("utf-8")
    except urllib.error.HTTPError as exc:
        return exc.code, exc.read().decode("utf-8")


def _telemetry_threads() -> list[str]:
    return [
        t.name for t in threading.enumerate()
        if t.name.startswith("repro-telemetry")
    ]


# ---------------------------------------------------------------------------
# Histogram quantiles vs exact numpy percentiles
# ---------------------------------------------------------------------------


class TestHistogramQuantile:
    DISTRIBUTIONS = [
        ("uniform", lambda rng, n: rng.uniform(0.0, 500.0, n)),
        ("lognormal", lambda rng, n: rng.lognormal(3.0, 1.5, n)),
        ("exponential", lambda rng, n: rng.exponential(40.0, n)),
        ("bimodal", lambda rng, n: np.concatenate([
            rng.uniform(1.0, 4.0, n // 2),        # warm cache hits
            rng.uniform(200.0, 900.0, n - n // 2)  # cold builds
        ])),
    ]

    @pytest.mark.parametrize(
        "name,sampler", DISTRIBUTIONS, ids=[d[0] for d in DISTRIBUTIONS]
    )
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_within_one_power_of_two_bucket_of_exact(
        self, name, sampler, seed
    ):
        rng = np.random.default_rng(seed)
        values = sampler(rng, 4_000)
        hist = Histogram("test")
        hist.observe_many(values)
        for q in (0.01, 0.1, 0.5, 0.9, 0.95, 0.99):
            estimate = hist.quantile(q)
            # inverted_cdf = the exact order statistic at rank q*n,
            # matching the bucket walk's rank definition (the default
            # linear method interpolates *between* order statistics,
            # which jumps across bucket boundaries at mode gaps).
            exact = float(
                np.percentile(values, q * 100.0, method="inverted_cdf")
            )
            assert abs(_bucket_index(estimate) - _bucket_index(exact)) <= 1, (
                f"{name} q={q}: estimate {estimate} vs exact {exact}"
            )
            # Log-linear buckets: both lie in one sub-bucket, whose
            # width is at most 1/8 of its lower edge (~9% on average
            # over an octave), so the error is at most 1/8 of the value.
            assert abs(estimate - exact) <= exact / 8.0 + 1e-9, (
                f"{name} q={q}: estimate {estimate} vs exact {exact}"
            )

    def test_extremes_clamp_to_observed_min_max(self):
        rng = np.random.default_rng(7)
        values = rng.lognormal(2.0, 2.0, 1_000)
        hist = Histogram("test")
        hist.observe_many(values)
        assert hist.quantile(0.0) == pytest.approx(float(values.min()))
        assert hist.quantile(1.0) == pytest.approx(float(values.max()))

    def test_single_value_every_quantile_is_that_value(self):
        hist = Histogram("test")
        hist.observe(37.5)
        for q in (0.0, 0.25, 0.5, 0.99, 1.0):
            assert hist.quantile(q) == 37.5

    def test_overflow_bucket_interpolates_toward_max(self):
        hist = Histogram("test")
        big = float(1 << 32)
        hist.observe_many([big, big * 2, big * 3])
        assert hist.quantile(1.0) == big * 3
        assert float(1 << 30) <= hist.quantile(0.5) <= big * 3

    def test_empty_histogram_is_nan(self):
        assert math.isnan(Histogram("test").quantile(0.5))

    def test_invalid_quantile_raises(self):
        hist = Histogram("test")
        hist.observe(1.0)
        with pytest.raises(ValueError):
            hist.quantile(-0.1)
        with pytest.raises(ValueError):
            hist.quantile(1.5)

    def test_quantiles_batch_matches_singles(self):
        hist = Histogram("test")
        hist.observe_many([1, 5, 9, 200, 900])
        assert hist.quantiles((0.5, 0.95, 0.99)) == (
            hist.quantile(0.5), hist.quantile(0.95), hist.quantile(0.99)
        )

    def test_as_dict_carries_quantiles(self):
        hist = Histogram("test")
        hist.observe_many([1.0, 10.0, 100.0])
        d = hist.as_dict()
        assert d["p50"] <= d["p95"] <= d["p99"] <= d["max"]

    def test_bucket_quantile_zero_count_is_nan(self):
        assert math.isnan(bucket_quantile({}, 0, 0.5))


# ---------------------------------------------------------------------------
# Event log
# ---------------------------------------------------------------------------


class TestEventLog:
    def test_sequencing_and_ring_bound(self):
        log = EventLog(capacity=3)
        for i in range(5):
            log.emit("query.done", trace_id=f"q-{i}")
        assert log.total == 5
        assert log.dropped == 2
        assert len(log) == 3
        snapshot = log.snapshot()
        assert [e["seq"] for e in snapshot] == [3, 4, 5]
        assert [e["trace_id"] for e in snapshot] == ["q-2", "q-3", "q-4"]

    def test_payload_document(self):
        log = EventLog(capacity=8)
        log.emit("query.admitted", trace_id="q-1", op="find_seeds")
        payload = log.payload()
        assert payload["schema"] == EVENTS_SCHEMA
        assert payload["total"] == 1 and payload["dropped"] == 0
        (event,) = payload["events"]
        assert event["kind"] == "query.admitted"
        assert event["attrs"]["op"] == "find_seeds"

    def test_snapshot_limit(self):
        log = EventLog(capacity=10)
        for i in range(6):
            log.emit("e", n=i)
        assert [e["attrs"]["n"] for e in log.snapshot(limit=2)] == [4, 5]

    def test_zero_capacity_disables_ring_but_feeds_sink(self):
        import io

        sink = io.StringIO()
        log = EventLog(capacity=0, sink=sink)
        assert log.enabled
        log.emit("query.done", trace_id="q-1", ok=True)
        assert len(log) == 0
        (line,) = sink.getvalue().splitlines()
        record = json.loads(line)
        assert record["kind"] == "query.done"
        assert record["attrs"]["ok"] is True

    def test_no_ring_no_sink_is_disabled(self):
        log = EventLog(capacity=0)
        assert not log.enabled
        assert log.emit("e") is None
        assert log.total == 0

    def test_owned_sink_written_and_closed(self, tmp_path):
        path = tmp_path / "events.jsonl"
        log = EventLog(capacity=4)
        log.open_sink(path)
        log.emit("query.admitted", trace_id="q-1")
        log.emit("query.done", trace_id="q-1")
        log.close()
        log.close()  # idempotent
        lines = path.read_text(encoding="utf-8").splitlines()
        assert [json.loads(l)["kind"] for l in lines] == [
            "query.admitted", "query.done"
        ]
        # After close: emits are dropped, the ring stays snapshottable.
        assert log.emit("query.rejected") is None
        assert len(log.snapshot()) == 2

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            EventLog(capacity=-1)


class TestSinkHardening:
    """Disk failures are dropped-and-counted; rotation bounds disk use."""

    class _BrokenSink:
        """A file-like whose writes fail like a full disk."""

        def __init__(self, fail_after: int = 0) -> None:
            self.fail_after = fail_after
            self.writes = 0

        def write(self, line: str) -> int:
            self.writes += 1
            if self.writes > self.fail_after:
                raise OSError(28, "No space left on device")
            return len(line)

        def flush(self) -> None:
            raise OSError(28, "No space left on device")

    def test_enospc_drops_and_counts_never_raises(self):
        sink = self._BrokenSink(fail_after=1)
        log = EventLog(capacity=4)
        log.attach_sink(sink)
        log.emit("query.admitted", trace_id="q-1")  # lands
        for i in range(3):  # all dropped by the "full disk"
            log.emit("query.done", trace_id=f"q-{i}")
        assert log.sink_errors == 3
        # The ring kept every event the sink lost.
        assert len(log.snapshot()) == 4
        assert log.payload()["sink_errors"] == 3

    def test_flush_and_close_failures_counted(self):
        log = EventLog(capacity=2)
        log.attach_sink(self._BrokenSink(fail_after=10))
        log.flush()
        assert log.sink_errors == 1
        log.close()
        assert log.sink_errors == 2

    def test_rotation_keeps_bounded_generations(self, tmp_path):
        path = tmp_path / "events.jsonl"
        log = EventLog(capacity=0)
        log.open_sink(path, max_bytes=200, backups=2)
        for i in range(40):
            log.emit("query.done", trace_id=f"q-{i:03d}", ok=True)
        log.close()
        produced = sorted(p.name for p in tmp_path.iterdir())
        # Active file + at most `backups` rotated generations.
        assert produced == [
            "events.jsonl", "events.jsonl.1", "events.jsonl.2",
        ]
        # No generation exceeds the threshold by more than one line.
        for name in produced:
            assert (tmp_path / name).stat().st_size <= 200 + 120
        # Nothing was lost to rotation itself and order is preserved:
        # the newest generation holds the latest events.
        assert log.sink_errors == 0
        last = (tmp_path / "events.jsonl").read_text(
            encoding="utf-8"
        ).splitlines()
        assert json.loads(last[-1])["trace_id"] == "q-039"
        older = (tmp_path / "events.jsonl.1").read_text(
            encoding="utf-8"
        ).splitlines()
        assert (json.loads(older[-1])["seq"]
                < json.loads(last[0])["seq"])

    def test_rotation_with_zero_backups_truncates(self, tmp_path):
        path = tmp_path / "events.jsonl"
        log = EventLog(capacity=0)
        log.open_sink(path, max_bytes=150, backups=0)
        for i in range(30):
            log.emit("e", n=i)
        log.close()
        assert [p.name for p in tmp_path.iterdir()] == ["events.jsonl"]
        assert path.stat().st_size <= 150 + 80

    def test_open_sink_validation(self, tmp_path):
        log = EventLog(capacity=0)
        with pytest.raises(ValueError):
            log.open_sink(tmp_path / "e.jsonl", max_bytes=0)
        with pytest.raises(ValueError):
            log.open_sink(tmp_path / "e.jsonl", backups=-1)


# ---------------------------------------------------------------------------
# OpenMetrics render + parse
# ---------------------------------------------------------------------------


def _synthetic_metrics() -> dict:
    registry = MetricsRegistry()
    registry.counter("serve.queries").inc(11)
    registry.counter("serve.cache.hits").inc(7)
    registry.gauge("serve.queue.depth").set(3)
    hist = registry.histogram("serve.op.latency_ms.find_seeds")
    hist.observe_many([0.5, 3.0, 3.5, 40.0, 900.0])
    other = registry.histogram("serve.query.latency_ms")
    other.observe_many([1.0, 2.0])
    return registry.as_dict()


class TestOpenMetrics:
    def test_render_parse_round_trip(self):
        text = render_openmetrics(_synthetic_metrics())
        scrape = parse_openmetrics(text)
        assert scrape.complete  # saw "# EOF"
        assert scrape.value("repro_serve_queries_total") == 11
        assert scrape.counter("repro_serve_cache_hits") == 7
        assert scrape.value("repro_serve_queue_depth") == 3
        assert scrape.families["repro_serve_queries"] == "counter"
        assert scrape.families["repro_serve_queue_depth"] == "gauge"
        assert scrape.families["repro_serve_op_latency_ms"] == "histogram"
        assert "repro_serve_queries" in scrape.helps

    def test_histogram_family_with_op_label(self):
        text = render_openmetrics(_synthetic_metrics())
        scrape = parse_openmetrics(text)
        assert scrape.label_values(
            "repro_serve_op_latency_ms_bucket", "op"
        ) == ["find_seeds"]
        buckets, total, count = scrape.histogram(
            "repro_serve_op_latency_ms", op="find_seeds"
        )
        assert count == 5
        assert total == pytest.approx(947.0)
        # Cumulative buckets are monotone and end at the total count.
        ordered = [
            buckets[k] for k in sorted(
                (k for k in buckets if k != "+Inf"), key=float
            )
        ]
        assert ordered == sorted(ordered)
        assert buckets["+Inf"] == 5

    def test_scraped_quantile_within_one_bucket_of_histogram(self):
        metrics = _synthetic_metrics()
        text = render_openmetrics(metrics)
        scrape = parse_openmetrics(text)
        buckets, _total, count = scrape.histogram(
            "repro_serve_op_latency_ms", op="find_seeds"
        )
        hist = Histogram("h")
        hist.observe_many([0.5, 3.0, 3.5, 40.0, 900.0])
        for q in (0.5, 0.95):
            scraped = quantile_from_cumulative(buckets, count, q)
            direct = hist.quantile(q)
            assert abs(_bucket_index(scraped) - _bucket_index(direct)) <= 1

    def test_slo_window_gauges_rendered(self):
        slo = {
            "samples": 3,
            "window_seconds": 60.0,
            "qps": 12.5,
            "error_rate": 0.01,
            "error_budget_remaining": 0.5,
            "cache_hit_ratio": 0.9,
            "latency_ms": {
                "find_seeds": {"count": 5, "p50": 3.0, "p95": 40.0,
                               "p99": 900.0},
            },
        }
        scrape = parse_openmetrics(
            render_openmetrics(_synthetic_metrics(), slo=slo)
        )
        assert scrape.value(
            "repro_serve_window_qps", window="60s"
        ) == 12.5
        assert scrape.value(
            "repro_serve_window_latency_ms",
            op="find_seeds", quantile="0.95",
        ) == 40.0

    def test_label_escaping_round_trips(self):
        from repro.obs.live import _escape_label

        assert _escape_label('a"b\\c\nd') == 'a\\"b\\\\c\\nd'

    def test_unparseable_line_raises(self):
        with pytest.raises(ValueError):
            parse_openmetrics("this is { not a metric line")

    def test_nan_value_renders_and_parses(self):
        slo = {
            "samples": 2, "window_seconds": 10.0, "qps": float("nan"),
            "error_rate": 0.0, "error_budget_remaining": 1.0,
            "cache_hit_ratio": None, "latency_ms": {},
        }
        scrape = parse_openmetrics(
            render_openmetrics({"counters": {}}, slo=slo)
        )
        value = scrape.value("repro_serve_window_qps", window="10s")
        assert value is not None and math.isnan(value)


# ---------------------------------------------------------------------------
# Exporter rolling windows
# ---------------------------------------------------------------------------


class _FakeServer:
    """Minimal metrics() provider with dial-a-counter state."""

    def __init__(self):
        self.registry = MetricsRegistry()

    def metrics(self) -> dict:
        return self.registry.as_dict()

    def advance(self, queries=0, errors=0, hits=0, misses=0, latencies=()):
        if queries:
            self.registry.counter("serve.queries").inc(queries)
        if errors:
            self.registry.counter("serve.errors").inc(errors)
        if hits:
            self.registry.counter("serve.cache.hits").inc(hits)
        if misses:
            self.registry.counter("serve.cache.misses").inc(misses)
        hist = self.registry.histogram("serve.op.latency_ms.find_seeds")
        hist.observe_many(latencies)


class TestTelemetryExporter:
    def test_summary_needs_two_samples(self):
        exporter = TelemetryExporter(_FakeServer(), interval=0.01)
        assert exporter.summary() == {"samples": 0}
        exporter.sample_now()
        assert exporter.summary() == {"samples": 1}

    def test_windowed_deltas_not_lifetime(self):
        server = _FakeServer()
        server.advance(queries=1_000, hits=500, misses=500)
        exporter = TelemetryExporter(server, interval=0.01)
        exporter.sample_now()  # baseline AFTER the 1000-query history
        server.advance(queries=10, errors=1, hits=9, misses=1,
                       latencies=[2.0] * 9 + [800.0])
        time.sleep(0.01)
        exporter.sample_now()
        summary = exporter.summary()
        # Only the 10 post-baseline queries count, not the 1000 before.
        assert summary["queries"] == 10
        assert summary["errors"] == 1
        assert summary["qps"] > 0
        assert summary["error_rate"] == pytest.approx(1 / 11)
        assert summary["cache_hit_ratio"] == pytest.approx(0.9)
        latency = summary["latency_ms"]["find_seeds"]
        assert latency["count"] == 10
        assert latency["p50"] <= 4.0
        assert latency["p99"] >= 256.0

    def test_error_budget(self):
        server = _FakeServer()
        exporter = TelemetryExporter(server, interval=0.01, slo_target=0.9)
        exporter.sample_now()
        server.advance(queries=99, errors=1)
        exporter.sample_now()
        summary = exporter.summary()
        # 1 bad / 100 requests against a 10% allowance: 90% budget left.
        assert summary["error_budget_remaining"] == pytest.approx(0.9)
        assert summary["availability"] == pytest.approx(0.99)

    def test_zero_traffic_budget_is_full(self):
        exporter = TelemetryExporter(_FakeServer(), interval=0.01)
        exporter.sample_now()
        time.sleep(0.005)
        exporter.sample_now()
        summary = exporter.summary()
        assert summary["qps"] == 0.0
        assert summary["error_rate"] == 0.0
        assert summary["error_budget_remaining"] == 1.0
        assert summary["cache_hit_ratio"] is None

    def test_window_trimming_bounds_retained_samples(self):
        exporter = TelemetryExporter(
            _FakeServer(), interval=0.001, window_seconds=0.002
        )
        for _ in range(50):
            exporter.sample_now()
            time.sleep(0.001)
        assert exporter.sample_count <= 5

    def test_thread_lifecycle_and_idempotent_stop(self):
        server = _FakeServer()
        exporter = TelemetryExporter(server, interval=0.01)
        assert not exporter.running
        exporter.start()
        exporter.start()  # second start is a no-op
        assert exporter.running
        deadline = time.monotonic() + 5.0
        while exporter.sample_count < 3 and time.monotonic() < deadline:
            time.sleep(0.01)
        assert exporter.sample_count >= 3
        exporter.stop()
        exporter.stop()  # idempotent
        assert not exporter.running
        assert not _telemetry_threads()

    def test_sampling_survives_metrics_failure(self):
        server = _FakeServer()
        exporter = TelemetryExporter(server, interval=0.005)
        exporter.start()
        original = server.metrics
        server.metrics = lambda: (_ for _ in ()).throw(RuntimeError("boom"))
        time.sleep(0.03)
        server.metrics = original
        before = exporter.sample_count
        deadline = time.monotonic() + 5.0
        while (
            exporter.sample_count <= before
            and time.monotonic() < deadline
        ):
            time.sleep(0.005)
        exporter.stop()
        assert exporter.sample_count > before  # recovered after the fault

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"interval": 0.0},
            {"interval": 1.0, "window_seconds": 0.5},
            {"slo_target": 0.0},
            {"slo_target": 1.5},
        ],
    )
    def test_invalid_config_rejected(self, kwargs):
        with pytest.raises(ValueError):
            TelemetryExporter(_FakeServer(), **kwargs)


# ---------------------------------------------------------------------------
# HTTP endpoint lifecycle
# ---------------------------------------------------------------------------


def _server(graph, **kwargs):
    kwargs.setdefault("config", JointConfig(sketch=FAST_SKETCH))
    kwargs.setdefault("pool_size", 2)
    return CampaignServer(graph, **kwargs)


class TestTelemetryEndpoint:
    def test_routes(self, fig9_graph):
        with _server(fig9_graph) as server:
            server.find_seeds(FIG9_TARGETS, ("c5", "c4"), 2, seed=0)
            with TelemetryEndpoint(server) as endpoint:
                status, body = _get(endpoint.url + "/metrics")
                assert status == 200
                scrape = parse_openmetrics(body)
                assert scrape.complete
                assert scrape.counter("repro_serve_queries") == 1

                status, body = _get(endpoint.url + "/healthz")
                assert status == 200
                health = json.loads(body)
                assert health["status"] == "ok"
                assert health["in_flight"] == 0

                status, body = _get(endpoint.url + "/events")
                assert status == 200
                payload = json.loads(body)
                assert payload["schema"] == EVENTS_SCHEMA
                kinds = {e["kind"] for e in payload["events"]}
                assert "query.admitted" in kinds
                assert "query.done" in kinds

                status, body = _get(endpoint.url + "/events?limit=1")
                assert len(json.loads(body)["events"]) == 1

                status, _ = _get(endpoint.url + "/nope")
                assert status == 404

    def test_healthz_503_after_server_close(self, fig9_graph):
        server = _server(fig9_graph)
        with TelemetryEndpoint(server) as endpoint:
            server.close()
            status, body = _get(endpoint.url + "/healthz")
            assert status == 503
            assert json.loads(body)["closed"] is True

    def test_close_refuses_connections_and_leaks_no_threads(
        self, fig9_graph
    ):
        with _server(fig9_graph) as server:
            endpoint = TelemetryEndpoint(server).start()
            url = endpoint.url
            assert _get(url + "/healthz")[0] == 200
            assert _telemetry_threads()
            endpoint.close()
            endpoint.close()  # idempotent
            assert not _telemetry_threads()
            with pytest.raises((urllib.error.URLError, OSError)):
                urllib.request.urlopen(url + "/healthz", timeout=1.0)
            with pytest.raises(RuntimeError):
                endpoint.start()

    def test_port_zero_resolves_before_start(self, fig9_graph):
        with _server(fig9_graph) as server:
            endpoint = TelemetryEndpoint(server, port=0)
            try:
                assert endpoint.address[1] > 0
            finally:
                endpoint.close()


class TestStartLiveTelemetry:
    @pytest.mark.parametrize(
        "listen,expected",
        [
            ("127.0.0.1:9100", ("127.0.0.1", 9100)),
            (":9100", ("127.0.0.1", 9100)),
            ("9100", ("127.0.0.1", 9100)),
            ("0.0.0.0:0", ("0.0.0.0", 0)),
        ],
    )
    def test_parse_listen_address(self, listen, expected):
        assert parse_listen_address(listen) == expected

    @pytest.mark.parametrize("listen", ["host:port", "1:2:x", "1:99999"])
    def test_parse_listen_address_rejects(self, listen):
        with pytest.raises(ValueError):
            parse_listen_address(listen)

    def test_wiring_and_idempotent_close(self, fig9_graph):
        with _server(fig9_graph) as server:
            telemetry = start_live_telemetry(
                server, listen="127.0.0.1:0", interval=0.05
            )
            assert isinstance(telemetry, LiveTelemetry)
            try:
                assert telemetry.exporter.running
                status, body = _get(telemetry.url + "/metrics")
                assert status == 200
                assert parse_openmetrics(body).complete
            finally:
                telemetry.close()
                telemetry.close()  # idempotent
            assert not telemetry.exporter.running
            assert not _telemetry_threads()


# ---------------------------------------------------------------------------
# The invariant, under scrape load
# ---------------------------------------------------------------------------


class TestScrapeUnderLoadDifferential:
    def test_scraped_server_matches_unobserved_server(self, fig9_graph):
        """Tight /metrics + /events polling perturbs nothing.

        Three runs of the same mixed query batch: (a) a server with an
        exporter + endpoint being hammered by a scrape thread, (b) a
        plain server with telemetry never attached, (c) captured for
        every query: seeds, spreads, AND the full work-counter dict
        (``rr.samples_drawn``-class counters included).
        """
        queries = [
            ("find_seeds", dict(targets=FIG9_TARGETS, tags=("c5", "c4"),
                                k=2, engine="trs", seed=s))
            for s in (0, 1, 0, 2, 0)
        ] + [
            ("estimate_spread", dict(seeds=(0, 1), targets=FIG9_TARGETS,
                                     tags=("c5", "c4"), seed=3)),
            ("find_tags", dict(seeds=(0, 1), targets=FIG9_TARGETS, r=2,
                               seed=0)),
        ]

        def run_batch(server):
            outcomes = []
            futures = [
                getattr(server, f"submit_{op}")(**kwargs)
                for op, kwargs in queries
            ]
            for future in futures:
                response = future.result(timeout=120)
                value = response.value
                outcomes.append((
                    getattr(value, "seeds", None),
                    getattr(value, "tags", None),
                    getattr(value, "estimated_spread", value),
                    response.report["metrics"]["counters"],
                ))
            return outcomes

        # (a) scraped server: exporter sampling fast + a polling thread.
        with _server(fig9_graph) as server:
            telemetry = start_live_telemetry(
                server, listen="127.0.0.1:0", interval=0.01
            )
            stop = threading.Event()
            scrapes = {"n": 0}

            def pound():
                while not stop.is_set():
                    _get(telemetry.url + "/metrics")
                    _get(telemetry.url + "/events")
                    _get(telemetry.url + "/healthz")
                    scrapes["n"] += 1

            poller = threading.Thread(target=pound, daemon=True)
            poller.start()
            try:
                observed = run_batch(server)
            finally:
                stop.set()
                poller.join(timeout=10)
                telemetry.close()
            assert scrapes["n"] > 0  # the load was real

        # (b) unobserved server: no exporter, no endpoint, no polling.
        with _server(fig9_graph) as server:
            plain = run_batch(server)

        assert observed == plain

    def test_event_emission_does_not_change_counters(self, fig9_graph):
        """Events on vs off: responses and counters bit-identical."""
        def ask(server):
            r = server.find_seeds(
                FIG9_TARGETS, ("c5", "c4"), 2, engine="trs", seed=0
            )
            return (r.value.seeds, r.value.estimated_spread,
                    r.report["metrics"]["counters"])

        with _server(fig9_graph, event_capacity=0) as server:
            without_events = ask(server)
            assert server.events.total == 0  # truly disabled
        with _server(fig9_graph, event_capacity=256) as server:
            with_events = ask(server)
            assert server.events.total > 0
        assert with_events == without_events


# ---------------------------------------------------------------------------
# Server-side lifecycle events + metrics/2 surface
# ---------------------------------------------------------------------------


class TestServerTelemetrySurface:
    def test_lifecycle_event_sequence_and_trace_id(self, fig9_graph):
        with _server(fig9_graph) as server:
            cold = server.find_seeds(
                FIG9_TARGETS, ("c5", "c4"), 2, engine="trs", seed=0
            )
            warm = server.find_seeds(
                FIG9_TARGETS, ("c5", "c4"), 2, engine="trs", seed=0
            )
            events = server.events.snapshot()

        assert cold.cache == "miss" and warm.cache == "hit"
        by_trace: dict = {}
        for event in events:
            by_trace.setdefault(event["trace_id"], []).append(event["kind"])
        cold_kinds, warm_kinds = list(by_trace.values())
        assert set(cold_kinds) == {
            "query.admitted", "query.queued",
            "query.build.start", "query.build.done", "query.done",
        }
        assert set(warm_kinds) == {
            "query.admitted", "query.queued",
            "query.cache.hit", "query.done",
        }
        # The same trace id is stamped on the query's report + spans.
        assert cold.report["trace_id"] in by_trace
        assert warm.report["trace_id"] in by_trace
        assert cold.report["trace_id"] != warm.report["trace_id"]

    def test_rejection_events(self, fig9_graph):
        from repro.exceptions import ServerClosedError

        server = _server(fig9_graph)
        server.close()
        with pytest.raises(ServerClosedError):
            server.find_seeds(FIG9_TARGETS, ("c5",), 1, seed=0)
        (event,) = server.events.snapshot()
        assert event["kind"] == "query.rejected"
        assert event["attrs"]["reason"] == "ServerClosedError"

    def test_metrics2_quantiles_and_gauges(self, fig9_graph):
        with _server(fig9_graph) as server:
            server.find_seeds(FIG9_TARGETS, ("c5", "c4"), 2, seed=0)
            server.find_seeds(FIG9_TARGETS, ("c5", "c4"), 2, seed=0)
            metrics = server.metrics()
            health = server.health()
        assert METRICS_SCHEMA == "repro.serve.metrics/4"
        op_hist = metrics["histograms"]["serve.op.latency_ms.find_seeds"]
        assert op_hist["count"] == 2
        assert op_hist["p50"] <= op_hist["p95"] <= op_hist["p99"]
        assert metrics["gauges"]["serve.uptime_seconds"] > 0
        assert metrics["gauges"]["serve.inflight"] == 0
        assert health["status"] == "ok"
        assert health["queued"] == 0 and health["in_flight"] == 0

    def test_error_counters_and_event(self, fig9_graph):
        from repro.exceptions import BudgetExceededError

        with _server(fig9_graph) as server:
            with pytest.raises(BudgetExceededError):
                # A 1-sample budget trips inside the worker, so the
                # failure is a *query* error, not a submit-time one.
                server.find_seeds(
                    FIG9_TARGETS, ("c5",), 1, seed=0, max_samples=1
                )
            metrics = server.metrics()
            events = server.events.snapshot()
        # A budget trip is a cooperative *cancellation*, not an error:
        # it lands in serve.cancelled and emits query.cancelled.
        assert metrics["counters"]["serve.cancelled"] == 1
        assert metrics["counters"]["serve.errors"] == 0
        cancelled = [e for e in events if e["kind"] == "query.cancelled"]
        assert cancelled and cancelled[-1]["attrs"]["reason"] == "max_samples"

    def test_protocol_admin_ops(self, fig9_graph):
        from repro.serve import execute_request

        with _server(fig9_graph) as server:
            server.find_seeds(FIG9_TARGETS, ("c5", "c4"), 2, seed=0)
            metrics = execute_request(server, {"op": "metrics"})
            health = execute_request(server, {"op": "health"})
            events = execute_request(server, {"op": "events", "limit": 2})
        assert metrics["schema"] == METRICS_SCHEMA
        assert health["health"]["status"] == "ok"
        assert events["schema"] == EVENTS_SCHEMA
        assert len(events["events"]) == 2


# ---------------------------------------------------------------------------
# repro top dashboard
# ---------------------------------------------------------------------------


class TestDashboard:
    def test_render_from_live_scrape(self, fig9_graph):
        with _server(fig9_graph) as server:
            telemetry = start_live_telemetry(
                server, listen="127.0.0.1:0", interval=0.05
            )
            try:
                server.find_seeds(FIG9_TARGETS, ("c5", "c4"), 2, seed=0)
                server.find_seeds(FIG9_TARGETS, ("c5", "c4"), 2, seed=0)
                _status, text = _get(telemetry.url + "/metrics")
                _status, health_body = _get(telemetry.url + "/healthz")
            finally:
                telemetry.close()
        frame = render_dashboard(
            parse_openmetrics(text), json.loads(health_body),
            url=telemetry.url,
        )
        assert "repro top" in frame
        assert "queries 2" in frame
        assert "hit-ratio 50.0%" in frame
        assert "find_seeds" in frame  # per-op latency row

    def test_render_handles_empty_scrape(self):
        frame = render_dashboard(parse_openmetrics("# EOF\n"), {})
        assert "queries 0" in frame


# ---------------------------------------------------------------------------
# CLI: serve --listen / --events-out / exit-130 flush, repro top
# ---------------------------------------------------------------------------


@pytest.fixture()
def cli_workspace(tmp_path, fig9_graph):
    from repro.graphs.io import save_tag_graph

    graph_path = tmp_path / "g.tsv"
    save_tag_graph(fig9_graph, graph_path)
    return graph_path


def _serve_request(request_id=1):
    return {
        "id": request_id, "op": "find_seeds",
        "targets": list(FIG9_TARGETS), "tags": ["c5", "c4"],
        "k": 2, "engine": "trs", "seed": 0,
    }


class TestServeCLITelemetry:
    def test_listen_and_events_out(
        self, cli_workspace, tmp_path, capsys, monkeypatch
    ):
        import io
        import re
        import sys as _sys

        from repro.cli import main

        events_path = tmp_path / "events.jsonl"
        # One query, then EOF; scrape while the query is in flight by
        # wedging a probe into stdin iteration via a custom reader.
        lines = [json.dumps(_serve_request()) + "\n"]
        scraped = {}

        class ProbingStdin(io.StringIO):
            """Yields the query, then scrapes before signalling EOF."""

            def __init__(self):
                super().__init__("".join(lines))

            def __iter__(self):
                yield from lines
                err = capsys.readouterr().err
                match = re.search(r"http://\S+", err)
                assert match, f"no telemetry URL announced: {err!r}"
                url = match.group(0)
                scraped["metrics"] = _get(url + "/metrics")
                scraped["healthz"] = _get(url + "/healthz")
                scraped["events"] = _get(url + "/events")

        monkeypatch.setattr(_sys, "stdin", ProbingStdin())
        code = main([
            "serve", str(cli_workspace), "--pool-size", "2",
            "--listen", "127.0.0.1:0",
            "--events-out", str(events_path),
            "--telemetry-interval", "0.05",
        ])
        assert code == 0
        assert not _telemetry_threads()  # endpoint + exporter torn down

        status, body = scraped["metrics"]
        assert status == 200
        scrape = parse_openmetrics(body)
        assert scrape.complete
        assert scrape.counter("repro_serve_queries") == 1
        status, body = scraped["healthz"]
        assert status == 200 and json.loads(body)["status"] == "ok"
        status, body = scraped["events"]
        assert json.loads(body)["total"] >= 5

        records = [
            json.loads(line)
            for line in events_path.read_text().splitlines()
        ]
        kinds = [r["kind"] for r in records]
        assert kinds.count("query.done") == 1
        assert "query.build.start" in kinds

    def test_interrupt_still_flushes_events_out(
        self, cli_workspace, tmp_path, capsys, monkeypatch
    ):
        """The exit-130 path leaves a complete --events-out behind."""
        import sys as _sys

        from repro.cli import main

        events_path = tmp_path / "events.jsonl"

        class InterruptingStdin:
            """One good query, then a mid-stream SIGTERM/Ctrl-C."""

            def __iter__(self):
                yield json.dumps(_serve_request()) + "\n"
                raise KeyboardInterrupt

        monkeypatch.setattr(_sys, "stdin", InterruptingStdin())
        code = main([
            "serve", str(cli_workspace), "--pool-size", "2",
            "--events-out", str(events_path),
        ])
        assert code == 130
        err = capsys.readouterr().err
        assert "interrupted" in err
        assert f"events to {events_path}" in err
        records = [
            json.loads(line)
            for line in events_path.read_text().splitlines()
        ]
        done = [r for r in records if r["kind"] == "query.done"]
        assert len(done) == 1 and done[0]["attrs"]["ok"] is True

    def test_metrics_out_schema_bumped(
        self, cli_workspace, tmp_path, capsys, monkeypatch
    ):
        import io
        import sys as _sys

        from repro.cli import main

        monkeypatch.setattr(
            _sys, "stdin",
            io.StringIO(json.dumps(_serve_request()) + "\n"),
        )
        metrics_path = tmp_path / "m.json"
        assert main([
            "serve", str(cli_workspace),
            "--metrics-out", str(metrics_path),
        ]) == 0
        capsys.readouterr()
        snapshot = json.loads(metrics_path.read_text())
        assert snapshot["schema"] == "repro.serve.metrics/4"
        hist = snapshot["metrics"]["histograms"][
            "serve.op.latency_ms.find_seeds"
        ]
        assert {"p50", "p95", "p99"} <= set(hist)


class TestTopCLI:
    def test_single_frame_against_live_endpoint(
        self, fig9_graph, capsys
    ):
        from repro.cli import main

        with _server(fig9_graph) as server:
            telemetry = start_live_telemetry(
                server, listen="127.0.0.1:0", interval=0.05
            )
            try:
                server.find_seeds(
                    FIG9_TARGETS, ("c5", "c4"), 2, seed=0
                )
                assert main(["top", telemetry.url, "--once"]) == 0
            finally:
                telemetry.close()
        out = capsys.readouterr().out
        assert "repro top" in out
        assert "status ok" in out
        assert "find_seeds" in out

    def test_bare_host_port_accepted(self, fig9_graph, capsys):
        from repro.cli import main

        with _server(fig9_graph) as server:
            telemetry = start_live_telemetry(server, listen="127.0.0.1:0")
            try:
                host_port = telemetry.url[len("http://"):]
                assert main(["top", host_port, "--once"]) == 0
            finally:
                telemetry.close()
        assert "repro top" in capsys.readouterr().out

    def test_unreachable_endpoint_fails_cleanly(self, capsys):
        from repro.cli import main

        # A port from the ephemeral range with nothing listening.
        assert main(["top", "http://127.0.0.1:1", "--once"]) == 1
        assert "cannot scrape" in capsys.readouterr().err
