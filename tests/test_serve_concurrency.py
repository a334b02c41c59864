"""Concurrency suite: single-flight, determinism, isolation, overload.

The server's claims under contention, each asserted directly:

* **Single-flight** — N concurrent identical queries build their shared
  asset exactly once (``builds`` counter), whether the latecomers join
  the in-flight build or hit the finished cache.
* **Determinism** — interleaved identical + distinct queries return
  bit-identical results to solo runs, regardless of scheduling.
* **Telemetry isolation** — two queries running concurrently on one
  pooled engine report the same per-query work counters as solo runs
  (the regression this suite exists to pin: a global registry would
  bleed one query's ``rr.samples_drawn`` into the other's report).
* **Admission control** — submits past ``pool_size + queue_capacity``
  raise :class:`ServerOverloadedError` without touching shared state.

Every blocking wait in this suite carries a wall-clock guard (future
timeouts), so a deadlock fails the suite instead of hanging it.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.core.joint import JointConfig
from repro.engine.parallel import SamplingEngine
from repro.exceptions import ServerClosedError, ServerOverloadedError
from repro.serve import CampaignServer
from repro.sketch.theta import SketchConfig
from tests.conftest import FIG9_SEEDS, FIG9_TARGETS

# Generous guard: any single fig9/yelp query finishes in well under this.
WAIT = 120.0

FAST_SKETCH = SketchConfig(theta_max=2_000, pilot_samples=50)


def _server(graph, **kwargs):
    kwargs.setdefault("config", JointConfig(sketch=FAST_SKETCH))
    kwargs.setdefault("pool_size", 4)
    return CampaignServer(graph, **kwargs)


class TestSingleFlight:
    def test_identical_queries_build_once(self, fig9_graph):
        n = 12
        with _server(fig9_graph) as server:
            futures = [
                server.submit_find_seeds(
                    FIG9_TARGETS, ("c5", "c4"), 2, engine="trs", seed=0
                )
                for _ in range(n)
            ]
            responses = [f.result(timeout=WAIT) for f in futures]
            stats = server.cache_stats()
        assert stats.builds == 1
        assert stats.misses == 1
        assert stats.hits == n - 1  # joins are a subset of hits
        assert stats.singleflight_joins <= stats.hits
        first = responses[0]
        for resp in responses[1:]:
            assert resp.value.seeds == first.value.seeds
            assert (
                resp.value.estimated_spread == first.value.estimated_spread
            )
            # Hit or join, the report still carries the build's counters.
            assert (
                resp.report["metrics"]["counters"]
                == first.report["metrics"]["counters"]
            )

    def test_distinct_assets_each_build_once(self, fig9_graph):
        """4 distinct queries × 4 repeats → exactly 4 builds."""
        variants = [
            (("c5", "c4"), 0),
            (("c5", "c4"), 1),   # same tags, different seed → own asset
            (("c6", "c1"), 0),
            (("c2", "c3"), 0),
        ]
        with _server(fig9_graph) as server:
            futures = [
                server.submit_find_seeds(
                    FIG9_TARGETS, tags, 2, engine="trs", seed=seed
                )
                for _ in range(4)
                for tags, seed in variants
            ]
            responses = [f.result(timeout=WAIT) for f in futures]
            stats = server.cache_stats()
        assert stats.builds == len(variants)
        assert len(responses) == 16
        # All four repeats of each variant agree.
        by_variant = {}
        for (tags, seed), resp in zip(variants * 4, responses):
            key = (tags, seed)
            prior = by_variant.setdefault(key, resp)
            assert resp.value.seeds == prior.value.seeds
            assert (
                resp.value.estimated_spread
                == prior.value.estimated_spread
            )

    def test_failed_build_does_not_poison_cache(self, fig9_graph):
        """A query that errors leaves no cache entry; a retry succeeds."""
        from repro.exceptions import InvalidQueryError

        with _server(fig9_graph) as server:
            with pytest.raises(InvalidQueryError):
                # Target id out of range fails validation inside the op.
                server.find_seeds((999,), ("c5",), 1, engine="trs")
            ok = server.find_seeds(FIG9_TARGETS, ("c5",), 1, engine="trs")
        assert ok.cache == "miss"
        assert ok.value.seeds


class TestInterleavedDeterminism:
    def test_threaded_clients_match_solo_runs(self, fig9_graph):
        """8 client threads, mixed ops, vs solo answers on a fresh server."""
        workload = [
            ("seeds", (FIG9_TARGETS, ("c5", "c4"), 2), {"seed": 0}),
            ("seeds", (FIG9_TARGETS, ("c6", "c1"), 2), {"seed": 1}),
            ("tags", (FIG9_SEEDS, FIG9_TARGETS, 2), {"seed": 0}),
            ("spread", (FIG9_SEEDS, FIG9_TARGETS, ("c5",)), {"seed": 2}),
        ] * 4

        def run(server, item):
            op, args, kwargs = item
            if op == "seeds":
                return server.find_seeds(*args, engine="trs", **kwargs)
            if op == "tags":
                return server.find_tags(*args, **kwargs)
            return server.estimate_spread(*args, **kwargs)

        with _server(fig9_graph) as solo_server:
            solo = [run(solo_server, item) for item in workload[:4]]

        with _server(fig9_graph) as server:
            with ThreadPoolExecutor(max_workers=8) as clients:
                futures = [
                    clients.submit(run, server, item) for item in workload
                ]
                responses = [f.result(timeout=WAIT) for f in futures]

        for item, resp in zip(workload, responses):
            baseline = solo[workload.index(item)]
            if item[0] == "spread":
                assert resp.value == baseline.value
                continue
            if item[0] == "tags":
                assert resp.value.tags == baseline.value.tags
            else:
                assert resp.value.seeds == baseline.value.seeds
            assert (
                resp.report["metrics"]["counters"]
                == baseline.report["metrics"]["counters"]
            )

    def test_no_telemetry_bleed_between_concurrent_queries(self, fig9_graph):
        """Regression: per-query counters on a shared pooled engine.

        Two concurrent queries through one ``SamplingEngine`` must each
        report exactly the counters of their solo runs — before the
        per-query :class:`~repro.engine.QueryEngineView` isolation, the
        engine's telemetry registry was shared and ``rr.samples_drawn``
        (and every ``runtime.*`` counter) summed across queries.
        """
        query_a = dict(tags=("c5", "c4"), seed=0)
        query_b = dict(tags=("c6", "c1"), seed=3)

        def run_pair(concurrent):
            with SamplingEngine(mode="bitparallel", workers=1) as engine:
                with _server(
                    fig9_graph, sampler=engine, pool_size=2
                ) as server:
                    if concurrent:
                        fa = server.submit_find_seeds(
                            FIG9_TARGETS, query_a["tags"], 2,
                            engine="trs", seed=query_a["seed"],
                        )
                        fb = server.submit_find_seeds(
                            FIG9_TARGETS, query_b["tags"], 2,
                            engine="trs", seed=query_b["seed"],
                        )
                        return fa.result(timeout=WAIT), fb.result(
                            timeout=WAIT
                        )
                    ra = server.find_seeds(
                        FIG9_TARGETS, query_a["tags"], 2,
                        engine="trs", seed=query_a["seed"],
                    )
                    rb = server.find_seeds(
                        FIG9_TARGETS, query_b["tags"], 2,
                        engine="trs", seed=query_b["seed"],
                    )
                    return ra, rb

        solo_a, solo_b = run_pair(concurrent=False)
        conc_a, conc_b = run_pair(concurrent=True)

        for solo, conc in ((solo_a, conc_a), (solo_b, conc_b)):
            assert conc.value.seeds == solo.value.seeds
            solo_counters = solo.report["metrics"]["counters"]
            conc_counters = conc.report["metrics"]["counters"]
            assert (
                conc_counters["rr.samples_drawn"]
                == solo_counters["rr.samples_drawn"]
            )
            assert conc_counters == solo_counters
        # Distinct queries: the two reports are NOT accidental copies.
        assert (
            conc_a.report["metrics"]["counters"]["rr.samples_drawn"]
            != 0
        )


class TestAdmissionControl:
    def test_overload_rejected_cleanly(self, fig9_graph):
        started = threading.Event()
        release = threading.Event()

        def blocking_runner(_ob):
            started.set()
            assert release.wait(timeout=WAIT)
            return None, "none"

        with _server(
            fig9_graph, pool_size=1, queue_capacity=1
        ) as server:
            first = server._submit("block", blocking_runner)
            # Wait for the runner to *execute* (not merely sit queued)
            # so the occupancy the later asserts see — one executing,
            # one queued, third rejected — is scheduling-independent.
            assert started.wait(timeout=WAIT)
            second = server._submit("block", blocking_runner)
            with pytest.raises(ServerOverloadedError) as excinfo:
                server._submit("block", blocking_runner)
            assert excinfo.value.capacity == 2
            rejected = server.metrics()["counters"]["serve.rejected"]
            assert rejected == 1
            release.set()
            first.result(timeout=WAIT)
            second.result(timeout=WAIT)
            # Capacity freed: real queries are admitted again.
            resp = server.find_seeds(
                FIG9_TARGETS, ("c5",), 1, engine="trs"
            )
            assert resp.value.seeds

    def test_rejected_query_leaves_no_state(self, fig9_graph):
        """A rejected submit must not occupy a slot or touch the cache."""
        started = threading.Event()
        release = threading.Event()

        def blocking_runner(_ob):
            started.set()
            assert release.wait(timeout=WAIT)
            return None, "none"

        with _server(
            fig9_graph, pool_size=1, queue_capacity=0
        ) as server:
            blocker = server._submit("block", blocking_runner)
            # The blocker must hold the single pool slot before the
            # rejection loop — queued-vs-executing must not matter.
            assert started.wait(timeout=WAIT)
            for _ in range(5):
                with pytest.raises(ServerOverloadedError):
                    server.submit_find_seeds(
                        FIG9_TARGETS, ("c5",), 1, engine="trs"
                    )
            assert len(server._cache._entries) == 0
            release.set()
            blocker.result(timeout=WAIT)

    def test_closed_server_rejects(self, fig9_graph):
        server = _server(fig9_graph)
        resp = server.find_seeds(FIG9_TARGETS, ("c5",), 1, engine="trs")
        assert resp.value.seeds
        server.close()
        with pytest.raises(ServerClosedError):
            server.find_seeds(FIG9_TARGETS, ("c5",), 1, engine="trs")

    def test_close_racing_submits_rejects_cleanly(self, fig9_graph):
        """Regression: a submit racing close() must see ServerClosedError
        (or succeed/overload), never the shut-down executor's raw
        RuntimeError."""
        n_clients = 8
        server = _server(fig9_graph)
        barrier = threading.Barrier(n_clients + 1)
        outcomes: list[object] = []
        outcomes_lock = threading.Lock()

        def client(seed):
            barrier.wait(timeout=WAIT)
            try:
                future = server.submit_find_seeds(
                    FIG9_TARGETS, ("c5",), 1, engine="trs", seed=seed
                )
                future.result(timeout=WAIT)
                outcome: object = "ok"
            except (ServerClosedError, ServerOverloadedError):
                outcome = "rejected"
            except BaseException as exc:  # the bug: raw RuntimeError
                outcome = exc
            with outcomes_lock:
                outcomes.append(outcome)

        threads = [
            threading.Thread(target=client, args=(seed,))
            for seed in range(n_clients)
        ]
        for t in threads:
            t.start()
        barrier.wait(timeout=WAIT)
        server.close()
        for t in threads:
            t.join(timeout=WAIT)
        assert all(not t.is_alive() for t in threads)
        assert len(outcomes) == n_clients
        unexpected = [o for o in outcomes if o not in ("ok", "rejected")]
        assert not unexpected, f"raw exceptions leaked: {unexpected!r}"

    def test_queue_depth_gauge_returns_to_zero(self, fig9_graph):
        with _server(fig9_graph) as server:
            futures = [
                server.submit_find_seeds(
                    FIG9_TARGETS, ("c5", "c4"), 2, engine="trs", seed=s
                )
                for s in range(4)
            ]
            for f in futures:
                f.result(timeout=WAIT)
        assert server.metrics()["gauges"]["serve.queue.depth"] == 0.0


class TestServerHygiene:
    def test_metrics_poll_concurrent_with_cache_traffic(self, fig9_graph):
        """Regression: metrics() used to hold the metrics lock while
        taking the cache lock (stats()), while cache counter bumps take
        them in the opposite order — a concurrent metrics poll plus any
        cache-active query deadlocked both threads. The wall-clock
        guards below turn a reintroduced inversion into a failure."""
        n_queries = 8
        with _server(fig9_graph) as server:
            stop = threading.Event()
            poll_errors: list[BaseException] = []

            def poll():
                while not stop.is_set():
                    try:
                        server.metrics()
                    except BaseException as exc:  # pragma: no cover
                        poll_errors.append(exc)
                        return

            pollers = [threading.Thread(target=poll) for _ in range(4)]
            for t in pollers:
                t.start()
            try:
                # Distinct seeds -> distinct keys -> a miss+build cache
                # event (under the cache lock) per query.
                futures = [
                    server.submit_find_seeds(
                        FIG9_TARGETS, ("c5",), 1, engine="trs", seed=s
                    )
                    for s in range(n_queries)
                ]
                responses = [f.result(timeout=WAIT) for f in futures]
            finally:
                stop.set()
                for t in pollers:
                    t.join(timeout=WAIT)
            assert all(not t.is_alive() for t in pollers)
            assert not poll_errors
            assert len(responses) == n_queries
            snapshot = server.metrics()
        assert snapshot["counters"]["serve.queries"] == n_queries
        assert snapshot["counters"]["serve.cache.builds"] == n_queries

    def test_probability_cache_enabled_and_bounded(self, fig9_graph):
        with _server(fig9_graph, prob_cache_entries=4) as server:
            # Same tag set under different seeds: distinct sketch assets,
            # but the aggregated probability array is memoized.
            for tags, seed in (
                (("c5",), 0), (("c4",), 0), (("c5", "c4"), 0), (("c5",), 1)
            ):
                server.find_seeds(
                    FIG9_TARGETS, tags, 1, engine="trs", seed=seed
                )
            stats = fig9_graph.probability_cache_stats()
        assert stats["enabled"]
        assert stats["entries"] <= 4
        assert stats["hits"] >= 1

    def test_reports_have_serve_query_span_root(self, fig9_graph):
        with _server(fig9_graph) as server:
            resp = server.find_seeds(
                FIG9_TARGETS, ("c5",), 1, engine="trs"
            )
        roots = [span["name"] for span in resp.report["trace"]]
        assert roots == ["serve.query"]
