"""Chaos battery for the sharded service: SIGKILL'd workers must be invisible.

Failure contract under test (see ``docs/sharding.md``):

* a worker SIGKILL'd **mid-query** is respawned and the in-flight
  retryable work replayed — the client still gets an answer that is
  bit-identical to a fault-free run;
* outcome accounting is exact: every issued request is classified as
  done, degraded, rejected, or errored — nothing is double-counted and
  nothing vanishes (``errors == 0`` for retryable ops);
* a respawned worker replays the edit journal, so post-edit kills do
  not fork the fleet's epoch;
* scatter queries (non-retryable fan-outs) are restarted whole and
  still reproduce the fault-free answer;
* the shared-memory graph segment never leaks: after ``close()`` the
  process-local registry of live shm tokens is empty, even after
  worker deaths.

Fault injection uses the seeded :class:`~repro.serve.chaos.ServeFaultPlan`
(``build_slow_rate=1.0``) inside the workers so every asset build
sleeps deterministically — widening the kill window without making
answers timing-dependent (chaos sleeps never change result bytes).
"""

from __future__ import annotations

import copy
import os
import signal
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.core.joint import JointConfig
from repro.engine.shared_csr import active_tokens
from repro.graphs.tag_graph import TagGraph
from repro.serve import ShardedCampaignService, WorkerSpec
from repro.serve.protocol import handle_request
from repro.sketch.theta import SketchConfig

FAST_SKETCH = SketchConfig(theta_max=600, pilot_samples=30)
CONFIG = JointConfig(sketch=FAST_SKETCH)
#: Every build sleeps this long — wide enough to land a SIGKILL inside.
SLOW = {"seed": 1, "build_slow_rate": 1.0, "build_slow_seconds": 0.5}

TARGETS = list(range(10, 24))


def make_graph(num_nodes: int = 40, num_edges: int = 160) -> TagGraph:
    rng = np.random.default_rng(23)
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


def request_for(seed: int, **extra) -> dict:
    return {
        "op": "find_seeds", "targets": TARGETS, "tags": ["a"], "k": 2,
        "engine": "trs", "seed": seed, **extra,
    }


def answer_of(response: dict) -> tuple:
    assert response["ok"], response
    return (tuple(response["seeds"]), response["spread"], response["epoch"])


def _spec(**overrides) -> WorkerSpec:
    kwargs = dict(config=CONFIG, engine_mode="bitparallel", pool_size=2)
    kwargs.update(overrides)
    return WorkerSpec(**kwargs)


@pytest.fixture(scope="module")
def fault_free_answers():
    """Answers from a chaos-free fleet — the oracle every chaos run
    must still reproduce bit for bit."""
    with ShardedCampaignService(GRAPH, workers=3, spec=_spec()) as service:
        answers = {
            seed: answer_of(
                handle_request(service, request_for(seed))
            )
            for seed in range(8)
        }
        scatter = answer_of(
            handle_request(service, request_for(50, scatter=True))
        )
    return answers, scatter


class TestKillMidQuery:
    def test_sigkill_during_build_is_invisible_to_the_client(
        self, fault_free_answers
    ):
        answers, _ = fault_free_answers
        service = ShardedCampaignService(
            GRAPH, workers=3, spec=_spec(chaos=SLOW)
        )
        try:
            request = request_for(3)
            victim = service.worker_for(request)
            victim_pid = service.worker_pids()[victim]

            with ThreadPoolExecutor(1) as pool:
                future = pool.submit(
                    handle_request, service, copy.deepcopy(request)
                )
                # The build sleeps 0.5 s; kill the owning worker while
                # the query is inside it.
                time.sleep(0.15)
                os.kill(victim_pid, signal.SIGKILL)
                response = future.result(timeout=120)

            assert answer_of(response) == answers[3]

            health = service.health()
            assert health["status"] == "ok"  # fully respawned
            assert health["workers"][victim]["respawns"] == 1
            assert health["workers"][victim]["pid"] != victim_pid
            counters = service.metrics()["counters"]
            assert counters["router.respawns"] == 1
            assert counters["router.retries"] >= 1

            # The respawned worker serves the same campaign, same bytes.
            again = handle_request(service, request_for(3))
            assert answer_of(again) == answers[3]
        finally:
            service.close()
        assert active_tokens() == frozenset()

    def test_scatter_query_restarts_whole_after_a_kill(self):
        """Scatter fan-outs are non-retryable per shard: a worker death
        mid-build fails the whole query, and the router restarts it
        from scratch over the surviving fleet — reproducing the
        fault-free answer (the pipeline is deterministic in θ and the
        RNG prefix, not in the fleet size).

        Chaos sleeps don't apply here (scatter builds bypass the asset
        cache), so the kill window comes from the build itself: a
        pinned θ of 600k over a bigger graph keeps every worker inside
        the bit-parallel ``sample_rr_partition`` for hundreds of
        milliseconds.
        """
        graph = make_graph(300, 2400)
        slow_theta = JointConfig(sketch=SketchConfig(
            theta_min=600_000, theta_max=600_000, pilot_samples=50,
        ))
        service = ShardedCampaignService(
            graph, workers=3, spec=_spec(config=slow_theta),
        )
        try:
            request = request_for(50, scatter=True)
            # Scatter answers are never cached — this fault-free run is
            # the oracle for the killed run of the identical request.
            baseline = answer_of(
                handle_request(service, copy.deepcopy(request))
            )

            pids = service.worker_pids()
            with ThreadPoolExecutor(1) as pool:
                future = pool.submit(
                    handle_request, service, copy.deepcopy(request)
                )
                time.sleep(0.15)
                os.kill(pids["w1"], signal.SIGKILL)
                response = future.result(timeout=120)

            assert answer_of(response) == baseline
            counters = service.metrics()["counters"]
            assert counters["router.scatter_restarts"] >= 1
            assert service.health()["status"] == "ok"
        finally:
            service.close()
        assert active_tokens() == frozenset()


class TestOutcomeAccounting:
    def test_every_issued_request_is_accounted_exactly_once(
        self, fault_free_answers
    ):
        """Fire a concurrent burst, SIGKILL one worker mid-burst, and
        classify every outcome: done + degraded + rejected + errors
        must equal issued, with zero errors — worker death surfaces as
        retries, never as client-visible failures or lost futures."""
        answers, _ = fault_free_answers
        service = ShardedCampaignService(
            GRAPH, workers=3,
            spec=_spec(chaos=dict(SLOW, build_slow_seconds=0.3)),
        )
        issued = 8
        try:
            kill_at = threading.Barrier(issued + 1)

            def one(seed: int) -> dict:
                kill_at.wait(timeout=60)
                return handle_request(service, request_for(seed))

            with ThreadPoolExecutor(issued) as pool:
                futures = [pool.submit(one, seed) for seed in range(issued)]
                kill_at.wait(timeout=60)
                time.sleep(0.1)
                os.kill(service.worker_pids()["w0"], signal.SIGKILL)
                responses = [f.result(timeout=120) for f in futures]

            done = degraded = rejected = errors = 0
            for seed, response in enumerate(responses):
                if response.get("ok"):
                    if response.get("tier", "full") == "full":
                        done += 1
                    else:
                        degraded += 1
                    assert answer_of(response) == answers[seed]
                elif isinstance(response.get("error"), dict):
                    rejected += 1
                else:
                    errors += 1
            assert done + degraded + rejected + errors == issued
            assert errors == 0
            assert done >= 1  # the burst wasn't shed wholesale

            # Router-side accounting agrees with the client's view.
            admission = service.health()["admission"]
            assert admission["admitted"] + admission["rejected"] >= issued
            assert admission["in_flight"] == 0
            assert service.metrics()["counters"]["router.respawns"] == 1
        finally:
            service.close()
        assert active_tokens() == frozenset()


class TestJournalReplay:
    def test_respawned_worker_replays_edits_and_rejoins_the_epoch(self):
        service = ShardedCampaignService(
            GRAPH, workers=2, spec=_spec(mutable=True, chaos=None)
        )
        try:
            edits = [
                {"op": "tag_set", "edge_id": 4, "tag": "a", "prob": 0.33},
            ]
            summary = handle_request(
                service, {"op": "apply_edits", "edits": edits}
            )
            assert summary["ok"] and summary["epoch"] == 1

            post_edit = {
                seed: answer_of(handle_request(service, request_for(seed)))
                for seed in range(4)
            }
            assert all(a[2] == 1 for a in post_edit.values())

            os.kill(service.worker_pids()["w0"], signal.SIGKILL)
            deadline = time.monotonic() + 30
            while service.health()["workers"]["w0"]["respawns"] == 0:
                assert time.monotonic() < deadline, "respawn never happened"
                time.sleep(0.05)

            # The fresh w0 process replayed the journal before taking
            # traffic: same epoch, same post-edit answers, everywhere.
            for reply in service.broadcast({"op": "health"}):
                assert reply["health"]["epoch"] == 1
            for seed in range(4):
                got = answer_of(handle_request(service, request_for(seed)))
                assert got == post_edit[seed]
        finally:
            service.close()
        assert active_tokens() == frozenset()


class TestRespawnBudget:
    def test_exhausted_budget_retires_the_worker_and_degrades_health(self):
        service = ShardedCampaignService(
            GRAPH, workers=2, spec=_spec(), max_respawns=1
        )
        try:
            for _ in range(2):
                pid = service.worker_pids().get("w0")
                if pid is None:
                    break
                os.kill(pid, signal.SIGKILL)
                deadline = time.monotonic() + 30
                while service.worker_pids().get("w0") == pid:
                    assert time.monotonic() < deadline
                    time.sleep(0.05)

            deadline = time.monotonic() + 30
            while service.health()["status"] != "degraded":
                assert time.monotonic() < deadline, service.health()
                time.sleep(0.05)
            assert "w0" not in service.ring.members
            assert service.num_workers == 1

            # The surviving worker still answers every campaign.
            for seed in range(4):
                assert handle_request(service, request_for(seed))["ok"]
        finally:
            service.close()
        assert active_tokens() == frozenset()
