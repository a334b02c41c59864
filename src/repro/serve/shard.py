"""Sharded multi-process campaign service.

A front-end **router** (this module, in the caller's process) fans a
fleet of N **worker processes** out behind the single-process
``CampaignServer`` wire protocol. Each worker owns a full
:class:`~repro.serve.CampaignServer` — graded QoS queues, asset cache,
chaos hooks, mutable epochs — attached to the *same* graph, either via
a zero-copy shared-memory :class:`~repro.engine.SharedTagGraph` or a
per-worker pickled copy.

Topology (one box per process)::

    client ──► ShardedCampaignService (router)
                 │  RouterAdmission · HashRing · metrics merge
                 │  edit journal · respawn supervisor
          ┌──────┼──────────┬─ ... ─┐     (one duplex pipe each)
          ▼      ▼          ▼       ▼
        worker w0, w1, ..., wN-1   — CampaignServer + SamplingEngine

Routing and determinism
-----------------------
Every query is reduced to a :func:`~repro.serve.keys.routing_token`
(the campaign-identity fields only — never deadline/QoS/report) and
placed on a consistent-hash ring, so the same campaign always lands on
the same worker and its cached sketch: repeat queries never rebuild on
a different worker, and adding/removing a worker remaps only ~1/N of
tokens. Because each worker runs the identical ``handle_request`` code
path over the identical graph, the wire response is bit-identical to a
single-process server for every op, engine, and worker count.

Scatter/gather coverage
-----------------------
``find_seeds`` with ``"scatter": true`` partitions the θ RR-set shards
round-robin across all live workers (each spawns the *full* seed-stream
tree and materializes only its slice, so the union is exactly the
monolithic sample), then the router runs the greedy cover over summed
per-node residual counts: one broadcast per round (pick → workers mark
newly covered sets and return decremented counts). Counts are additive
across partitions and greedy's argmax tie-break (lowest node id) sees
the same totals, so seeds, marginals and the spread estimate are
bit-identical to the single-process TRS answer.

Failure model
-------------
A receiver thread per worker detects pipe EOF (crash or SIGKILL). The
supervisor respawns the worker under the same ring slot, replays the
edit journal so it rejoins at the current epoch, and transparently
re-sends the retryable in-flight requests; scatter rounds are not
retryable mid-flight — the whole (deterministic) scatter query
restarts. :class:`~repro.exceptions.WorkerDiedError` surfaces only
when the respawn budget is exhausted, after which the worker leaves
the ring and its ~1/N of tokens remap to survivors.

Epoch broadcast
---------------
``apply_edits`` takes the writer side of a router-level gate (queries
take the read side), appends the batch to the journal *before*
broadcasting, then requires every worker to report the same new epoch.
Pipes are FIFO, so every query dispatched after the broadcast observes
the new epoch on every worker.

Fleet observability
-------------------
The router runs the in-process server's query lifecycle — admit,
trace, gate, dispatch (with retry), finish — in one wrapper for both
affinity and scatter queries, and answers every admin op through the
same methods as a ``CampaignServer``, so ``repro.serve.protocol`` and
the live telemetry endpoint never ask which kind they hold. Every
routed query's outcome reaches
:meth:`~repro.obs.distributed.FlightRecorder.record_query`, which
leaves the same flight-record shape as the in-process server.

With ``tracing=True`` the router owns one
:class:`~repro.obs.distributed.TraceCollector`: every routed query
opens a router-clock ``serve.query`` span whose
:class:`~repro.obs.distributed.TraceContext` rides the pipe message
(and, for scatter, every ``_shard.build``/``_shard.pick``); workers
ship their finished span bundles back piggy-backed on replies, where
the receive loop strips them *before* the caller's future resolves —
wire responses are byte-identical with tracing on or off, and the
flight recorder can attach the already-complete stitched trace. Worker
clocks are aligned per spawn handshake (each ready message carries the
worker's ``perf_counter``), so one Chrome trace covers the whole fleet
with non-negative durations. ``/events`` serves the causally merged
fleet stream (schema ``repro.obs.events/2``) and ``/debug/slow`` the
router's :class:`~repro.obs.distributed.FlightRecorder` ring.
"""

from __future__ import annotations

import itertools
import multiprocessing as mp
import os
import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.exceptions import (
    ConfigurationError,
    InvalidQueryError,
    ReproError,
    ServerClosedError,
    WorkerDiedError,
)
from repro.obs.distributed import (
    SPAN_BUNDLE_KEY,
    TRACE_CONTEXT_KEY,
    FlightRecorder,
    TraceCollector,
    TraceContext,
    empty_trace_payload,
    merge_event_payloads,
)
from repro.obs.metrics import MetricsRegistry
from repro.serve.cache import CacheStats
from repro.serve.keys import routing_token
from repro.serve.protocol import (
    QUERY_OPS,
    error_response,
    handle_request,
    submit_request,
)
from repro.serve.qos import RouterAdmission
from repro.serve.ring import HashRing

__all__ = ["ShardedCampaignService", "WorkerSpec"]

_CONTROL_RID = -1


# ----------------------------------------------------------------------
# Worker specification (pickled to every spawned worker)
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class WorkerSpec:
    """Everything a worker process needs to build its ``CampaignServer``.

    Must stay picklable under the ``spawn`` start method — chaos is
    carried as :class:`~repro.serve.chaos.ServeFaultPlan` constructor
    kwargs (the plan itself holds a lock). Each worker builds its own
    single-process :class:`~repro.engine.SamplingEngine`; intra-query
    parallelism comes from the fleet, not nested pools.
    """

    config: Any = None  # JointConfig | None
    engine_mode: str = "bitparallel"  # the only SamplingEngine mode
    pool_size: int = 4
    queue_capacity: int = 32
    cache_bytes: int = 256 * 1024 * 1024
    default_deadline: Optional[float] = None
    default_max_samples: Optional[int] = None
    prob_cache_entries: int = 64
    qos: Any = None  # QosConfig | None
    chaos: Optional[Dict[str, Any]] = None  # ServeFaultPlan kwargs
    mutable: bool = False
    repair_mode: str = "scalar"
    listen: bool = False  # per-worker OpenMetrics endpoint on 127.0.0.1:0
    retry_policy: Any = None  # RetryPolicy | None, for the worker's engine


# ----------------------------------------------------------------------
# Worker process side
# ----------------------------------------------------------------------


class _ScatterSessions:
    """Per-worker state for in-flight scatter/gather coverage queries.

    One session per router-side scatter query: the worker's RR-set
    partition plus the residual bookkeeping mirroring
    ``_greedy_max_coverage_flat`` (counts start as one bincount, each
    pick decrements by one bincount over the newly covered sets).
    """

    def __init__(self, server, sampler) -> None:
        self._server = server
        self._sampler = sampler
        self._lock = threading.Lock()
        self._sessions: Dict[str, Dict[str, Any]] = {}

    def handle(self, op: str, request: dict) -> dict:
        if op == "_shard.build":
            return self._build(request)
        if op == "_shard.pick":
            return self._pick(request)
        if op == "_shard.finish":
            return self._finish(request)
        raise ReproError(f"unknown shard op {op!r}")

    def _build(self, request: dict) -> dict:
        from repro.serve.keys import canonical_tags
        from repro.sketch.theta import compute_theta, estimate_opt_t
        from repro.utils.rng import ensure_rng
        from repro.utils.validation import (
            as_target_array,
            check_budget,
            check_tags_exist,
        )

        graph, epoch = self._server.graph_state
        expect = request.get("expect_epoch")
        if expect is not None and int(expect) != epoch:
            raise ReproError(
                f"epoch mismatch: worker at {epoch}, router expected {expect}"
            )
        sid = str(request["sid"])
        k = int(request["k"])
        tags = canonical_tags(request.get("tags", ()))
        # Identical validation + RNG pipeline to trs_build_sketch: the
        # pilot runs in full on every worker (it consumes the stream
        # prefix), only the main sampling pass is partitioned.
        check_budget(k, graph.num_nodes, what="seeds")
        check_tags_exist(tags, graph.tags)
        target_arr = as_target_array(
            request["targets"], graph.num_nodes, context="targets"
        )
        cfg = self._server.config.sketch
        rng = ensure_rng(int(request.get("seed", 0)))
        edge_probs = graph.edge_probabilities(tags)
        opt_t = estimate_opt_t(
            graph, target_arr, edge_probs, k, cfg, rng, engine=self._sampler
        )
        theta = compute_theta(
            graph.num_nodes, k, int(target_arr.size), opt_t, cfg
        )
        rr, _ = self._sampler.sample_rr_partition(
            graph, target_arr, edge_probs, theta, rng,
            int(request["part_index"]), int(request["part_count"]),
        )
        inv_indptr, inv_sets = rr.inverted()
        counts = np.bincount(rr.members, minlength=graph.num_nodes)
        with self._lock:
            self._sessions[sid] = {
                "members": rr.members,
                "indptr": rr.indptr,
                "inv_indptr": inv_indptr,
                "inv_sets": inv_sets,
                "counts": counts,
                "covered": np.zeros(rr.num_sets, dtype=bool),
                "num_nodes": graph.num_nodes,
            }
        return {
            "ok": True,
            "theta": int(theta),
            "opt_t": float(opt_t),
            "num_targets": int(target_arr.size),
            "epoch": epoch,
            "local_sets": int(rr.num_sets),
            "counts": counts,
        }

    def _pick(self, request: dict) -> dict:
        sid = str(request["sid"])
        node = int(request["node"])
        with self._lock:
            state = self._sessions.get(sid)
        if state is None:
            raise ReproError(f"unknown scatter session {sid!r}")
        covered = state["covered"]
        newly = state["inv_sets"][
            state["inv_indptr"][node]:state["inv_indptr"][node + 1]
        ]
        newly = newly[~covered[newly]]
        covered[newly] = True
        indptr = state["indptr"]
        starts = indptr[newly]
        lengths = indptr[newly + 1] - starts
        total = int(lengths.sum())
        if total:
            cumulative = np.cumsum(lengths)
            positions = np.arange(total, dtype=np.int64) + np.repeat(
                starts - (cumulative - lengths), lengths
            )
            touched = state["members"][positions]
            state["counts"] -= np.bincount(
                touched, minlength=state["num_nodes"]
            )
        return {
            "ok": True,
            "counts": state["counts"],
            "covered": int(covered.sum()),
        }

    def _finish(self, request: dict) -> dict:
        with self._lock:
            self._sessions.pop(str(request["sid"]), None)
        return {"ok": True}


def _worker_main(conn, worker_id: str, graph_payload, spec: WorkerSpec):
    """Entry point of one spawned worker process.

    Handshakes readiness (or the construction error) on the pipe, then
    serves rid-tagged requests until ``_shard.shutdown`` or pipe EOF
    (see :func:`_serve_conn` for the threading model).
    """
    import signal

    signal.signal(signal.SIGINT, signal.SIG_IGN)
    server = sampler = endpoint = None
    try:
        graph = (
            graph_payload.attach()
            if hasattr(graph_payload, "attach")
            else graph_payload
        )
        from repro.engine.parallel import SamplingEngine

        sampler = SamplingEngine(
            mode=spec.engine_mode, workers=1,
            retry_policy=spec.retry_policy,
        )
        from repro.core.joint import JointConfig
        from repro.serve.server import CampaignServer

        kwargs: Dict[str, Any] = {
            "config": spec.config if spec.config is not None else JointConfig(),
            "sampler": sampler,
            "pool_size": spec.pool_size,
            "queue_capacity": spec.queue_capacity,
            "cache_bytes": spec.cache_bytes,
            "default_deadline": spec.default_deadline,
            "default_max_samples": spec.default_max_samples,
            "prob_cache_entries": spec.prob_cache_entries,
            "qos": spec.qos,
            "mutable": spec.mutable,
            "repair_mode": spec.repair_mode,
        }
        if spec.chaos:
            from repro.serve.chaos import ServeFaultPlan

            kwargs["chaos"] = ServeFaultPlan(**spec.chaos)
        server = CampaignServer(graph, **kwargs)
        if spec.listen:
            from repro.obs.live import start_live_telemetry

            endpoint = start_live_telemetry(server, listen="127.0.0.1:0")
        conn.send({
            "_rid": _CONTROL_RID,
            "ok": True,
            "worker": worker_id,
            "pid": os.getpid(),
            "endpoint": getattr(endpoint, "url", None),
            # Clock-alignment handshake: the router subtracts this from
            # its own perf_counter at receipt to map shipped span
            # timestamps onto the router clock (repro.obs.distributed).
            "clock": time.perf_counter(),
        })
    except BaseException as exc:  # report the construction failure, then die
        try:
            conn.send({
                "_rid": _CONTROL_RID,
                "ok": False,
                "error": f"{type(exc).__name__}: {exc}",
            })
        except OSError:
            pass
        conn.close()
        return
    try:
        _serve_conn(conn, server, sampler, spec)
    finally:
        if endpoint is not None:
            endpoint.close()
        server.close()
        sampler.close()
        try:
            conn.close()
        except OSError:
            pass


def _serve_conn(conn, server, sampler, spec: WorkerSpec) -> None:
    """Serve the pipe until ``_shard.shutdown`` or EOF.

    Threading model: this receive thread never blocks on a request.
    A query op is admitted straight into the ``CampaignServer``'s
    class queues (:func:`~repro.serve.protocol.submit_request`), and
    the server thread that completes it sends the reply, so a query
    crosses one thread hop in the worker. Every other op (admin and
    ``_shard.*``) runs on a small pool, so a slow ``apply_edits`` or
    scatter build never holds up the receive loop.
    """
    from repro import obs
    from repro.obs.distributed import span_bundle_from_tracer

    scatter = _ScatterSessions(server, sampler)
    send_lock = threading.Lock()
    stop = threading.Event()

    def reply(rid, payload: dict) -> None:
        # Piggy-back any span bundles finished since the last reply;
        # the router strips the key before the caller's future resolves,
        # so the client-visible response is unchanged. Empty unless the
        # router propagated a trace context (zero overhead when off).
        spans = server.drain_span_exports()
        if spans:
            payload = {**payload, SPAN_BUNDLE_KEY: spans}
        payload["_rid"] = rid
        with send_lock:
            try:
                conn.send(payload)
            except (OSError, BrokenPipeError, ValueError):
                stop.set()

    def handle_shard_op(op: str, request: dict) -> dict:
        trace_ctx = TraceContext.pop_from(request)
        if op == "_shard.spans":
            # Explicit drain: the reply itself carries the buffered
            # bundles, bounding the export queue during long builds.
            return {"ok": True}
        if trace_ctx is None:
            return scatter.handle(op, request)
        # Observe the scatter phase so its spans join the stitched
        # fleet trace. Observability never perturbs results (PR 3
        # contract), so the payload is bit-identical either way.
        with obs.observe() as ob:
            ob.tracer.trace_id = trace_ctx.trace_id
            ob.tracer.parent_span_id = trace_ctx.parent_span_id
            with obs.span(op.lstrip("_")):
                payload = scatter.handle(op, request)
        server.export_span_bundle(span_bundle_from_tracer(
            ob.tracer, parent_span_id=trace_ctx.parent_span_id,
        ))
        return payload

    def handle(rid, request: dict) -> None:
        op = request.get("op")
        try:
            if isinstance(op, str) and op.startswith("_shard."):
                payload = handle_shard_op(op, request)
            else:
                payload = handle_request(server, request)
        except BaseException as exc:  # a request must never kill the loop
            payload = error_response(exc)
        reply(rid, payload)

    workers = max(int(spec.pool_size), 1) + 2  # scatter + admin headroom
    with ThreadPoolExecutor(
        max_workers=workers, thread_name_prefix="shard-admin"
    ) as pool:
        while not stop.is_set():
            try:
                msg = conn.recv()
            except (EOFError, OSError):
                break
            if not isinstance(msg, dict):
                continue
            rid = msg.pop("_rid", None)
            op = msg.get("op")
            if op == "_shard.shutdown":
                reply(rid, {"ok": True})
                break
            if op in QUERY_OPS:
                submit_request(
                    server, msg, lambda payload, rid=rid: reply(rid, payload)
                )
            else:
                pool.submit(handle, rid, msg)


# ----------------------------------------------------------------------
# Router side
# ----------------------------------------------------------------------


@dataclass
class _Pending:
    future: Future
    payload: dict
    retryable: bool
    #: The pipe the request was last written to. A send that raced a
    #: respawn wrote to the dead pipe; the death handler finds it by
    #: comparing this against the worker's current conn.
    conn: object = None


class _Worker:
    """Router-side handle for one worker process."""

    def __init__(self, worker_id: str) -> None:
        self.id = worker_id
        self.process = None
        self.conn = None
        self.pid: Optional[int] = None
        self.endpoint: Optional[str] = None
        self.lock = threading.Lock()
        self.outstanding: Dict[int, _Pending] = {}
        self.respawns = 0
        self.dead = False  # permanently failed, removed from the ring
        #: router_perf_counter - worker_perf_counter at the spawn
        #: handshake; re-measured on every respawn. Maps shipped span
        #: timestamps onto the router clock when stitching traces.
        self.clock_offset = 0.0

    @property
    def alive(self) -> bool:
        return not self.dead and self.process is not None \
            and self.process.is_alive()


class ShardedCampaignService:
    """Router fronting N ``CampaignServer`` worker processes.

    Exposes the ``CampaignServer`` surface the serving stack speaks:
    :meth:`query` for the query ops, the admin-op methods (``ping``,
    :meth:`metrics_payload`, :meth:`health`, :meth:`events_payload`,
    :meth:`trace_payload`, :meth:`flight_payload`, :meth:`warm_index`,
    :meth:`apply_edits`) that ``repro.serve.protocol`` and the live
    telemetry endpoint call on either kind, and :meth:`warm`. See the
    module docstring for routing, scatter, failure and epoch semantics.

    Parameters
    ----------
    graph:
        The :class:`~repro.graphs.TagGraph` to serve. With
        ``share_graph=True`` (default) its arrays are packed once into
        shared memory and every worker attaches zero-copy; the router
        owns the segments and unlinks them on :meth:`close`.
    workers:
        Fleet size (>= 1).
    spec:
        Per-worker :class:`WorkerSpec`.
    max_respawns:
        Per-worker budget of crash recoveries before the worker is
        declared permanently dead and leaves the ring.
    admission_capacity:
        Router-level in-flight cap; defaults to the fleet's aggregate
        ``pool_size + queue_capacity``.
    tracing:
        Enable fleet-wide distributed tracing: every routed query gets
        a router ``serve.query`` span, workers ship their span bundles
        back, and :meth:`chrome_trace` / the ``trace`` op serve one
        stitched Chrome trace. Off by default — when off, no trace
        context is injected and workers never open observations.
    trace_capacity:
        Bound on retained traces in the router collector (oldest
        evicted first).
    """

    def __init__(
        self,
        graph,
        workers: int = 2,
        spec: WorkerSpec = WorkerSpec(),
        *,
        max_respawns: int = 3,
        admission_capacity: Optional[int] = None,
        ring_replicas: int = 128,
        share_graph: bool = True,
        tracing: bool = False,
        trace_capacity: int = 256,
    ) -> None:
        from repro.obs.events import EventLog

        if workers < 1:
            raise ConfigurationError(
                f"workers must be >= 1, got {workers}"
            )
        self._graph = graph
        self._spec = spec
        self._max_respawns = int(max_respawns)
        self._closing = False
        self._closed = False
        self._started = time.monotonic()
        self._ctx = mp.get_context("spawn")
        self._rids = itertools.count(1)
        self._sids = itertools.count(1)
        self._journal: List[Tuple[list, bool]] = []
        self._epoch = 0
        self._fleet_lock = threading.RLock()
        self.events = EventLog(capacity=512)

        # Router-local metrics (merged into /metrics scrapes), registered
        # up front so an idle fleet already exposes every family at zero.
        self._stats_lock = threading.Lock()
        self._stats = MetricsRegistry()
        for name in (
            "router.dispatched", "router.retries", "router.respawns",
            "router.scatter_queries", "router.scatter_restarts",
            # workers that died mid-scrape (cumulative)
            "router.workers.unreachable",
        ):
            self._stats.counter(name)

        # Fleet tracing + slow-query flight recorder (see module docs).
        self._trace = (
            TraceCollector(int(trace_capacity), label="router")
            if tracing else None
        )
        self._trace_seq = itertools.count(1)
        qos_cfg = spec.qos
        self.flightrec = FlightRecorder(
            int(getattr(qos_cfg, "flight_capacity", None) or 64),
            slow_ms=getattr(qos_cfg, "flight_slow_ms", None),
        )

        # Reader/writer gate: queries read, apply_edits writes.
        self._gate = threading.Condition()
        self._gate_queries = 0
        self._gate_writer = False

        self._shared = None
        payload = graph
        if share_graph:
            from repro.engine.shared_csr import SharedTagGraph
            from repro.graphs.tag_graph import TagGraph

            if type(graph) is TagGraph:
                self._shared = SharedTagGraph(graph)
                payload = self._shared.handle
        self._graph_payload = payload

        capacity = admission_capacity
        if capacity is None:
            capacity = workers * (
                int(spec.pool_size) + int(spec.queue_capacity)
            )
        self._admission = RouterAdmission(max(int(capacity), 1))

        self._workers: Dict[str, _Worker] = {}
        try:
            for i in range(workers):
                worker = _Worker(f"w{i}")
                self._spawn(worker)
                self._workers[worker.id] = worker
        except BaseException:
            self.close()
            raise
        self.ring = HashRing(self._workers, replicas=ring_replicas)

    # ------------------------------------------------------------------
    # Fleet management
    # ------------------------------------------------------------------

    def _spawn(self, worker: _Worker) -> None:
        """Start (or restart) one worker process and handshake it.

        On restart, replays the edit journal over the fresh pipe before
        the receiver thread starts, so the worker rejoins at the
        current epoch and FIFO ordering guarantees every subsequently
        dispatched query sees it.
        """
        parent, child = self._ctx.Pipe(duplex=True)
        process = self._ctx.Process(
            target=_worker_main,
            args=(child, worker.id, self._graph_payload, self._spec),
            name=f"repro-shard-{worker.id}",
            daemon=True,
        )
        process.start()
        child.close()
        ready = parent.recv()  # blocks until the worker built its server
        # Clock alignment: sampled immediately after recv so the offset
        # over-counts by at most the one-way pipe latency — a positive
        # bias, so stitched worker spans never predate their dispatch.
        router_clock = time.perf_counter()
        if not ready.get("ok"):
            parent.close()
            process.join(timeout=5.0)
            raise ReproError(
                f"worker {worker.id} failed to start: {ready.get('error')}"
            )
        for index, (edits, repair) in enumerate(self._journal):
            parent.send({
                "op": "apply_edits", "edits": edits, "repair": repair,
                "_rid": _CONTROL_RID - 1 - index,
            })
            applied = parent.recv()
            if not applied.get("ok"):
                parent.close()
                process.terminate()
                raise ReproError(
                    f"worker {worker.id} failed journal replay: "
                    f"{applied.get('error')}"
                )
        worker.process = process
        worker.conn = parent
        worker.pid = ready.get("pid")
        worker.endpoint = ready.get("endpoint")
        worker_clock = ready.get("clock")
        worker.clock_offset = (
            router_clock - float(worker_clock)
            if isinstance(worker_clock, (int, float)) else 0.0
        )
        thread = threading.Thread(
            target=self._receive_loop,
            args=(worker, parent),
            name=f"shard-recv-{worker.id}",
            daemon=True,
        )
        thread.start()
        self.events.emit(
            "shard.worker_up", worker=worker.id, pid=worker.pid,
            respawns=worker.respawns,
        )

    def _receive_loop(self, worker: _Worker, conn) -> None:
        while True:
            try:
                msg = conn.recv()
            except (EOFError, OSError):
                break
            if not isinstance(msg, dict):
                continue
            rid = msg.pop("_rid", None)
            # Strip piggy-backed span bundles unconditionally (wire
            # responses stay identical tracing on or off) and ingest
            # them BEFORE the future resolves, so a flight record cut
            # on response completion sees the full stitched trace.
            bundles = msg.pop(SPAN_BUNDLE_KEY, None)
            if bundles and self._trace is not None:
                for bundle in bundles:
                    self._trace.add_bundle(
                        bundle,
                        offset_seconds=worker.clock_offset,
                        worker=worker.id,
                        pid=worker.pid,
                    )
            with worker.lock:
                pending = worker.outstanding.pop(rid, None)
            if pending is not None:
                pending.future.set_result(msg)
        self._on_conn_down(worker, conn)

    def _on_conn_down(self, worker: _Worker, conn) -> None:
        """Handle a dead pipe: respawn + replay, or retire the worker."""
        with self._fleet_lock:
            if self._closing or worker.conn is not conn:
                return
            with worker.lock:
                orphans = dict(worker.outstanding)
                worker.outstanding.clear()
            worker.respawns += 1
            self._count("router.respawns")
            self.events.emit(
                "shard.worker_down", worker=worker.id, pid=worker.pid,
                orphaned=len(orphans), respawns=worker.respawns,
            )
            if worker.respawns > self._max_respawns:
                self._retire(worker, orphans, "respawn budget exhausted")
                return
            try:
                self._spawn(worker)
            except (ReproError, OSError) as exc:
                self._retire(worker, orphans, f"respawn failed: {exc}")
                return
            # Sends that raced the respawn wrote to the dead pipe and
            # were swallowed; sweep them into the orphan set so they are
            # replayed (or failed) like everything else that was lost.
            with worker.lock:
                strays = {
                    rid: pending
                    for rid, pending in worker.outstanding.items()
                    if pending.conn is not worker.conn
                }
                for rid in strays:
                    del worker.outstanding[rid]
            orphans.update(strays)
            for rid, pending in orphans.items():
                if pending.retryable:
                    self._count("router.retries")
                    self._send(worker, rid, pending)
                else:
                    pending.future.set_exception(WorkerDiedError(
                        f"worker {worker.id} died mid-request "
                        "(non-retryable op)"
                    ))

    def _retire(self, worker: _Worker, orphans, reason: str) -> None:
        worker.dead = True
        with worker.lock:
            orphans = {**orphans, **worker.outstanding}
            worker.outstanding.clear()
        if worker.id in self.ring:
            self.ring.remove(worker.id)
        self.events.emit(
            "shard.worker_retired", worker=worker.id, reason=reason
        )
        for pending in orphans.values():
            pending.future.set_exception(WorkerDiedError(
                f"worker {worker.id} permanently dead: {reason}"
            ))

    def _live_workers(self) -> List[_Worker]:
        return [w for w in self._workers.values() if not w.dead]

    # ------------------------------------------------------------------
    # Request plumbing
    # ------------------------------------------------------------------

    def _send(self, worker: _Worker, rid: int, pending: _Pending) -> None:
        with worker.lock:
            if worker.dead:
                pending.future.set_exception(WorkerDiedError(
                    f"worker {worker.id} permanently dead"
                ))
                return
            worker.outstanding[rid] = pending
            pending.conn = worker.conn
            try:
                # The one copy per send: the caller's payload is kept
                # as is for a replay, and the pipe message adds the rid.
                worker.conn.send({**pending.payload, "_rid": rid})
            except (OSError, BrokenPipeError, ValueError):
                # The receiver thread sees the same broken pipe and runs
                # the death handler; the pending entry rides along.
                pass

    def _call(
        self, worker: _Worker, payload: dict, retryable: bool
    ) -> Future:
        if self._closed:
            raise ServerClosedError("sharded service is closed")
        rid = next(self._rids)
        pending = _Pending(Future(), payload, retryable)
        self._count("router.dispatched")
        self._send(worker, rid, pending)
        return pending.future

    def _count(self, name: str, amount: int = 1) -> None:
        with self._stats_lock:
            self._stats.count(name, amount)

    def _enter_query(self) -> None:
        with self._gate:
            while self._gate_writer:
                self._gate.wait()
            self._gate_queries += 1

    def _exit_query(self) -> None:
        with self._gate:
            self._gate_queries -= 1
            if self._gate_queries == 0:
                self._gate.notify_all()

    # ------------------------------------------------------------------
    # Query lifecycle: admit → trace → gate → attempt/retry → finish
    # ------------------------------------------------------------------

    def query(self, request: dict) -> dict:
        """The protocol's query entry point (see :meth:`route_request`)."""
        return self.route_request(request)

    def route_request(self, request: dict) -> dict:
        """Route one decoded query-op request; returns the wire response.

        ``find_seeds`` with ``"scatter": true`` fans out across every
        live worker; every other query goes to its ring worker. Raises
        :class:`~repro.exceptions.QueryRejectedError` subclasses for
        router-level admission rejections (the protocol layer turns them
        into structured error responses) and :class:`WorkerDiedError`
        when no worker can serve the request. Admin ops are not routed:
        they go through ``repro.serve.protocol``, which broadcasts the
        ones every worker must see.
        """
        if self._closed:
            raise ServerClosedError("sharded service is closed")
        op = request.get("op")
        if op not in QUERY_OPS:
            raise ReproError(
                f"route_request routes query ops only, got {op!r}"
            )
        if op == "find_seeds" and request.get("scatter"):
            if request.get("engine") not in (None, "trs"):
                raise InvalidQueryError(
                    "scatter coverage supports engine='trs' only"
                )
            return self._lifecycle(
                request, self._scatter_once, restarts=2, scatter=True
            )
        return self._lifecycle(request, self._affinity_once)

    def _lifecycle(self, request: dict, attempt, restarts=None,
                   **span_attrs) -> dict:
        """Run one routed query through the router's lifecycle.

        Opens the router ``serve.query`` span (when tracing), takes an
        admission slot and the read side of the edit gate, then calls
        ``attempt(request, qos, span, n)`` for ``n = 0, 1, ...`` while it
        raises :class:`WorkerDiedError` and a live worker remains (at
        most ``restarts`` times when set). Every outcome, raised or
        answered, closes the span and reaches the flight recorder.
        """
        qos = str(request.get("class", request.get("qos_class",
                                                   "interactive")))
        started = time.monotonic()
        trace_id = f"t-{next(self._trace_seq):06d}"
        span = None
        if self._trace is not None:
            span = self._trace.begin(
                "serve.query", trace_id=trace_id, op=request.get("op"),
                **span_attrs, **{"class": qos},
            )
        response: dict = {}
        error: Optional[BaseException] = None
        waited = 0.0
        try:
            self._admission.admit(qos)
            try:
                self._enter_query()
                try:
                    waited = time.monotonic() - started
                    for n in itertools.count():
                        try:
                            response = attempt(request, qos, span, n)
                            break
                        except WorkerDiedError:
                            if n == restarts or not self._live_workers():
                                raise
                finally:
                    self._exit_query()
            finally:
                self._admission.release(qos)
        except BaseException as exc:
            error = exc
            raise
        finally:
            self._finish_query(
                request, qos, trace_id, span, started, waited, response,
                error,
            )
        return response

    def _finish_query(self, request, qos, trace_id, span, started, waited,
                      response: dict, error) -> None:
        """Close the router span and flight-record the query.

        A raised error is classified by its wire shape, exactly like a
        worker's error reply; only the phase differs. (The wire error
        does not say in which phase a worker rejected a query.)
        """
        phase = "worker"
        if error is not None:
            response, phase = error_response(error), "admission"
        wire_error = response.get("error")
        outcome, cause = "failed", None
        if response.get("ok"):
            outcome = "ok"
        elif isinstance(wire_error, dict):
            outcome = "rejected"
            cause = {"code": wire_error["code"], "phase": phase,
                     "retry_after_ms": wire_error["retry_after_ms"]}
        elif response.get("type") == "BudgetExceededError":
            outcome, cause = "cancelled", {"error": wire_error}
        if span is None:
            pass
        elif error is None:
            self._trace.finish(
                span, ok=outcome == "ok", cache=response.get("cache"),
                tier=response.get("tier"),
            )
        else:
            self._trace.finish(
                span, error=(
                    wire_error["code"] if outcome == "rejected"
                    else response["type"]
                ),
            )
        deadline = request.get("deadline")
        elapsed_ms = (time.monotonic() - started) * 1000.0
        deadline_ms = (
            float(deadline) * 1000.0
            if isinstance(deadline, (int, float)) else None
        )
        self.flightrec.record_query(
            outcome,
            op=request.get("op"),
            trace_id=trace_id,
            qos_class=qos,
            elapsed_ms=elapsed_ms,
            deadline_ms=deadline_ms,
            queue_wait_ms=waited * 1000.0,
            tier=response.get("tier"),
            cache=response.get("cache"),
            epoch=response.get("epoch", self._epoch),
            degraded=response.get("degraded"),
            cause=cause,
            # The stitched trace is already complete: worker bundles ride
            # the same reply and are ingested before the future resolves.
            trace=(
                (lambda: self._trace.chrome_trace(trace_id))
                if span is not None else None
            ),
        )

    @staticmethod
    def _with_trace_context(request: dict, span: Optional[dict]) -> dict:
        """Copy ``request`` with the propagation context injected.

        Called AFTER :func:`routing_token` so placement never sees the
        private key (the token only reads identity fields anyway).
        """
        if span is None:
            return request
        ctx = TraceContext(span["trace_id"], span["span_id"])
        return {**request, TRACE_CONTEXT_KEY: ctx.as_dict()}

    def _affinity_once(self, request: dict, qos: str, span, n: int) -> dict:
        worker = self._place(routing_token(request))
        payload = self._with_trace_context(request, span)
        return self._call(worker, payload, retryable=True).result()

    def _place(self, token: str) -> _Worker:
        try:
            worker_id = self.ring.place(token)
        except ConfigurationError:
            raise WorkerDiedError(
                "no live workers remain in the sharded service"
            ) from None
        return self._workers[worker_id]

    def worker_for(self, request: dict) -> str:
        """Ring placement for a request — exposed for affinity tests."""
        return self.ring.place(routing_token(request))

    # -- scatter/gather greedy coverage --------------------------------

    def _scatter_once(
        self, request: dict, qos: str, trace: Optional[dict], n: int
    ) -> dict:
        # Deterministic pipeline: a clean restart over the surviving
        # fleet gives the same answer.
        self._count(
            "router.scatter_restarts" if n else "router.scatter_queries"
        )
        started = time.monotonic()
        live = self._live_workers()
        if not live:
            raise WorkerDiedError(
                "no live workers remain in the sharded service"
            )
        sid = f"scatter-{next(self._sids)}"
        part_count = len(live)
        k = int(request["k"])
        # Every build/pick carries the propagation context, so the
        # stitched trace shows one query fanning across all worker pids.
        base = self._with_trace_context({
            "op": "_shard.build",
            "sid": sid,
            "targets": list(request["targets"]),
            "tags": list(request.get("tags", ())),
            "k": k,
            "seed": int(request.get("seed", 0)),
            "part_count": part_count,
            "expect_epoch": self._epoch,
        }, trace)
        futures = [
            self._call(w, {**base, "part_index": i}, retryable=False)
            for i, w in enumerate(live)
        ]
        try:
            infos = self._gather(futures, "scatter build")
            thetas = {info["theta"] for info in infos}
            epochs = {info["epoch"] for info in infos}
            if len(thetas) != 1 or len(epochs) != 1:
                raise ReproError(
                    f"scatter divergence: thetas={sorted(thetas)} "
                    f"epochs={sorted(epochs)}"
                )
            theta = thetas.pop()
            num_targets = infos[0]["num_targets"]
            num_nodes = int(self._graph.num_nodes)
            counts = np.zeros(num_nodes, dtype=np.int64)
            for info in infos:
                counts += np.asarray(info["counts"], dtype=np.int64)

            # Greedy max coverage over summed residual counts — same
            # argmax/tie-break/stop/filler semantics as
            # repro.sketch.coverage (allowed = all nodes).
            seeds: List[int] = []
            marginals: List[int] = []
            used = np.zeros(num_nodes, dtype=bool)
            covered = 0
            budget = min(k, num_nodes)
            for _ in range(budget):
                masked = np.where(~used, counts, -1)
                best = int(masked.argmax())
                gain = int(masked[best])
                if gain <= 0:
                    break
                seeds.append(best)
                marginals.append(gain)
                used[best] = True
                pick = self._with_trace_context(
                    {"op": "_shard.pick", "sid": sid, "node": best}, trace
                )
                picks = [self._call(w, pick, retryable=False) for w in live]
                responses = self._gather(picks, "scatter pick")
                counts = np.zeros(num_nodes, dtype=np.int64)
                covered = 0
                for resp in responses:
                    counts += np.asarray(resp["counts"], dtype=np.int64)
                    covered += int(resp["covered"])
            if len(seeds) < budget:
                fillers = np.flatnonzero(~used)
                for node in fillers[: budget - len(seeds)].tolist():
                    seeds.append(int(node))
                    marginals.append(0)

            total = sum(int(info["local_sets"]) for info in infos)
            fraction = covered / total if total else 0.0
            elapsed_ms = (time.monotonic() - started) * 1000.0
            return {
                "ok": True,
                "seeds": [int(s) for s in seeds],
                "spread": float(fraction * num_targets),
                "engine": "trs",
                "cache": "scatter",
                "class": qos,
                "tier": "full",
                "epoch": self._epoch,
                "elapsed_ms": round(elapsed_ms, 3),
                "scatter": {
                    "workers": part_count,
                    "theta": int(theta),
                    "covered": int(covered),
                    "total_sets": int(total),
                    "marginals": [int(m) for m in marginals],
                },
            }
        finally:
            for w in live:
                if not w.dead:
                    try:
                        self._call(
                            w, {"op": "_shard.finish", "sid": sid},
                            retryable=False,
                        )
                    except ServerClosedError:  # pragma: no cover
                        break

    def _gather(self, futures: List[Future], what: str) -> List[dict]:
        results = []
        for future in futures:
            response = future.result()
            if not response.get("ok"):
                error = response.get("error")
                kind = response.get("type", "")
                if kind == "InvalidQueryError":
                    raise InvalidQueryError(str(error))
                raise ReproError(f"{what} failed: {error}")
            results.append(response)
        return results

    # -- epoch broadcast ------------------------------------------------

    def apply_edits(self, edits, repair: bool = True) -> dict:
        """Broadcast an edit batch to every worker (writer-gated).

        Appends to the journal *before* sending, so a worker that dies
        mid-apply replays the batch during respawn; afterwards every
        worker must report the same epoch or the call fails loudly.
        Returns the first answering worker's summary, as
        :meth:`CampaignServer.apply_edits` does, plus ``workers``.
        """
        if not self._spec.mutable:
            raise ReproError(
                "apply_edits requires a mutable service "
                "(WorkerSpec(mutable=True))"
            )
        batch = ([dict(e) for e in edits], bool(repair))
        with self._gate:
            while self._gate_writer:
                self._gate.wait()
            self._gate_writer = True
            while self._gate_queries:
                self._gate.wait()
        try:
            self._journal.append(batch)
            live = self._live_workers()
            if not live:
                raise WorkerDiedError(
                    "no live workers remain in the sharded service"
                )
            futures = {
                w.id: self._call(
                    w,
                    {"op": "apply_edits", "edits": batch[0],
                     "repair": batch[1]},
                    retryable=False,
                )
                for w in live
            }
            summary: Optional[dict] = None
            epochs = set()
            for worker_id, future in futures.items():
                try:
                    response = future.result()
                except WorkerDiedError:
                    # The respawn replayed the journal (including this
                    # batch); confirm its epoch through a health probe.
                    worker = self._workers[worker_id]
                    if worker.dead:
                        continue
                    probe = self._call(
                        worker, {"op": "health"}, retryable=True
                    ).result()
                    epochs.add(int(probe["health"]["epoch"]))
                    continue
                if not response.get("ok"):
                    raise ReproError(
                        f"apply_edits failed on {worker_id}: "
                        f"{response.get('error')}"
                    )
                epochs.add(int(response["epoch"]))
                if summary is None:
                    summary = response
            if len(epochs) != 1:
                raise ReproError(
                    f"epoch divergence after apply_edits: {sorted(epochs)}"
                )
            self._epoch = epochs.pop()
            # Empty when every worker died and respawned mid-broadcast.
            summary = dict(summary or {})
            summary.pop("ok", None)
            summary["epoch"] = self._epoch
            summary["elapsed_seconds"] = (
                summary.pop("elapsed_ms", 0.0) / 1000.0
            )
            summary["workers"] = len(futures)
            self.events.emit(
                "shard.epoch_broadcast", epoch=self._epoch,
                workers=len(futures), edits=len(batch[0]),
            )
            return summary
        finally:
            with self._gate:
                self._gate_writer = False
                self._gate.notify_all()

    # -- observability ---------------------------------------------------

    def _router_snapshot(self) -> dict:
        admission = self._admission.snapshot()
        with self._stats_lock:
            self._stats.set_gauge(
                "router.workers", len(self._live_workers())
            )
            self._stats.set_gauge("router.in_flight", admission["in_flight"])
            snapshot = self._stats.as_dict()
        # RouterAdmission keeps its own totals under its lock.
        snapshot["counters"]["router.admitted"] = admission["admitted"]
        snapshot["counters"]["router.rejected"] = admission["rejected"]
        return snapshot

    def metrics_payload(self) -> dict:
        """The ``metrics`` reply: every worker's snapshot merged, plus
        the router's own families and a per-worker ``workers`` map."""
        from repro.obs.live import merge_metrics_snapshots
        from repro.serve.server import METRICS_SCHEMA

        snapshots: List[dict] = []
        cache: Dict[str, Any] = {}
        per_worker: Dict[str, Dict[str, Any]] = {}
        for worker, response in self._ask_live({"op": "metrics"}):
            info: Dict[str, Any] = {
                "pid": worker.pid,
                "endpoint": worker.endpoint,
                "respawns": worker.respawns,
            }
            per_worker[worker.id] = info
            if not response.get("ok"):
                # A worker dying mid-scrape is a labeled gap in the
                # response, never a KeyError or a silently missing row.
                info["unreachable"] = True
                info["error"] = str(response.get("error"))
                continue
            metrics = response.get("metrics") or {}
            snapshots.append(metrics)
            counters = metrics.get("counters") or {}
            gauges = metrics.get("gauges") or {}
            info["queries"] = int(counters.get("serve.queries") or 0)
            info["inflight"] = float(gauges.get("serve.inflight") or 0.0)
            info["epoch"] = int(gauges.get("serve.epoch") or 0)
            for key, value in (response.get("cache") or {}).items():
                if isinstance(value, (int, float)):
                    cache[key] = cache.get(key, 0) + value
        unreachable = sum("unreachable" in i for i in per_worker.values())
        if unreachable:
            self._count("router.workers.unreachable", unreachable)
        # Router snapshot is taken AFTER the scrape so the unreachable
        # counter reflects this very scrape's gaps.
        snapshots.insert(0, self._router_snapshot())
        merged = merge_metrics_snapshots(snapshots)
        # Per-worker families are injected post-merge so they never sum
        # across workers; rendered as labeled OpenMetrics series and the
        # per-worker rows of `repro top`.
        for worker_id, info in per_worker.items():
            if "unreachable" in info:
                continue
            merged["counters"][f"worker.{worker_id}.queries"] = (
                info["queries"]
            )
            for name in ("inflight", "respawns", "epoch"):
                merged["gauges"][f"worker.{worker_id}.{name}"] = float(
                    info[name]
                )
        return {
            "schema": METRICS_SCHEMA,
            "metrics": merged,
            "cache": cache,
            "workers": per_worker,
        }

    def events_payload(self, limit: Optional[int] = None) -> dict:
        """Causally merged fleet event stream (``repro.obs.events/2``).

        Scrapes every live worker's event ring plus the router's own
        and merges them into one ordered stream; a worker that dies
        mid-scrape becomes a labeled gap in ``sources``.
        """
        payloads: Dict[str, Any] = {"router": self.events.payload(None)}
        for worker, response in self._ask_live({"op": "events"}):
            payloads[worker.id] = response if response.get("ok") else None
        return merge_event_payloads(
            payloads, epoch=self._epoch, limit=limit
        )

    def chrome_trace(self, trace_id: Optional[str] = None) -> List[dict]:
        """One stitched fleet Chrome trace (empty when tracing is off)."""
        return self.trace_payload(trace_id)["events"]

    def trace_payload(self, trace_id: Optional[str] = None) -> dict:
        """The ``/trace`` debug document for the fleet.

        Drains every live worker's buffered span bundles first: the
        ``_shard.spans`` reply carries them piggy-backed, so the receive
        loop has ingested them by the time each reply resolves.
        """
        if self._trace is None:
            return empty_trace_payload()
        self._ask_live({"op": "_shard.spans"}, retryable=False)
        return self._trace.payload(trace_id)

    def flight_payload(self, limit: Optional[int] = None) -> dict:
        """The ``/debug/slow`` document (always available)."""
        return self.flightrec.payload(limit)

    def metrics(self) -> dict:
        """Aggregated fleet metrics (one merged snapshot)."""
        return self.metrics_payload()["metrics"]

    def cache_stats(self) -> CacheStats:
        """Cache stats summed over the live workers."""
        return CacheStats(**self.metrics_payload()["cache"])

    def ping(self) -> dict:
        """The ``ping`` reply, with the live worker count."""
        if self._closed:
            raise ServerClosedError("sharded service is closed")
        return {"pong": True, "workers": len(self._live_workers())}

    def health(self) -> dict:
        """Router-local health: never blocks on worker round-trips."""
        workers = {
            w.id: {
                "alive": w.alive,
                "pid": w.pid,
                "respawns": w.respawns,
                "endpoint": w.endpoint,
                "clock_offset_ms": round(w.clock_offset * 1000.0, 3),
            }
            for w in self._workers.values()
        }
        live = len(self._live_workers())
        if self._closed:
            status = "closed"
        elif live == len(self._workers):
            status = "ok"
        elif live:
            status = "degraded"
        else:
            status = "failed"
        return {
            "status": status,
            "epoch": self._epoch,
            "tracing": self._trace is not None,
            "workers": workers,
            "admission": self._admission.snapshot(),
            "ring": {
                "members": sorted(self.ring.members),
                "replicas": self.ring.replicas,
            },
            "uptime_seconds": round(time.monotonic() - self._started, 3),
        }

    @property
    def epoch(self) -> int:
        return self._epoch

    @property
    def num_workers(self) -> int:
        return len(self._live_workers())

    def worker_pids(self) -> Dict[str, Optional[int]]:
        """Live worker pids, for chaos tests that SIGKILL a worker."""
        return {w.id: w.pid for w in self._live_workers()}

    def broadcast(self, request: dict) -> List[dict]:
        """Send one request to every live worker and gather the replies."""
        return [response for _worker, response in self._ask_live(request)]

    def _ask_live(
        self, request: dict, retryable: bool = True
    ) -> List[Tuple[_Worker, dict]]:
        """``(worker, reply)`` from every live worker, sent concurrently.

        A worker that dies (or a fleet that closes) mid-call replies
        ``{"ok": False, "error": <exception name>}``: a labeled gap in
        the gathered replies, never a raise.
        """
        futures = [
            (w, self._call(w, request, retryable))
            for w in self._live_workers()
        ]
        replies = []
        for worker, future in futures:
            try:
                replies.append((worker, future.result()))
            except (WorkerDiedError, ServerClosedError) as exc:
                replies.append(
                    (worker, {"ok": False, "error": type(exc).__name__})
                )
        return replies

    # -- warm-up ---------------------------------------------------------

    def warm_index(self, tags=None, theta_c=None, r: int = 2,
                   seed: int = 0) -> List[str]:
        """Freeze the same possible-world index on every live worker.

        Broadcast, not routed: any worker may serve an index-backed
        query. The build is seeded, so every worker warms the same tags;
        returns the first worker's list.
        """
        replies = self.broadcast({
            "op": "warm_index", "tags": tags, "theta_c": theta_c,
            "r": r, "seed": seed,
        })
        for reply in replies:
            if not reply.get("ok"):
                raise ReproError(f"warm_index failed: {reply.get('error')}")
        return replies[0]["warmed_tags"] if replies else []

    # -- lifecycle -------------------------------------------------------

    def close(self) -> None:
        """Shut the fleet down and release shared-memory segments."""
        with self._fleet_lock:
            if self._closed:
                return
            self._closing = True
            self._closed = True
            workers = list(self._workers.values())
        for worker in workers:
            if worker.conn is None:
                continue
            try:
                worker.conn.send({
                    "op": "_shard.shutdown", "_rid": _CONTROL_RID,
                })
            except (OSError, BrokenPipeError, ValueError):
                pass
        for worker in workers:
            if worker.process is not None:
                worker.process.join(timeout=10.0)
                if worker.process.is_alive():  # pragma: no cover
                    worker.process.kill()
                    worker.process.join(timeout=5.0)
            if worker.conn is not None:
                try:
                    worker.conn.close()
                except OSError:
                    pass
            with worker.lock:
                orphans = dict(worker.outstanding)
                worker.outstanding.clear()
            for pending in orphans.values():
                pending.future.set_exception(
                    ServerClosedError("sharded service closed")
                )
        if self._shared is not None:
            self._shared.unlink()
            self._shared = None

    def __enter__(self) -> "ShardedCampaignService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
