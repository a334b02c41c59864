"""``CampaignServer`` — concurrent campaign serving with asset reuse.

One server owns one :class:`~repro.graphs.TagGraph` and turns the
batch library into a multi-query service:

* Queries (`find_seeds` / `find_tags` / `jointly_select` /
  `estimate_spread`) run on a **bounded thread pool** behind per-class
  admission queues (``interactive`` / ``batch`` / ``best_effort``,
  drained by smooth weighted round-robin — see
  :mod:`repro.serve.qos`); overload is rejected cleanly with
  :class:`~repro.exceptions.ServerOverloadedError` instead of queueing
  without bound, and every rejection carries a machine-readable
  ``code`` / ``retry_after_ms`` / ``qos_class`` triple.
* **Graded overload behavior** instead of a binary gate: explicit
  per-query deadlines are checked *predictively* at admission (rolling
  per-op p95s → predicted completion; doomed queries are rejected up
  front) and *cooperatively* during execution (the deadline rides the
  PR 2 :class:`~repro.engine.RunBudget` to shard boundaries; partial
  work is salvaged into the cache). Under pressure ``best_effort``
  queries are downgraded to a reduced-θ ``approximate`` tier — a
  *cheaper answer with quantified error* (the response is tagged with
  the θ it used and its widened ε) — then to resident-cache-only
  service, and only then shed. Per-asset-kind circuit breakers stop
  repeated build failures from burning the pool.
* Expensive shareable artifacts — targeted RR sketches (the sampling
  half of TRS), warm query results, per-tag possible-world indexes, and
  tag-aggregation arrays — are built **once** (single-flight) and
  reused across queries through a byte-accounted LRU
  (:class:`~repro.serve.cache.AssetCache`).
* Every query runs inside its **own observability scope** (thread-local
  — see :mod:`repro.obs`), so ``rr.*`` / ``runtime.*`` counters are
  per-query exact even when one pooled
  :class:`~repro.engine.SamplingEngine` backs all queries (each query
  samples through a telemetry-isolated
  :class:`~repro.engine.QueryEngineView`).

Determinism contract
--------------------
A served answer is **bit-identical** to the equivalent direct library
call with the same RNG seed and *canonical* inputs (tags sorted and
deduplicated, seed lists sorted and deduplicated — the server
canonicalizes before executing, so all permutations of one query share
one answer). This holds on every cache path: cold (the server runs the
same code the library would), warm (the cached asset was produced by
that same code and the remaining selection is deterministic), and
post-eviction (the rebuild replays the same seeded build). The
differential test suite asserts this for seeds, tags, spreads, *and*
work counters: a cache hit merges the asset's build-time metrics into
the query's observation, so served reports always account for the work
embodied in the answer, not just the work done by this query.

Degraded tiers are the one *deliberate* departure: an ``approximate``
answer is bit-identical to a direct call *with the degraded sketch
config* (the reduced-θ config participates in the cache key via its
digest, so full and approximate assets never collide), a ``stale``
answer reuses a resident asset built for different parameters, and a
``salvaged`` answer reuses partial work a budget cancellation left
behind. Every non-full tier is tagged on the response (``tier`` +
``degraded`` payload) — degraded answers are never silent.
"""

from __future__ import annotations

import itertools
import math
import threading
import time
import weakref
from collections import deque
from collections.abc import Sequence
from concurrent.futures import Future, InvalidStateError, ThreadPoolExecutor
from dataclasses import dataclass, field, replace as dc_replace
from typing import Any, Callable

from repro import obs
from repro.core.joint import JointConfig, jointly_select
from repro.core.problem import JointQuery
from repro.diffusion.monte_carlo import estimate_spread
from repro.engine.parallel import resolve_engine
from repro.engine.runtime import RunBudget, RunTelemetry
from repro.exceptions import (
    BudgetExceededError,
    CircuitOpenError,
    ConfigurationError,
    DeadlineRejectedError,
    InvalidQueryError,
    QueryRejectedError,
    QueryShedError,
    ServerClosedError,
    ServerOverloadedError,
)
from repro.graphs.mutable import GraphEdit, MutableTagGraph, edit_from_dict
from repro.graphs.tag_graph import TagGraph
from repro.index.lazy import IndexManager
from repro.index.possible_world_index import theta_c as compute_theta_c
from repro.obs.distributed import (
    FlightRecorder,
    TraceCollector,
    TraceContext,
    empty_trace_payload,
    span_bundle_from_tracer,
)
from repro.obs.events import EventLog
from repro.obs.metrics import MetricsRegistry
from repro.seeds.api import ENGINES, SeedSelection, find_seeds
from repro.serve.cache import AssetCache
from repro.serve.chaos import InjectedChaosError, ServeFaultPlan
from repro.serve.keys import (
    AssetKey,
    canonical_tags,
    config_digest,
    targets_digest,
)
from repro.serve.qos import (
    QUERY_CLASSES,
    CircuitBreaker,
    LatencyPredictor,
    QosConfig,
    WeightedClassQueues,
)
from repro.sketch.incremental import (
    REPAIR_MODES,
    RepairableSketch,
    repair_sketches,
    trs_build_repairable_sketch,
)
from repro.sketch.trs import trs_build_sketch, trs_select_from_sketch
from repro.tags.api import METHODS, find_tags
from repro.utils.rng import ensure_rng
from repro.utils.timing import Timer

__all__ = ["CampaignServer", "ServeResponse", "METRICS_SCHEMA"]

#: Schema tag for serialized metrics snapshots (``repro serve
#: --metrics-out``, protocol ``metrics`` responses). ``/2`` adds
#: histogram quantiles (p50/p95/p99), the per-op latency family
#: ``serve.op.latency_ms.*``, the ``serve.inflight`` /
#: ``serve.uptime_seconds`` gauges, and ``serve.errors*`` counters.
#: ``/3`` is additive again: QoS families (``serve.queries.<class>``,
#: ``serve.queue.depth.<class>`` gauges, ``serve.queue.wait_ms``
#: histogram, ``serve.utilization`` gauge), graded-overload counters
#: (``serve.rejected.<code>``, ``serve.degraded(+.<tier>)``,
#: ``serve.cancelled``, ``serve.salvaged``), circuit-breaker counters
#: (``serve.breaker.<state>``, ``serve.breaker.fastfail``), and cache
#: ``puts``/``stale_hits``. ``/4`` adds the mutable-graph families:
#: the ``serve.epoch`` gauge, edit counters (``serve.edits.applied``,
#: ``serve.edits.count``, ``serve.edits.dirty_edges``) and asset-
#: migration counters (``serve.repair.promoted`` / ``.repaired`` /
#: ``.dropped`` / ``.resampled_sets``) — see ``docs/serving.md`` and
#: ``docs/mutability.md`` for the diff.
METRICS_SCHEMA = "repro.serve.metrics/4"


@dataclass(frozen=True)
class ServeResponse:
    """Envelope around one served answer.

    Attributes
    ----------
    op:
        The query kind (``"find_seeds"``, ``"find_tags"``, ``"joint"``,
        ``"spread"``).
    value:
        The library-level result: a
        :class:`~repro.seeds.api.SeedSelection`,
        :class:`~repro.tags.api.TagSelection`,
        :class:`~repro.core.problem.JointResult`, or a float spread.
    cache:
        ``"miss"`` when this query built the decisive asset, ``"hit"``
        when it reused one (including single-flight joins), ``"none"``
        for uncached ops.
    elapsed_seconds:
        Wall-clock execution time on the worker (queue wait excluded).
    report:
        The per-query observability report (metrics + spans nested
        under the ``serve.query`` root). Work counters here are
        bit-identical to a direct library call's — cache hits merge the
        asset's build-time counters in.
    qos_class:
        The admission class this query ran under.
    tier:
        ``"full"`` for the normal bit-exact answer; ``"approximate"``
        (reduced-θ degraded build), ``"stale"`` (resident asset built
        for different parameters), or ``"salvaged"`` (partial work left
        by a budget cancellation) when load shedding downgraded it.
    degraded:
        ``None`` for full answers; otherwise the quantified-error tag
        (θ used vs. full, effective ε, CI width — see
        ``docs/serving.md`` for the approximate-tier contract).
    epoch:
        Graph epoch this answer was computed against. Always ``0`` for
        an immutable server; on a mutable one the epoch is pinned at
        query start, so a concurrent :meth:`CampaignServer.apply_edits`
        never tears a single answer across two graph versions.
    """

    op: str
    value: Any
    cache: str
    elapsed_seconds: float
    report: dict | None = None
    qos_class: str = "interactive"
    tier: str = "full"
    degraded: dict | None = None
    epoch: int = 0

    @property
    def seeds(self) -> tuple[int, ...] | None:
        """Convenience accessor for seed-bearing results."""
        return getattr(self.value, "seeds", None)

    @property
    def tags(self) -> tuple[str, ...] | None:
        """Convenience accessor for tag-bearing results."""
        return getattr(self.value, "tags", None)

    @property
    def spread(self) -> float:
        """The result's spread estimate, whatever its concrete type."""
        if isinstance(self.value, float):
            return self.value
        value = getattr(self.value, "estimated_spread", None)
        if value is None:
            value = getattr(self.value, "spread", 0.0)
        return float(value)

    def wire_fields(self, report: bool = False) -> dict[str, Any]:
        """The response's protocol fields (see :mod:`repro.serve.protocol`)."""
        value = self.value
        fields: dict[str, Any] = {
            "cache": self.cache,
            "elapsed_ms": round(self.elapsed_seconds * 1000.0, 3),
            "class": self.qos_class,
            "tier": self.tier,
            "epoch": self.epoch,
        }
        if self.degraded is not None:
            fields["degraded"] = self.degraded
        if self.op == "find_seeds":
            fields["seeds"] = [int(s) for s in value.seeds]
            fields["spread"] = float(value.estimated_spread)
            fields["engine"] = value.engine
        elif self.op == "find_tags":
            fields["tags"] = list(value.tags)
            fields["spread"] = float(value.estimated_spread)
            fields["method"] = value.method
        elif self.op == "joint":
            fields["seeds"] = [int(s) for s in value.seeds]
            fields["tags"] = list(value.tags)
            fields["spread"] = float(value.spread)
            fields["rounds"] = int(value.rounds)
            fields["converged"] = bool(value.converged)
        elif self.op == "spread":
            fields["spread"] = float(value)
        if report:
            fields["report"] = self.report
        return fields


#: Rough in-memory footprint of a cached result object: enough for LRU
#: byte-accounting without a recursive sizeof walk.
def _approx_nbytes(value: Any) -> int:
    sized = getattr(value, "nbytes", None)
    if sized is not None:
        return int(sized)
    return max(256, len(repr(value)))


def _weak_callback(method: Callable) -> Callable:
    """``method`` as a callback that does not keep its object alive.

    The server hands callbacks to the cache and breakers it owns; a
    bound method there would make a cycle, so a closed and dropped
    server (and its graph) would live on until the cyclic GC ran.
    """
    ref = weakref.WeakMethod(method)

    def call(*args) -> None:
        bound = ref()
        if bound is not None:
            bound(*args)

    return call


@dataclass
class _QueryItem:
    """One admitted query waiting in (or dispatched from) a class queue."""

    qid: str
    op: str
    runner: Callable
    future: Future
    qos_class: str
    tier: str
    deadline_s: float | None
    enqueued_at: float
    queue_wait_s: float = 0.0
    #: Inbound distributed-trace context (``repro.obs.distributed``):
    #: set when a shard router propagated a TraceContext with this
    #: query; the executing thread roots its spans under it.
    trace: Any = None
    #: Quantified-error tag of a degraded answer (``None`` when full);
    #: set by the runner, like the final ``tier``.
    degrade: dict | None = None
    #: ``None`` resolves the future with the :class:`ServeResponse`; a
    #: bool resolves it with the wire fields, the bool being the
    #: request's ``report`` flag (see :meth:`CampaignServer.submit_query`).
    wire: bool | None = None


class CampaignServer:
    """Thread-safe multi-query facade over one graph.

    Parameters
    ----------
    graph:
        The tagged uncertain graph every query runs against. The server
        enables the graph's aggregation memo
        (:meth:`~repro.graphs.TagGraph.enable_probability_cache`) so
        repeat tag sets skip the per-query aggregation pass.
    config:
        Shared :class:`~repro.core.joint.JointConfig`; supplies the
        default seed engine, sketch knobs, and tag-selection knobs.
    sampler:
        The :class:`~repro.engine.SamplingEngine` shared by all
        queries; ``None`` gives the server its own serial engine. Each
        query samples through ``sampler.for_query(...)`` — a view with
        per-query telemetry and its own operation counter — so one set
        of worker processes serves every query without counter bleed.
    pool_size:
        Worker threads executing queries.
    queue_capacity:
        Additional queries allowed to wait beyond the ``pool_size``
        running ones; a submit past ``pool_size + queue_capacity``
        in-system queries raises :class:`ServerOverloadedError`.
    cache_bytes:
        Byte budget for the asset LRU.
    default_deadline / default_max_samples / default_max_rr_members:
        Per-query :class:`~repro.engine.RunBudget` defaults, overridable
        per call. An *explicit* per-call ``deadline`` additionally
        participates in admission control (predictive rejection) and is
        consumed by queue wait; the server-wide default only bounds
        execution.
    prob_cache_entries:
        Size of the graph's tag-aggregation memo (0 disables).
    events / event_capacity:
        Query-lifecycle event log (see :mod:`repro.obs.events`): pass a
        configured :class:`~repro.obs.events.EventLog` or let the
        server create a ring of ``event_capacity`` events
        (``0`` disables emission entirely).
    qos:
        :class:`~repro.serve.qos.QosConfig` — class weights, shedding
        thresholds, degraded-tier factor, deadline-admission and
        circuit-breaker knobs. Defaults apply when omitted.
    chaos:
        Optional :class:`~repro.serve.chaos.ServeFaultPlan` injecting
        deterministic faults at admission/dequeue/build boundaries;
        its ``engine_plan`` (if any) is installed on ``sampler`` so one
        seeded scenario exercises worker-level and serve-level faults
        together.
    mutable:
        When true (or when ``graph`` already is a
        :class:`~repro.graphs.MutableTagGraph`), the server serves
        versioned snapshots and accepts :meth:`apply_edits`; TRS
        sketches are built on the repairable sampler so edits patch
        them incrementally instead of invalidating them.
    repair_mode:
        Kernel for repairable sketch builds on a mutable server:
        ``"scalar"`` (default) or ``"bitparallel"``.
    tracing:
        When true the server keeps a
        :class:`~repro.obs.distributed.TraceCollector` and deposits
        every query's completed spans into it, so ``/trace`` and
        ``repro serve --trace`` can export Chrome traces without a
        shard router. Off by default — tracing must never cost a
        hot-path cycle when unused, and answers/work counters are
        bit-identical either way.
    """

    def __init__(
        self,
        graph: TagGraph,
        config: JointConfig = JointConfig(),
        sampler=None,
        pool_size: int = 4,
        queue_capacity: int = 32,
        cache_bytes: int = 256 * 1024 * 1024,
        default_deadline: float | None = None,
        default_max_samples: int | None = None,
        default_max_rr_members: int | None = None,
        prob_cache_entries: int = 64,
        events: EventLog | None = None,
        event_capacity: int = 1024,
        qos: QosConfig | None = None,
        chaos: ServeFaultPlan | None = None,
        mutable: bool = False,
        repair_mode: str = "scalar",
        tracing: bool = False,
    ) -> None:
        if pool_size <= 0:
            raise ConfigurationError(
                f"pool_size must be positive, got {pool_size}"
            )
        if queue_capacity < 0:
            raise ConfigurationError(
                f"queue_capacity must be >= 0, got {queue_capacity}"
            )
        # A mutable server wraps the graph in a versioned edit layer
        # and serves immutable per-epoch snapshots; apply_edits() swaps
        # the (snapshot, epoch) pair atomically while in-flight queries
        # stay pinned to the epoch they started under.
        self._mutable: MutableTagGraph | None = None
        if isinstance(graph, MutableTagGraph):
            self._mutable = graph
        elif mutable:
            self._mutable = MutableTagGraph(graph)
        if self._mutable is not None:
            served = self._mutable.snapshot()
            epoch0 = self._mutable.epoch
        else:
            served, epoch0 = graph, 0
        if repair_mode not in REPAIR_MODES:
            raise ConfigurationError(
                f"repair_mode must be one of {REPAIR_MODES}, "
                f"got {repair_mode!r}"
            )
        self._graph_state: tuple[TagGraph, int] = (served, epoch0)
        self._edit_lock = threading.Lock()
        self._repair_mode = repair_mode
        self._config = config
        self._sampler = resolve_engine(sampler)
        self._default_deadline = default_deadline
        self._default_max_samples = default_max_samples
        self._default_max_rr_members = default_max_rr_members
        self._prob_cache_entries = prob_cache_entries
        if prob_cache_entries:
            served.enable_probability_cache(prob_cache_entries)

        self._qos = qos if qos is not None else QosConfig()
        # The configs a query can run under are fixed per server, so
        # their cache-key digests are computed once, not per query.
        sketch = config.sketch
        reduced = dc_replace(sketch, theta_max=max(
            sketch.theta_min,
            sketch.theta_max // self._qos.degrade_theta_factor,
        ))
        self._sketch_tiers = {
            False: (sketch, config_digest(sketch)),
            True: (reduced, config_digest(reduced)),
        }
        reduced_joint = dc_replace(config, sketch=reduced)
        self._joint_tiers = {
            False: (config, config_digest(config)),
            True: (reduced_joint, config_digest(reduced_joint)),
        }
        self._tag_digest = config_digest(config.tag_config)
        self._chaos = chaos
        if chaos is not None and chaos.engine_plan is not None:
            self._sampler.fault_plan = chaos.engine_plan

        self._metrics = MetricsRegistry()
        self._metrics_lock = threading.Lock()
        # Pre-register the core serving metrics so a /metrics scrape of
        # an idle server already exposes every family at zero (scrapers
        # need the t=0 sample to compute rates over the first window).
        for name in (
            "serve.queries", "serve.rejected", "serve.errors",
            "serve.degraded", "serve.cancelled", "serve.salvaged",
            "serve.cache.hits", "serve.cache.misses", "serve.cache.builds",
            "serve.cache.evictions", "serve.cache.singleflight_joins",
            "serve.edits.applied", "serve.edits.count",
            "serve.edits.dirty_edges", "serve.repair.promoted",
            "serve.repair.repaired", "serve.repair.dropped",
            "serve.repair.resampled_sets",
        ):
            self._metrics.counter(name)
        self._metrics.set_gauge("serve.epoch", epoch0)
        self._metrics.histogram("serve.query.latency_ms")
        self._metrics.histogram("serve.queue.wait_ms")
        self._metrics.set_gauge("serve.queue.depth", 0)
        self._metrics.set_gauge("serve.inflight", 0)
        self._metrics.set_gauge("serve.utilization", 0.0)
        for name in QUERY_CLASSES:
            self._metrics.set_gauge(f"serve.queue.depth.{name}", 0)
        self._cache = AssetCache(
            max_bytes=cache_bytes,
            on_event=_weak_callback(self._on_cache_event),
        )
        self._executor = ThreadPoolExecutor(
            max_workers=pool_size, thread_name_prefix="repro-serve"
        )
        self._pool_size = pool_size
        self._capacity = pool_size + queue_capacity
        self._in_system = 0
        self._executing = 0
        self._dispatched = 0
        self._admission_lock = threading.Lock()
        self._queues = WeightedClassQueues(self._qos.weight_map)
        self._predictor = LatencyPredictor(self._qos.predictor_window)
        self._breakers: dict[str, CircuitBreaker] = {}
        self._breaker_lock = threading.Lock()
        self._index_manager: IndexManager | None = None
        self._warm_theta_c: int | None = None
        self._closed = False
        self._started_monotonic = time.monotonic()
        # Query-lifecycle telemetry: a monotone id per query (stamped on
        # the query's spans AND its events, so the two correlate) plus a
        # bounded event ring. Emitting events never touches observation
        # scopes or RNGs — telemetry on/off cannot change results.
        self._events = (
            events if events is not None else EventLog(capacity=event_capacity)
        )
        self._query_seq = itertools.count(1)
        self._query_local = threading.local()
        # Distributed tracing (repro.obs.distributed). The staged
        # per-thread request context hands an inbound TraceContext and
        # the wire ``report`` flag from submit_query() to _submit on the
        # same thread; the export ring buffers finished span bundles for
        # a shard worker loop to piggy-back on replies. The flight
        # recorder is always on — a qualifying record is one
        # lock-append.
        self._staged = threading.local()
        self._span_lock = threading.Lock()
        self._span_exports: deque = deque(maxlen=256)
        self._trace_collector = (
            TraceCollector(label="server") if tracing else None
        )
        self.flightrec = FlightRecorder(
            self._qos.flight_capacity, slow_ms=self._qos.flight_slow_ms
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def _graph(self) -> TagGraph:
        """The graph snapshot for the *calling context*.

        On a query worker thread this is the snapshot pinned at query
        start (:meth:`_run_query` stores the ``(graph, epoch)`` pair in
        the query's thread-local), so a single query never observes two
        graph versions even if :meth:`apply_edits` lands mid-execution.
        Everywhere else it is the current epoch's snapshot. Reading the
        tuple is a single attribute load — atomic under the GIL, so no
        lock and no torn ``(graph, epoch)`` pairs.
        """
        state = getattr(self._query_local, "graph_state", None)
        return (state or self._graph_state)[0]

    def _query_epoch(self) -> int:
        """Epoch paired with :attr:`_graph` for the calling context."""
        state = getattr(self._query_local, "graph_state", None)
        return (state or self._graph_state)[1]

    @property
    def graph(self) -> TagGraph:
        """The served graph (current-epoch snapshot)."""
        return self._graph

    @property
    def epoch(self) -> int:
        """Current graph epoch (``0`` forever on an immutable server)."""
        return self._graph_state[1]

    @property
    def graph_state(self) -> tuple[TagGraph, int]:
        """Atomic ``(graph, epoch)`` snapshot currently being served.

        The pair is replaced wholesale by :meth:`apply_edits`, so a
        caller that needs a consistent graph/epoch view (the shard
        workers' scatter/gather coverage path) reads this once instead
        of racing :attr:`graph` against :attr:`epoch`.
        """
        return self._graph_state

    @property
    def mutable_graph(self) -> MutableTagGraph | None:
        """The versioned edit layer, or ``None`` if immutable."""
        return self._mutable

    @property
    def config(self) -> JointConfig:
        """The shared query configuration."""
        return self._config

    @property
    def qos(self) -> QosConfig:
        """The QoS configuration (weights, thresholds, breaker knobs)."""
        return self._qos

    @property
    def index_manager(self) -> IndexManager | None:
        """The frozen shared possible-world index, when warmed."""
        return self._index_manager

    @property
    def events(self) -> EventLog:
        """The query-lifecycle event log (ring + optional sink)."""
        return self._events

    @property
    def uptime_seconds(self) -> float:
        """Seconds since the server was constructed."""
        return time.monotonic() - self._started_monotonic

    def metrics(self) -> dict:
        """Snapshot of the server-level ``serve.*`` metrics."""
        # Snapshot the cache first: stats() takes the cache lock, and
        # cache counter bumps call back into _record (metrics lock)
        # while holding it — taking the metrics lock around stats()
        # would invert that order and deadlock against a concurrent
        # query's cache activity.
        stats = self._cache.stats()
        uptime = self.uptime_seconds
        utilization = self._utilization()
        epoch = self._graph_state[1]
        with self._metrics_lock:
            self._metrics.set_gauge("serve.cache.bytes", stats.bytes)
            self._metrics.set_gauge("serve.cache.entries", stats.entries)
            self._metrics.set_gauge("serve.uptime_seconds", uptime)
            self._metrics.set_gauge("serve.utilization", utilization)
            self._metrics.set_gauge("serve.epoch", epoch)
            return self._metrics.as_dict()

    def breaker_states(self) -> dict[str, str]:
        """Current circuit-breaker state per asset kind."""
        with self._breaker_lock:
            breakers = dict(self._breakers)
        return {kind: breaker.state for kind, breaker in breakers.items()}

    def predictor_snapshot(self) -> dict:
        """Rolling per-op latency windows feeding deadline admission."""
        return self._predictor.snapshot()

    def health(self) -> dict:
        """Admission/queue/closed state (the ``/healthz`` document).

        ``status`` is ``"degraded"`` (still healthy — HTTP 200) while
        the server is shedding (utilization at or past the QoS
        ``shed_threshold``) or any asset kind's circuit breaker is not
        closed; ``"closed"`` once :meth:`close` ran.
        """
        with self._admission_lock:
            closed = self._closed
            in_system = self._in_system
            executing = self._executing
            depths = self._queues.depths()
        breakers = self.breaker_states()
        utilization = in_system / self._capacity if self._capacity else 0.0
        shedding = utilization >= self._qos.shed_threshold
        breaker_open = any(state != "closed" for state in breakers.values())
        degraded = not closed and (shedding or breaker_open)
        if closed:
            status = "closed"
        elif degraded:
            status = "degraded"
        else:
            status = "ok"
        return {
            "status": status,
            "closed": closed,
            "degraded": degraded,
            "shedding": shedding,
            "in_flight": executing,
            "queued": max(in_system - executing, 0),
            "queue_depths": depths,
            "capacity": self._capacity,
            "pool_size": self._pool_size,
            "utilization": round(utilization, 4),
            "breakers": breakers,
            "uptime_seconds": self.uptime_seconds,
            "epoch": self._graph_state[1],
            "mutable": self._mutable is not None,
        }

    def cache_stats(self):
        """The asset cache's own counter snapshot."""
        return self._cache.stats()

    # -- admin ops: the same methods on ShardedCampaignService ----------
    def ping(self) -> dict:
        """The ``ping`` reply."""
        return {"pong": True}

    def metrics_payload(self) -> dict:
        """The ``metrics`` reply (also ``repro serve --metrics-out``)."""
        return {
            "schema": METRICS_SCHEMA,
            "metrics": self.metrics(),
            "cache": self.cache_stats().as_dict(),
        }

    def events_payload(self, limit: int | None = None) -> dict:
        """The ``events`` reply (``/events``): the lifecycle event ring."""
        return self._events.payload(limit)

    def flight_payload(self, limit: int | None = None) -> dict:
        """The ``flightrec`` reply (``/debug/slow``)."""
        return self.flightrec.payload(limit)

    def _record(self, name: str, amount: int = 1) -> None:
        with self._metrics_lock:
            self._metrics.count(name, amount)

    def _set_gauge(self, name: str, value: float) -> None:
        with self._metrics_lock:
            self._metrics.set_gauge(name, value)

    def _emit(self, kind: str, trace_id: str | None = None, **attrs) -> None:
        """Emit a lifecycle event (no-op when the log is disabled)."""
        if self._events.enabled:
            self._events.emit(kind, trace_id=trace_id, **attrs)

    def _on_cache_event(self, name: str, amount: int) -> None:
        # Called under the cache lock — keep to a counter bump. The
        # metrics lock nests inside the cache lock only here, so no
        # code may take the cache lock while holding the metrics lock
        # (metrics() snapshots the cache *before* locking metrics for
        # exactly this reason).
        self._record(f"serve.cache.{name}", amount)

    def _utilization(self) -> float:
        # Racy single-int read; good enough for gauges and shed errors.
        return self._in_system / self._capacity if self._capacity else 0.0

    def _retry_after_ms(self) -> float:
        """Advertised retry delay: roughly one pool drain of the backlog."""
        predicted = self._predictor.predicted_wait_ms(1, self._pool_size)
        return max(predicted, self._qos.min_retry_after_ms)

    # ------------------------------------------------------------------
    # Circuit breakers
    # ------------------------------------------------------------------
    def _breaker(self, kind: str) -> CircuitBreaker:
        with self._breaker_lock:
            breaker = self._breakers.get(kind)
            if breaker is None:
                breaker = CircuitBreaker(
                    kind,
                    failure_threshold=self._qos.breaker_failure_threshold,
                    reset_timeout=self._qos.breaker_reset_timeout,
                    on_transition=_weak_callback(
                        self._on_breaker_transition
                    ),
                )
                self._breakers[kind] = breaker
            return breaker

    def _on_breaker_transition(self, kind: str, old: str, new: str) -> None:
        self._record(f"serve.breaker.{new}")
        verb = {
            "open": "breaker.open",
            "closed": "breaker.close",
            "half_open": "breaker.half_open",
        }[new]
        self._emit(verb, asset=kind, previous=old)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Finish in-flight queries and stop accepting new ones.

        Queued-but-undispatched queries are drained and rejected with
        :class:`ServerClosedError`; every admitted query therefore ends
        in exactly one of done / rejected, never silently dropped.
        """
        # Flip the flag under the admission lock so no query can pass
        # the closed check after we start shutting the pool down.
        with self._admission_lock:
            already = self._closed
            self._closed = True
            drained = self._queues.drain()
            self._in_system -= len(drained)
            self._sync_queue_gauges_locked()
        self._finalize_rejections([
            (item, ServerClosedError("campaign server is closed"))
            for item in drained
        ])
        if not already:
            self._executor.shutdown(wait=True)
        # In-flight queries have drained; push their final lifecycle
        # events to any attached sink. The log itself stays open so
        # post-close rejections are still recorded (and the ring stays
        # snapshottable) — the sink owner closes it.
        self._events.flush()

    def __enter__(self) -> "CampaignServer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Warm-up
    # ------------------------------------------------------------------
    def warm_index(
        self,
        tags: Sequence[str] | None = None,
        theta_c: int | None = None,
        r: int = 2,
        seed: int = 0,
    ) -> list[str]:
        """Build and pin a frozen shared possible-world index.

        Builds ``theta_c`` worlds per tag (default: Theorem 6's count
        for the config's pessimistic ``theta_max`` and ``r``) with a
        deterministic RNG, then freezes the manager so any number of
        concurrent ``ltrs``/``itrs`` queries can read it. Replaying the
        same ``(tags, theta_c, seed)`` elsewhere reproduces the exact
        manager — the differential suite exploits this for bit-identity
        against direct library calls.
        """
        sketch = self._config.sketch
        if theta_c is None:
            theta_c = compute_theta_c(
                sketch.theta_max, max(r, 1), sketch.alpha, sketch.delta
            )
        manager = IndexManager(self._graph)
        built = manager.ensure_indexes(
            tags if tags is not None else self._graph.tags,
            theta_c,
            ensure_rng(seed),
        )
        self._index_manager = manager.freeze()
        self._warm_theta_c = int(theta_c)
        self._record("serve.index.warmed_tags", len(built))
        return built

    @property
    def warmed_theta_c(self) -> int | None:
        """Worlds-per-tag count of the warmed index (``None`` if cold)."""
        return self._warm_theta_c

    # ------------------------------------------------------------------
    # Mutation — versioned edits + asset migration
    # ------------------------------------------------------------------
    def apply_edits(
        self, edits: Sequence[GraphEdit | dict], repair: bool = True
    ) -> dict:
        """Apply an edit batch and advance the served epoch.

        Requires a mutable server (``mutable=True`` or a
        :class:`~repro.graphs.MutableTagGraph` at construction). The
        batch is validated and applied atomically — a bad edit leaves
        the graph, the epoch, and the cache untouched. On success the
        server:

        1. materializes the new epoch's snapshot (old-epoch snapshots
           stay alive exactly as long as in-flight queries pin them —
           the pooled sampler's shared-memory CSR for a dead snapshot
           is reclaimed through its weakref finalizer);
        2. migrates resident cache assets: repairable sketches whose
           touch trace missed every dirty edge are *promoted* (rekeyed
           to the new epoch, payload untouched), dirty ones are
           *repaired* incrementally (``repair=True``) by resampling
           only their dirtied RR sets, and everything else — whole
           results, salvaged partials, sketches past their frozen edge
           capacity — is dropped for a cold rebuild on next use;
        3. swaps the served ``(graph, epoch)`` pair atomically (a
           single reference store), so queries pinned to the old epoch
           finish consistently while new queries see the new epoch.

        Returns a summary dict (new/previous epoch, dirty-set sizes,
        per-disposition asset counts, elapsed seconds). Accepts either
        :data:`~repro.graphs.GraphEdit` objects or their wire-format
        dicts (``{"op": "edge_add", ...}``).
        """
        if self._mutable is None:
            raise ConfigurationError(
                "server is immutable; construct CampaignServer with "
                "mutable=True (or a MutableTagGraph) to apply edits"
            )
        if self._closed:
            raise ServerClosedError("campaign server is closed")
        parsed = [
            edit_from_dict(e) if isinstance(e, dict) else e for e in edits
        ]
        timer = Timer()
        with self._edit_lock, timer:
            old_epoch = self._graph_state[1]
            new_epoch = self._mutable.apply(parsed)
            new_graph = self._mutable.snapshot()
            if self._prob_cache_entries:
                new_graph.enable_probability_cache(self._prob_cache_entries)
            dirty_edges = self._mutable.dirty_edges(old_epoch)
            dirty_nodes = self._mutable.dirty_nodes(old_epoch)
            migration = self._migrate_assets(
                old_epoch, new_epoch, new_graph, dirty_edges, dirty_nodes,
                repair,
            )
            index_invalidated = False
            if self._index_manager is not None and dirty_edges.size:
                # The frozen possible-world index sampled old-epoch
                # worlds; it has no touch traces, so invalidate it.
                self._index_manager = None
                self._warm_theta_c = None
                index_invalidated = True
            self._graph_state = (new_graph, new_epoch)
        self._record("serve.edits.applied")
        self._record("serve.edits.count", len(parsed))
        self._record("serve.edits.dirty_edges", int(dirty_edges.size))
        for name, amount in migration.items():
            if amount:
                self._record(f"serve.repair.{name}", amount)
        self._set_gauge("serve.epoch", new_epoch)
        self._emit(
            "edits.applied",
            epoch=new_epoch,
            previous_epoch=old_epoch,
            edits=len(parsed),
            dirty_edges=int(dirty_edges.size),
            dirty_nodes=int(dirty_nodes.size),
            promoted=migration["promoted"],
            repaired=migration["repaired"],
            dropped=migration["dropped"],
            elapsed_ms=round(timer.elapsed * 1000.0, 3),
        )
        return {
            "epoch": new_epoch,
            "previous_epoch": old_epoch,
            "edits": len(parsed),
            "dirty_edges": int(dirty_edges.size),
            "dirty_nodes": int(dirty_nodes.size),
            "assets": migration,
            "index_invalidated": index_invalidated,
            "elapsed_seconds": timer.elapsed,
        }

    def _migrate_assets(
        self, old_epoch, new_epoch, new_graph, dirty_edges, dirty_nodes,
        repair: bool,
    ) -> dict[str, int]:
        """Promote / repair / drop resident assets across an epoch bump.

        Runs under the edit lock. Every resident asset is classified
        first; the dirty repairable sketches then repair together, in
        one RR kernel pass (:func:`~repro.sketch.repair_sketches`). A
        sketch that cannot be repaired is dropped alone. Concurrent
        queries keep working: old assets are never mutated (repair is
        copy-on-write) and ``rekey`` refuses to clobber, so the worst
        race outcome is a redundant rebuild, never a wrong answer.
        """
        stats = {
            "promoted": 0, "repaired": 0, "dropped": 0,
            "resampled_sets": 0,
        }
        dirty = []  # (key, new_key, sketch, edge_probs, dirty set ids)
        for key in self._cache.keys_snapshot():
            if getattr(key, "epoch", 0) != old_epoch:
                # An epoch no new query can name — free the bytes.
                if self._cache.invalidate(key):
                    stats["dropped"] += 1
                continue
            asset = self._cache.peek(key)
            if asset is None:  # pragma: no cover - concurrent eviction
                continue
            new_key = key._replace(epoch=new_epoch)
            value = asset.value
            if isinstance(value, RepairableSketch):
                dirty_sets = value.dirty_set_ids(dirty_nodes)
                if not dirty_sets.size:
                    # Touch trace missed every dirty edge: the sketch
                    # is bit-identical at the new epoch. Promote.
                    if self._cache.rekey(key, new_key):
                        stats["promoted"] += 1
                    continue
                if repair:
                    try:
                        edge_probs = new_graph.edge_probabilities(key.tags)
                    except InvalidQueryError:
                        # The edits emptied one of the sketch's tags.
                        pass
                    else:
                        dirty.append(
                            (key, new_key, value, edge_probs, dirty_sets)
                        )
                        continue
                if self._cache.invalidate(key):
                    stats["dropped"] += 1
                continue
            # Whole results, salvaged partials, non-repairable sketches:
            # no touch trace, so any dirt at all forces a drop.
            if dirty_nodes.size:
                if self._cache.invalidate(key):
                    stats["dropped"] += 1
            elif self._cache.rekey(key, new_key):
                stats["promoted"] += 1
        if not dirty:
            return stats
        results = repair_sketches(
            new_graph, dirty_edges, [item[2:] for item in dirty]
        )
        for (key, new_key, *_), result in zip(dirty, results):
            # An error here means the sketch is past its frozen edge
            # capacity: it cannot be patched forward, so it is dropped.
            if not isinstance(result, InvalidQueryError):
                repaired, rstats = result
                if self._cache.rekey(
                    key, new_key, value=repaired, nbytes=repaired.nbytes,
                ):
                    stats["repaired"] += 1
                    stats["resampled_sets"] += rstats["dirty_sets"]
                    continue
            if self._cache.invalidate(key):
                stats["dropped"] += 1
        return stats

    # ------------------------------------------------------------------
    # Distributed tracing (repro.obs.distributed)
    # ------------------------------------------------------------------
    def export_span_bundle(self, bundle: dict) -> None:
        """Buffer a finished span bundle for shipping (bounded ring)."""
        with self._span_lock:
            self._span_exports.append(bundle)

    def drain_span_exports(self) -> list:
        """Remove and return every buffered span bundle."""
        with self._span_lock:
            if not self._span_exports:
                return []
            bundles = list(self._span_exports)
            self._span_exports.clear()
        return bundles

    def chrome_trace(self, trace_id: str | None = None) -> list:
        """Stitched Chrome trace events (empty when ``tracing`` off)."""
        return self.trace_payload(trace_id)["events"]

    def trace_payload(self, trace_id: str | None = None) -> dict:
        """The ``/trace`` debug document for this server."""
        if self._trace_collector is None:
            return empty_trace_payload()
        return self._trace_collector.payload(trace_id)

    # ------------------------------------------------------------------
    # Admission + dispatch
    # ------------------------------------------------------------------
    def _sync_queue_gauges_locked(self) -> None:
        """Publish the queue-depth gauges (caller holds the admission lock)."""
        depths = self._queues.depths()
        with self._metrics_lock:
            self._metrics.set_gauge("serve.queue.depth", self._in_system)
            for name, depth in depths.items():
                self._metrics.set_gauge(f"serve.queue.depth.{name}", depth)

    def _submit(
        self,
        op: str,
        runner: Callable,
        qos_class: str = "interactive",
        deadline: float | None = None,
    ) -> "Future[ServeResponse]":
        if qos_class not in QUERY_CLASSES:
            raise ConfigurationError(
                f"unknown qos_class {qos_class!r}; expected one of "
                f"{QUERY_CLASSES}"
            )
        qid = f"q-{next(self._query_seq):06d}"
        started = time.monotonic()
        if self._chaos is not None:
            try:
                self._chaos.at_admission()
            except InjectedChaosError:
                self._record("serve.chaos.admission")
                self._emit(
                    "chaos.injected", trace_id=qid, op=op, site="admission"
                )
                raise
            deadline = self._chaos.skew_deadline(deadline)

        rejection: QueryRejectedError | None = None
        item = _QueryItem(
            qid=qid, op=op, runner=runner, future=Future(),
            qos_class=qos_class, tier="full", deadline_s=deadline,
            enqueued_at=started,
            trace=getattr(self._staged, "trace", None),
            wire=getattr(self._staged, "wire", None),
        )
        dequeue_rejects: list = []
        closed = False
        with self._admission_lock:
            if self._closed:
                closed = True
            elif self._in_system >= self._capacity:
                rejection = ServerOverloadedError(
                    self._capacity,
                    retry_after_ms=self._retry_after_ms(),
                    qos_class=qos_class,
                )
            elif deadline is not None and self._qos.deadline_admission:
                predicted = self._predictor.predicted_completion_ms(
                    op, self._in_system, self._pool_size
                )
                if predicted > deadline * 1000.0:
                    rejection = DeadlineRejectedError(
                        deadline, predicted,
                        retry_after_ms=self._retry_after_ms(),
                        qos_class=qos_class, phase="admission",
                    )
            if not closed and rejection is None:
                utilization = (self._in_system + 1) / self._capacity
                if qos_class == "best_effort":
                    if utilization >= self._qos.stale_threshold:
                        item.tier = "stale_only"
                    elif utilization >= self._qos.shed_threshold:
                        item.tier = "approximate"
                self._in_system += 1
                self._queues.push(qos_class, item)
                dequeue_rejects = self._pump_locked()

        if closed:
            self._emit(
                "query.rejected", trace_id=qid, op=op,
                reason="ServerClosedError", qos_class=qos_class,
            )
            raise ServerClosedError("campaign server is closed")
        if rejection is not None:
            self._reject(
                item, rejection, "admission", time.monotonic() - started,
                retry_after_ms=rejection.retry_after_ms,
            )
            raise rejection
        self._emit(
            "query.admitted", trace_id=qid, op=op, qos_class=qos_class,
            tier=item.tier,
        )
        if item.tier != "full":
            self._record("serve.degraded.admitted")
            self._emit(
                "query.degraded", trace_id=qid, op=op, tier=item.tier,
                qos_class=qos_class,
            )
        self._emit("query.queued", trace_id=qid, op=op)
        self._finalize_rejections(dequeue_rejects)
        return item.future

    def _pump_locked(self) -> list:
        """Dispatch queued items while worker slots are free.

        Caller holds the admission lock. Items that die at the dequeue
        boundary (expired deadline, injected chaos, executor shut down
        by a racing close) are *not* finalized here — their
        ``(item, error)`` pairs are returned so the caller can set
        future exceptions outside the lock (done-callbacks run in the
        setting thread and must not run under the admission lock).
        """
        rejected: list = []
        while not self._closed and self._dispatched < self._pool_size:
            item = self._queues.pop()
            if item is None:
                break
            waited = time.monotonic() - item.enqueued_at
            error: BaseException | None = None
            if self._chaos is not None:
                try:
                    self._chaos.at_dequeue()
                except InjectedChaosError as exc:
                    error = exc
            if (
                error is None
                and item.deadline_s is not None
                and waited >= item.deadline_s
            ):
                error = DeadlineRejectedError(
                    item.deadline_s, waited * 1000.0,
                    retry_after_ms=self._retry_after_ms(),
                    qos_class=item.qos_class, phase="queue",
                )
            item.queue_wait_s = waited
            if error is not None:
                self._in_system -= 1
                rejected.append((item, error))
                continue
            self._dispatched += 1
            try:
                self._executor.submit(self._execute_item, item)
            except RuntimeError:
                # close() can win the race between the closed check and
                # submit; the shut-down executor then means "closed".
                self._dispatched -= 1
                self._in_system -= 1
                rejected.append(
                    (item, ServerClosedError("campaign server is closed"))
                )
                break
        self._sync_queue_gauges_locked()
        return rejected

    def _finalize_rejections(self, rejected: list) -> None:
        """Deliver dequeue-boundary failures (outside the admission lock)."""
        for item, error in rejected:
            if isinstance(error, QueryRejectedError):
                self._reject(item, error, "queue", item.queue_wait_s)
            elif isinstance(error, ServerClosedError):
                self._emit(
                    "query.rejected", trace_id=item.qid, op=item.op,
                    reason="ServerClosedError", qos_class=item.qos_class,
                )
            else:
                if isinstance(error, InjectedChaosError):
                    self._record("serve.chaos.dequeue")
                    self._emit(
                        "chaos.injected", trace_id=item.qid, op=item.op,
                        site="dequeue",
                    )
                self._fail(item, error)
            try:
                item.future.set_exception(error)
            except InvalidStateError:  # pragma: no cover - client cancel
                pass

    def _reject(self, item: _QueryItem, exc: QueryRejectedError,
                phase: str, elapsed_s: float, epoch: int | None = None,
                **event_attrs) -> None:
        """Count, announce and flight-record one clean rejection."""
        self._record("serve.rejected")
        self._record(f"serve.rejected.{exc.code}")
        self._emit(
            "query.shed" if exc.code == "shed" else "query.rejected",
            trace_id=item.qid, op=item.op, code=exc.code,
            qos_class=item.qos_class, phase=phase, **event_attrs,
        )
        self._flight(
            item, "rejected", elapsed_s,
            epoch=self._graph_state[1] if epoch is None else epoch,
            cause={"code": exc.code, "phase": phase,
                   "retry_after_ms": exc.retry_after_ms},
        )

    def _fail(self, item: _QueryItem, exc: BaseException) -> None:
        """Count and announce one failed query (an error, not a rejection)."""
        self._record("serve.errors")
        self._record(f"serve.errors.{type(exc).__name__}")
        self._emit(
            "query.done", trace_id=item.qid, op=item.op, ok=False,
            error=type(exc).__name__,
        )

    def _flight(self, item: _QueryItem, outcome: str, elapsed_s: float,
                **fields) -> None:
        """Hand one finished query to the flight recorder."""
        self.flightrec.record_query(
            outcome,
            op=item.op,
            trace_id=(
                item.trace.trace_id if item.trace is not None else item.qid
            ),
            qos_class=item.qos_class,
            elapsed_ms=elapsed_s * 1000.0,
            deadline_ms=(
                item.deadline_s * 1000.0 if item.deadline_s is not None
                else None
            ),
            queue_wait_ms=item.queue_wait_s * 1000.0,
            **fields,
        )

    def _execute_item(self, item: _QueryItem) -> None:
        response: ServeResponse | dict | None = None
        failure: BaseException | None = None
        started = item.future.set_running_or_notify_cancel()
        if started:
            try:
                response = self._run_query(item)
                if item.wire is not None:
                    response = response.wire_fields(item.wire)
            except BaseException as exc:
                failure = exc
        # Release this query's slot (and pump the queues) BEFORE
        # delivering the result: a client that wakes from .result() and
        # immediately resubmits must see the freed capacity.
        with self._admission_lock:
            self._dispatched -= 1
            self._in_system -= 1
            rejected = self._pump_locked()
        if started:
            try:
                if failure is not None:
                    item.future.set_exception(failure)
                else:
                    item.future.set_result(response)
            except InvalidStateError:  # pragma: no cover - client cancel
                pass
        self._finalize_rejections(rejected)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def _run_query(self, item: _QueryItem) -> ServeResponse:
        op, runner, qid = item.op, item.runner, item.qid
        with self._admission_lock:
            self._executing += 1
            with self._metrics_lock:
                self._metrics.set_gauge("serve.inflight", self._executing)
                self._metrics.record(
                    "serve.queue.wait_ms", item.queue_wait_s * 1000.0
                )
        local = self._query_local
        # The runner's helpers read (and the ladder rungs rewrite) this
        # query's class, tier, degrade tag and deadline through it.
        local.item = item
        # Pin this query to the current (graph, epoch) pair: every
        # self._graph read below resolves through the thread-local, so
        # a concurrent apply_edits() cannot tear this answer across two
        # graph versions.
        local.graph_state = self._graph_state
        query_epoch = local.graph_state[1]
        timer = Timer()
        # Distributed queries run under the router's trace: the
        # propagated trace_id replaces the local qid on spans/events,
        # and the parent link lets the stitcher graft this worker's
        # roots under the router's serve.query span.
        trace_ctx = item.trace
        trace_id = trace_ctx.trace_id if trace_ctx is not None else qid
        try:
            with timer, obs.observe() as ob:
                # Stamp the query id on the tracer so spans, Chrome
                # trace events, and lifecycle events all correlate.
                ob.tracer.trace_id = trace_id
                if trace_ctx is not None:
                    ob.tracer.parent_span_id = trace_ctx.parent_span_id
                with obs.span("serve.query", op=op, trace_id=trace_id):
                    value, cache_mode = runner(ob)
        except QueryRejectedError as exc:
            # Clean in-execution rejections (shed ladder exhausted,
            # breaker fast-fail) — counted as rejections, not errors.
            self._reject(item, exc, "execute", timer.elapsed,
                         epoch=query_epoch)
            raise
        except BudgetExceededError as exc:
            # Cooperative cancellation at a shard boundary; any partial
            # was already salvaged into the cache at the build site.
            self._record("serve.cancelled")
            self._emit(
                "query.cancelled", trace_id=qid, op=op, reason=exc.reason,
                qos_class=item.qos_class, salvaged=exc.partial is not None,
            )
            self._flight(
                item, "cancelled", timer.elapsed, epoch=query_epoch,
                cause={"error": str(exc), "salvaged": exc.partial is not None},
            )
            raise
        except BaseException as exc:
            self._fail(item, exc)
            raise
        finally:
            local.item = None
            local.graph_state = None
            with self._admission_lock:
                self._executing -= 1
                self._set_gauge("serve.inflight", self._executing)
        elapsed_ms = timer.elapsed * 1000.0
        final_tier, degrade_info = item.tier, item.degrade
        with self._metrics_lock:
            metrics = self._metrics
            metrics.count("serve.queries")
            metrics.count(f"serve.queries.{item.qos_class}")
            if final_tier != "full":
                metrics.count("serve.degraded")
                metrics.count(f"serve.degraded.{final_tier}")
            metrics.record("serve.query.latency_ms", elapsed_ms)
            metrics.record(f"serve.op.latency_ms.{op}", elapsed_ms)
        self._predictor.observe(op, elapsed_ms)
        traced = trace_ctx is not None or self._trace_collector is not None
        # A wire reply without ``report: true`` never reads the report,
        # so an untraced one skips building it; the Python API always
        # gets it.
        report = (
            ob.report() if traced or item.wire is not False else None
        )
        # Ship / store the finished spans. Both paths are post-answer
        # bookkeeping: they cannot influence the value, counters, or
        # even timing recorded above.
        if trace_ctx is not None:
            self.export_span_bundle(
                span_bundle_from_tracer(
                    ob.tracer,
                    parent_span_id=trace_ctx.parent_span_id,
                    report={"phases": report.get("phases") or []},
                )
            )
        elif self._trace_collector is not None:
            self._trace_collector.add_bundle(
                span_bundle_from_tracer(ob.tracer),
                pid=self._trace_collector.pid,
            )
        self._flight(
            item, "ok", timer.elapsed, tier=final_tier, cache=cache_mode,
            epoch=query_epoch, degraded=degrade_info,
            trace=report.get("trace") if traced else None,
        )
        self._emit(
            "query.done", trace_id=qid, op=op, ok=True, cache=cache_mode,
            tier=final_tier, elapsed_ms=round(elapsed_ms, 3),
            epoch=query_epoch,
        )
        return ServeResponse(
            op=op,
            value=value,
            cache=cache_mode,
            elapsed_seconds=timer.elapsed,
            report=report,
            qos_class=item.qos_class,
            tier=final_tier,
            degraded=degrade_info,
            epoch=query_epoch,
        )

    def _budget(
        self,
        deadline: float | None,
        max_samples: int | None,
        max_rr_members: int | None = None,
    ) -> RunBudget | None:
        deadline = (
            deadline if deadline is not None else self._default_deadline
        )
        # An explicit per-query deadline covers queue wait + execution:
        # the execution budget is whatever remains after dequeue (floored
        # so the budget stays valid), and shard-boundary checks cancel
        # cooperatively.
        item = self._query_local.item
        if item.deadline_s is not None:
            remaining = max(item.deadline_s - item.queue_wait_s, 1e-3)
            deadline = remaining if deadline is None else min(
                deadline, remaining
            )
        max_samples = (
            max_samples
            if max_samples is not None
            else self._default_max_samples
        )
        max_rr_members = (
            max_rr_members
            if max_rr_members is not None
            else self._default_max_rr_members
        )
        if deadline is None and max_samples is None and max_rr_members is None:
            return None
        return RunBudget(
            wall_seconds=deadline,
            max_samples=max_samples,
            max_rr_members=max_rr_members,
        )

    def _view(self, registry=None):
        """A telemetry-isolated view of the server's engine."""
        return self._sampler.for_query(registry=registry)

    def _runtime_dict(self, ob) -> dict:
        return RunTelemetry(registry=ob.metrics).as_dict()

    # ------------------------------------------------------------------
    # Degraded tiers
    # ------------------------------------------------------------------
    def _current_tier(self) -> str:
        return self._query_local.item.tier

    def _sketch_config(self):
        """``(sketch config, its digest)`` for this query's tier.

        ``approximate``-tier queries run with ``theta_max`` divided by
        the QoS ``degrade_theta_factor`` (floored at ``theta_min``);
        the reduced config's digest flows into the asset key, so
        degraded and full sketches are distinct cache entries and a
        degraded answer can never be served as a full one (or vice
        versa).
        """
        return self._sketch_tiers[self._current_tier() == "approximate"]

    def _note_sketch_degrade(self, sketch, cfg) -> None:
        """Tag this query with its approximate-tier error contract.

        Theorem 5's slack scales as ``ε ∝ 1/sqrt(θ)``: running with
        ``θ_used`` instead of the full config's ``θ_full`` cap widens
        the effective slack to ``ε · sqrt(θ_full / θ_used)``.
        """
        full = self._config.sketch
        theta_used = max(int(getattr(sketch, "theta", 0)), 1)
        eps_eff = full.epsilon * math.sqrt(full.theta_max / theta_used)
        self._query_local.item.degrade = {
            "kind": "reduced_theta",
            "theta": theta_used,
            "theta_max": cfg.theta_max,
            "theta_max_full": full.theta_max,
            "epsilon": full.epsilon,
            "epsilon_eff": round(max(eps_eff, full.epsilon), 6),
        }

    def _note_reduced_theta(self, cfg) -> None:
        """Tag an approximate-tier answer built with the reduced ``cfg``."""
        full = self._config.sketch
        self._query_local.item.degrade = {
            "kind": "reduced_theta",
            "theta_max": cfg.theta_max,
            "theta_max_full": full.theta_max,
            "epsilon": full.epsilon,
        }

    def _shed(self) -> QueryShedError:
        return QueryShedError(
            self._utilization(),
            retry_after_ms=self._retry_after_ms(),
            qos_class=self._query_local.item.qos_class,
        )

    # ------------------------------------------------------------------
    # Asset fetch/build
    # ------------------------------------------------------------------
    def _get_asset(self, ob, key: AssetKey, build: Callable):
        """Fetch-or-build through the cache with lifecycle telemetry.

        Wraps :meth:`AssetCache.get_or_build`: the winning builder's
        build is bracketed by ``query.build.start`` / ``query.build.done``
        events, joiners and resident hits get ``query.cache.hit``, and
        non-builders merge the asset's build-time metrics into this
        query's observation so warm answers carry the same work
        counters as cold ones.

        The build path is additionally guarded by the asset kind's
        circuit breaker (resident hits and single-flight joins are
        *not* — an open breaker refuses fresh builds only) and by the
        chaos plan's build site; a :class:`BudgetExceededError` from a
        cancelled build salvages its partial into the cache under
        ``<kind>_partial`` before propagating.
        """
        qid = self._query_local.item.qid
        breaker = self._breaker(key.kind)

        def building():
            if not breaker.allow():
                self._record("serve.breaker.fastfail")
                raise CircuitOpenError(
                    key.kind,
                    retry_after_ms=max(
                        breaker.retry_after_ms(),
                        self._qos.min_retry_after_ms,
                    ),
                    qos_class=self._query_local.item.qos_class,
                )
            self._emit(
                "query.build.start", trace_id=qid, asset=key.kind
            )
            try:
                if self._chaos is not None:
                    self._chaos.before_build(key.kind)
                built = build()
            except BudgetExceededError as exc:
                # A cooperative cancellation is not a build-infra
                # failure: don't trip the breaker, do keep the work.
                breaker.release_probe()
                self._emit(
                    "query.build.done", trace_id=qid, asset=key.kind,
                    ok=False, error="BudgetExceededError",
                )
                self._salvage(qid, key, exc)
                raise
            except QueryRejectedError as exc:
                breaker.release_probe()
                self._emit(
                    "query.build.done", trace_id=qid, asset=key.kind,
                    ok=False, error=type(exc).__name__,
                )
                raise
            except BaseException as exc:
                breaker.record_failure()
                if isinstance(exc, InjectedChaosError):
                    self._record("serve.chaos.build")
                    self._emit(
                        "chaos.injected", trace_id=qid, site="build",
                        asset=key.kind,
                    )
                self._emit(
                    "query.build.done", trace_id=qid, asset=key.kind,
                    ok=False, error=type(exc).__name__,
                )
                raise
            breaker.record_success()
            self._emit(
                "query.build.done", trace_id=qid, asset=key.kind, ok=True
            )
            return built

        asset, built_here = self._cache.get_or_build(key, building)
        if not built_here:
            self._emit("query.cache.hit", trace_id=qid, asset=key.kind)
            if asset.metrics is not None:
                ob.metrics.merge(asset.metrics)
        return asset, built_here

    def _salvage(self, qid, key: AssetKey, exc: BudgetExceededError) -> None:
        """Keep a cancelled build's partial result for degraded service.

        Stored under ``<kind>_partial`` with the *same* digest/tags/
        params, so the partial can never shadow the full asset; the
        ``stale_only`` ladder rung picks it up (tier ``"salvaged"``).
        """
        partial = exc.partial
        if partial is None:
            return
        pkey = AssetKey(
            kind=f"{key.kind}_partial",
            targets_digest=key.targets_digest,
            tags=key.tags,
            params=key.params,
            epoch=key.epoch,
        )
        self._cache.put(pkey, partial, _approx_nbytes(partial))
        self._record("serve.salvaged")
        self._emit(
            "query.build.salvaged", trace_id=qid, asset=pkey.kind,
            reason=exc.reason,
        )

    def _resident(self, ob, key: AssetKey):
        """The resident asset under exactly ``key`` (or ``None``).

        A hit is accounted like any reuse (event + build-time metrics)
        and IS the full answer, so the query's tier becomes ``full``.
        """
        asset = self._cache.get(key)
        if asset is not None:
            item = self._query_local.item
            self._emit("query.cache.hit", trace_id=item.qid, asset=key.kind)
            if asset.metrics is not None:
                ob.metrics.merge(asset.metrics)
            item.tier = "full"
        return asset

    def _cached(self, ob, key: AssetKey, build: Callable):
        """``(value, cache)`` for ``key``, fetched or built via the cache.

        On the ``stale_only`` rung only a resident exact asset answers
        (a params-mismatched result answers a *different* question), so
        a miss there is a clean shed.
        """
        if self._current_tier() == "stale_only":
            asset = self._resident(ob, key)
            if asset is None:
                raise self._shed()
            return asset.value, "hit"
        asset, built_here = self._get_asset(ob, key, build)
        return asset.value, ("miss" if built_here else "hit")

    # ------------------------------------------------------------------
    # Queries — sync facade
    # ------------------------------------------------------------------
    def query(self, request: dict) -> dict:
        """Run one decoded query-op request (blocking); return its wire fields.

        The protocol's query entry point (the shard router's is its
        ``query`` too): the blocking wrapper over :meth:`submit_query`.
        """
        return self.submit_query(request).result()

    def submit_query(self, request: dict) -> "Future[dict]":
        """Parse and admit one decoded query-op request without blocking.

        The future yields the response's wire fields (see
        :meth:`ServeResponse.wire_fields`; ``"report": true`` inlines
        the report) or raises the query's error. Parse and admission
        errors raise here, before anything is queued. A propagated
        trace context (the private ``"_trace"`` key) is stripped first
        and attached to the submitted query, so its spans root under
        the remote parent. A shard worker submits every query op
        through this and replies from the future's completion.
        """
        trace = TraceContext.pop_from(request)
        op = request.get("op")

        def optional(name, cast):
            value = request.get(name)
            return cast(value) if value is not None else None

        common = {
            "seed": int(request.get("seed", 0)),
            "qos_class": str(
                request.get("class", request.get("qos_class", "interactive"))
            ),
            "deadline": optional("deadline", float),
            "max_samples": optional("max_samples", int),
            "max_rr_members": optional("max_rr_members", int),
        }
        # _submit (same thread) reads the staged context; the finally
        # keeps it from leaking into the thread's next query.
        staged = self._staged
        staged.trace = trace
        staged.wire = bool(request.get("report"))
        try:
            if op == "find_seeds":
                return self.submit_find_seeds(
                    targets=request["targets"],
                    tags=request.get("tags", ()),
                    k=int(request["k"]),
                    engine=request.get("engine"),
                    num_samples=int(request.get("num_samples", 100)),
                    **common,
                )
            if op == "find_tags":
                return self.submit_find_tags(
                    seeds=request["seeds"],
                    targets=request["targets"],
                    r=int(request["r"]),
                    method=request.get("method"),
                    **common,
                )
            if op == "joint":
                return self.submit_jointly_select(
                    targets=request["targets"],
                    k=int(request["k"]),
                    r=int(request["r"]),
                    **common,
                )
            return self.submit_estimate_spread(
                seeds=request["seeds"],
                targets=request["targets"],
                tags=request.get("tags", ()),
                num_samples=request.get("num_samples"),
                **common,
            )
        finally:
            staged.trace = staged.wire = None

    def find_seeds(self, *args, **kwargs) -> ServeResponse:
        """Top-``k`` seed selection (blocking). See :meth:`submit_find_seeds`."""
        return self.submit_find_seeds(*args, **kwargs).result()

    def find_tags(self, *args, **kwargs) -> ServeResponse:
        """Top-``r`` tag selection (blocking). See :meth:`submit_find_tags`."""
        return self.submit_find_tags(*args, **kwargs).result()

    def jointly_select(self, *args, **kwargs) -> ServeResponse:
        """Full Algorithm 2 (blocking). See :meth:`submit_jointly_select`."""
        return self.submit_jointly_select(*args, **kwargs).result()

    def estimate_spread(self, *args, **kwargs) -> ServeResponse:
        """MC spread estimate (blocking). See :meth:`submit_estimate_spread`."""
        return self.submit_estimate_spread(*args, **kwargs).result()

    # ------------------------------------------------------------------
    # Queries — async submission
    # ------------------------------------------------------------------
    def submit_find_seeds(
        self,
        targets: Sequence[int],
        tags: Sequence[str],
        k: int,
        engine: str | None = None,
        seed: int = 0,
        num_samples: int = 100,
        deadline: float | None = None,
        max_samples: int | None = None,
        max_rr_members: int | None = None,
        qos_class: str = "interactive",
    ) -> "Future[ServeResponse]":
        """Queue a seed-selection query; the future yields a response.

        ``engine`` defaults to the server config's ``seed_engine``;
        ``"trs"`` queries reuse cached RR sketches across queries, other
        engines reuse whole results. ``seed`` pins the query's RNG —
        the served answer is bit-identical to
        ``repro.find_seeds(graph, targets, canonical_tags(tags), k,
        engine=..., rng=seed)``. ``qos_class`` selects the admission
        class (``best_effort`` queries may be served degraded under
        load); an explicit ``deadline`` participates in predictive
        admission and cooperative cancellation.
        """
        engine = engine or self._config.seed_engine
        if engine not in ENGINES:
            raise ConfigurationError(
                f"unknown engine {engine!r}; expected one of {ENGINES}"
            )
        tags_c = canonical_tags(tags)
        tdigest = targets_digest(targets, self._graph.num_nodes)
        targets = tuple(map(int, targets))

        def runner(ob):
            budget = self._budget(deadline, max_samples, max_rr_members)
            if engine == "trs":
                return self._seeds_via_sketch(
                    ob, targets, tdigest, tags_c, k, seed, budget
                )
            return self._seeds_via_result(
                ob, targets, tdigest, tags_c, k, engine, seed,
                num_samples, budget,
            )

        return self._submit(
            "find_seeds", runner, qos_class=qos_class, deadline=deadline
        )

    def _seeds_via_sketch(
        self, ob, targets, tdigest, tags_c, k, seed, budget
    ) -> tuple[SeedSelection, str]:
        """TRS path: cache the sketch; its cover is memoized on first read."""
        tier = self._current_tier()
        cfg, digest = self._sketch_config()
        key = AssetKey(
            kind="trs_sketch",
            targets_digest=tdigest,
            tags=tags_c,
            params=(k, seed, digest),
            epoch=self._query_epoch(),
        )
        if tier == "stale_only":
            return self._seeds_from_resident(ob, key, tdigest, tags_c, k)

        def build():
            with obs.observe() as build_ob:
                view = self._view(registry=build_ob.metrics)
                if self._mutable is not None:
                    # Mutable servers build the *repairable* sampler so
                    # apply_edits() can patch this asset forward to the
                    # next epoch instead of dropping it. The repairable
                    # path replays per-set RNG substreams and does not
                    # take a RunBudget — mutable mode trades cooperative
                    # sketch cancellation for incremental repair.
                    sketch = trs_build_repairable_sketch(
                        self._graph, targets, tags_c, k,
                        config=cfg, seed=int(seed),
                        mode=self._repair_mode, engine=view,
                    )
                else:
                    sketch = trs_build_sketch(
                        self._graph, targets, tags_c, k,
                        config=cfg, rng=ensure_rng(seed),
                        engine=view, budget=budget,
                    )
            return sketch, sketch.nbytes, build_ob.metrics

        # _get_asset accounts a reused asset's build work to this
        # query's report, so warm answers carry cold answers' counters.
        sketch, cache_mode = self._cached(ob, key, build)
        if tier == "approximate":
            self._note_sketch_degrade(sketch, cfg)
        return self._trs_selection(ob, sketch, k), cache_mode

    def _trs_selection(self, ob, sketch, k) -> SeedSelection:
        """The greedy seeds of a TRS sketch (its memoized cover)."""
        result = trs_select_from_sketch(self._graph, sketch, k)
        return SeedSelection(
            seeds=result.seeds,
            estimated_spread=result.estimated_spread,
            engine="trs",
            elapsed_seconds=result.elapsed_seconds,
            telemetry=self._runtime_dict(ob),
        )

    def _seeds_from_resident(
        self, ob, key: AssetKey, tdigest, tags_c, k
    ) -> tuple[SeedSelection, str]:
        """``stale_only`` ladder rung for the TRS path.

        Preference order: the exact resident sketch (a *full* answer),
        any resident sketch for the same ``(targets, tags)`` built
        under different params (tier ``"stale"``), a salvaged partial
        from a cancelled build (tier ``"salvaged"``); otherwise shed.
        """
        item = self._query_local.item
        asset = self._resident(ob, key)
        if asset is not None:
            return self._trs_selection(ob, asset.value, k), "hit"
        stale = self._cache.find_stale(
            "trs_sketch", tdigest, tags_c, epoch=key.epoch
        )
        if stale is not None:
            self._emit(
                "query.cache.stale_hit", trace_id=item.qid, asset="trs_sketch"
            )
            if stale.metrics is not None:
                ob.metrics.merge(stale.metrics)
            item.tier = "stale"
            item.degrade = {
                "kind": "stale_asset",
                "asset_params": repr(getattr(stale.key, "params", None)),
                "theta": int(getattr(stale.value, "theta", 0)),
            }
            return self._trs_selection(ob, stale.value, k), "hit"
        salvaged = self._cache.find_stale(
            "trs_sketch_partial", tdigest, tags_c, epoch=key.epoch
        )
        if salvaged is not None and getattr(salvaged.value, "seeds", None):
            self._emit(
                "query.cache.stale_hit", trace_id=item.qid,
                asset="trs_sketch_partial",
            )
            partial = salvaged.value
            item.tier = "salvaged"
            item.degrade = {
                "kind": "salvaged_partial",
                "theta": int(getattr(partial, "theta", 0)),
            }
            selection = SeedSelection(
                seeds=tuple(partial.seeds),
                estimated_spread=float(partial.estimated_spread),
                engine="trs",
                elapsed_seconds=0.0,
                telemetry=self._runtime_dict(ob),
            )
            return selection, "hit"
        raise self._shed()

    def _seeds_via_result(
        self, ob, targets, tdigest, tags_c, k, engine, seed, num_samples,
        budget,
    ) -> tuple[SeedSelection, str]:
        """Non-TRS engines: cache the whole (deterministic) result."""
        cfg, digest = self._sketch_config()
        key = AssetKey(
            kind="result",
            targets_digest=tdigest,
            tags=tags_c,
            params=("find_seeds", engine, k, seed, num_samples, digest),
            epoch=self._query_epoch(),
        )

        def build():
            with obs.observe() as build_ob:
                view = self._view(registry=build_ob.metrics)
                selection = find_seeds(
                    self._graph, targets, tags_c, k,
                    engine=engine, config=cfg,
                    manager=self._manager_for(engine, tags_c),
                    num_samples=num_samples, rng=ensure_rng(seed),
                    sampler=view, budget=budget,
                )
            return selection, _approx_nbytes(selection), build_ob.metrics

        answer = self._cached(ob, key, build)
        if cfg is not self._config.sketch:
            self._note_reduced_theta(cfg)
        return answer

    def _manager_for(
        self, engine: str, tags_c: tuple[str, ...]
    ) -> IndexManager | None:
        """The frozen shared index when it can serve this query.

        Only global-universe engines (``ltrs``/``itrs``) read the shared
        manager, and only when every queried tag is already indexed —
        otherwise the query falls back to a fresh private manager, like
        a direct library call (a frozen manager must never build).
        """
        manager = self._index_manager
        if manager is None or engine not in ("ltrs", "itrs"):
            return None
        if all(manager.has_index(tag) for tag in tags_c):
            return manager
        return None

    def submit_find_tags(
        self,
        seeds: Sequence[int],
        targets: Sequence[int],
        r: int,
        method: str | None = None,
        seed: int = 0,
        deadline: float | None = None,
        max_samples: int | None = None,
        max_rr_members: int | None = None,
        qos_class: str = "interactive",
    ) -> "Future[ServeResponse]":
        """Queue a tag-selection query (seed set canonicalized).

        Tag finding has no principled reduced-θ form, so the
        ``approximate`` tier passes it through at full fidelity; the
        ``stale_only`` rung still applies (resident-exact or shed).
        """
        method = method or self._config.tag_method
        if method not in METHODS:
            raise ConfigurationError(
                f"unknown tag method {method!r}; expected one of {METHODS}"
            )
        seeds_c = tuple(sorted({int(s) for s in seeds}))
        tdigest = targets_digest(targets, self._graph.num_nodes)
        targets = tuple(map(int, targets))

        def runner(ob):
            # The key is built on the worker, not at submit time: the
            # epoch it embeds must be the one the query is pinned to
            # (an edit can land between submit and dispatch).
            key = AssetKey(
                kind="result",
                targets_digest=tdigest,
                tags=(),
                params=(
                    "find_tags", method, r, seed, seeds_c, self._tag_digest,
                ),
                epoch=self._query_epoch(),
            )

            def build():
                with obs.observe() as build_ob:
                    selection = find_tags(
                        self._graph, seeds_c, targets, r,
                        method=method, config=self._config.tag_config,
                        rng=ensure_rng(seed),
                    )
                return (
                    selection, _approx_nbytes(selection), build_ob.metrics
                )

            return self._cached(ob, key, build)

        return self._submit(
            "find_tags", runner, qos_class=qos_class, deadline=deadline
        )

    def submit_jointly_select(
        self,
        targets: Sequence[int],
        k: int,
        r: int,
        seed: int = 0,
        deadline: float | None = None,
        max_samples: int | None = None,
        max_rr_members: int | None = None,
        qos_class: str = "interactive",
    ) -> "Future[ServeResponse]":
        """Queue a full joint (Algorithm 2) query.

        Under the ``approximate`` tier the joint run uses the reduced-θ
        sketch config (tagged on the response); the degraded config's
        digest keys the cache entry, so full and approximate joint
        results never collide.
        """
        tdigest = targets_digest(targets, self._graph.num_nodes)
        targets = tuple(map(int, targets))

        def runner(ob):
            budget = self._budget(deadline, max_samples, max_rr_members)
            joint_config, digest = self._joint_tiers[
                self._current_tier() == "approximate"
            ]
            key = AssetKey(
                kind="result",
                targets_digest=tdigest,
                tags=(),
                params=("joint", k, r, seed, digest),
                epoch=self._query_epoch(),
            )

            def build():
                with obs.observe() as build_ob:
                    view = self._view(registry=build_ob.metrics)
                    result = jointly_select(
                        self._graph, JointQuery(targets, k=k, r=r),
                        joint_config, rng=ensure_rng(seed), sampler=view,
                        budget=budget,
                    )
                return result, _approx_nbytes(result), build_ob.metrics

            answer = self._cached(ob, key, build)
            if joint_config is not self._config:
                self._note_reduced_theta(joint_config.sketch)
            return answer

        return self._submit(
            "joint", runner, qos_class=qos_class, deadline=deadline
        )

    def submit_estimate_spread(
        self,
        seeds: Sequence[int],
        targets: Sequence[int],
        tags: Sequence[str],
        num_samples: int | None = None,
        seed: int = 0,
        deadline: float | None = None,
        max_samples: int | None = None,
        max_rr_members: int | None = None,
        qos_class: str = "interactive",
    ) -> "Future[ServeResponse]":
        """Queue an MC spread estimate (seeds and tags canonicalized).

        Under the ``approximate`` tier the sample count is divided by
        the QoS degrade factor and the response is tagged with a
        Hoeffding 95% half-width for the reduced estimate.
        """
        tags_c = canonical_tags(tags)
        seeds_c = tuple(sorted({int(s) for s in seeds}))
        samples_full = (
            num_samples if num_samples is not None
            else self._config.eval_samples
        )
        tdigest = targets_digest(targets, self._graph.num_nodes)
        targets = tuple(map(int, targets))
        num_targets = len(set(targets))

        def runner(ob):
            budget = self._budget(deadline, max_samples, max_rr_members)
            samples = samples_full
            if self._current_tier() == "approximate":
                samples = max(
                    16, samples_full // self._qos.degrade_theta_factor
                )
            key = AssetKey(
                kind="result",
                targets_digest=tdigest,
                tags=tags_c,
                params=("spread", seeds_c, samples, seed),
                epoch=self._query_epoch(),
            )

            def build():
                with obs.observe() as build_ob:
                    view = self._view(registry=build_ob.metrics)
                    value = estimate_spread(
                        self._graph, seeds_c, targets, tags_c,
                        num_samples=samples, rng=ensure_rng(seed),
                        engine=view, budget=budget,
                    )
                return float(value), 64, build_ob.metrics

            answer = self._cached(ob, key, build)
            if samples != samples_full:
                # Hoeffding: spread ∈ [0, |T|], so the 95% half-width
                # of an n-sample mean is |T|·sqrt(ln(2/0.05) / (2n)).
                half_width = num_targets * math.sqrt(
                    math.log(2.0 / 0.05) / (2.0 * samples)
                )
                self._query_local.item.degrade = {
                    "kind": "reduced_samples",
                    "num_samples": samples,
                    "num_samples_full": samples_full,
                    "ci_width": round(2.0 * half_width, 6),
                }
            return answer

        return self._submit(
            "spread", runner, qos_class=qos_class, deadline=deadline
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        stats = self._cache.stats()
        return (
            f"CampaignServer(graph={self._graph!r}, "
            f"epoch={self._graph_state[1]}, "
            f"cache=[{stats.entries} entries, {stats.bytes} bytes], "
            f"in_system={self._in_system}/{self._capacity})"
        )
