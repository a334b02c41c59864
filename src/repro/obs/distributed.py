"""Fleet-wide distributed tracing (``repro.obs.distributed``).

The sharded campaign service (``repro.serve.shard``) runs a router plus
N worker processes. Observability used to stop at the process boundary:
the router's ``serve.query`` span and the worker's sketch-build spans
lived in different ``Tracer`` instances on different monotonic clocks,
and ``/events`` streams were per-process. This module makes the fleet
observable as *one* system:

``TraceContext``
    The compact propagation record ``(trace_id, parent_span_id)``
    carried on the wire protocol under the private ``"_trace"`` key and
    on the rid-tagged router→worker pipe messages. A worker that
    receives one roots its local spans under the router's query span:
    the ids stitch the cross-process parent link, while in-process
    nesting keeps using ``Tracer.adopt()`` exactly as before.

``TraceCollector``
    The router-side store. Router spans are timed directly on the
    router clock (``begin``/``finish``); worker span bundles arrive
    piggy-backed on replies and are translated onto the router clock
    using the per-worker offset measured at the spawn handshake
    (``offset = router_perf_counter − worker_perf_counter``, re-measured
    on every respawn). ``chrome_trace()`` emits one Chrome trace with
    real pids and ``process_name``/``thread_name`` metadata rows, so
    ``chrome://tracing`` shows the fleet as one timeline.

``merge_event_payloads``
    Causal merge of per-process :class:`~repro.obs.events.EventLog`
    payloads into a single ordered stream (schema
    ``repro.obs.events/2``): every record gains its source ``worker``
    label and the fleet ``epoch``, and records are ordered by wall-clock
    timestamp with a stable ``(worker, seq)`` tiebreak.

``FlightRecorder``
    A bounded ring of "flight records" for the queries worth a
    post-mortem: anything that blew a latency/deadline threshold or
    ended in rejection keeps the QoS decisions that shaped it and, when
    tracing is on, its stitched trace. ``record_query`` builds every
    record, so the in-process server and the shard router leave the
    same shape. Served at ``/debug/slow`` and by ``repro flightrec``.

Clock-alignment honesty: the handshake offset includes the one-way
pipe latency of the ready message, so worker timestamps mapped onto the
router clock can be *late* by that latency (microseconds on one host).
Span durations are unaffected — they are measured on a single clock —
and the bias is positive, so a worker span never appears to start
before the router dispatched it.

Everything here is observability-only: no code path in this module may
influence query answers or work counters. The serving layers guarantee
bit-identical responses with tracing on or off.
"""

from __future__ import annotations

import itertools
import os
import threading
import time
from collections import OrderedDict, deque
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional

__all__ = [
    "FLIGHT_SCHEMA",
    "SPAN_BUNDLE_KEY",
    "TRACE_CONTEXT_KEY",
    "TRACE_SCHEMA",
    "FlightRecorder",
    "TraceCollector",
    "TraceContext",
    "empty_trace_payload",
    "merge_event_payloads",
    "new_span_id",
    "span_bundle_from_tracer",
]

#: Private wire key carrying a serialized :class:`TraceContext` on a
#: request. Stripped before op dispatch so responses and validation
#: behavior are byte-identical with tracing on or off.
TRACE_CONTEXT_KEY = "_trace"

#: Private wire key under which a worker piggy-backs completed span
#: bundles on a reply. The router strips it in its receive loop before
#: the response surfaces, so client-visible responses never change.
SPAN_BUNDLE_KEY = "_spans"

TRACE_SCHEMA = "repro.obs.trace/1"
FLIGHT_SCHEMA = "repro.obs.flight/1"

_SPAN_SEQ = itertools.count(1)


def new_span_id() -> str:
    """Process-unique span id: ``"<pid hex>-<seq hex>"``.

    Ids only need to be unique within one stitched trace; embedding the
    pid keeps router- and worker-generated ids from colliding without
    any cross-process coordination.
    """
    return f"{os.getpid():x}-{next(_SPAN_SEQ):x}"


@dataclass(frozen=True)
class TraceContext:
    """Cross-process trace propagation record.

    ``trace_id`` names the end-to-end query trace; ``parent_span_id``
    is the id of the span (usually the router's ``serve.query``) the
    receiver's local roots should graft under.
    """

    trace_id: str
    parent_span_id: Optional[str] = None

    def as_dict(self) -> Dict[str, Any]:
        payload: Dict[str, Any] = {"trace_id": self.trace_id}
        if self.parent_span_id is not None:
            payload["parent_span_id"] = self.parent_span_id
        return payload

    @classmethod
    def from_dict(cls, payload: Any) -> Optional["TraceContext"]:
        """Parse a wire dict; malformed input yields ``None``, never a
        raised error (a bad trace header must not fail the query)."""
        if not isinstance(payload, Mapping):
            return None
        trace_id = payload.get("trace_id")
        if not isinstance(trace_id, str) or not trace_id:
            return None
        parent = payload.get("parent_span_id")
        if not isinstance(parent, str):
            parent = None
        return cls(trace_id=trace_id, parent_span_id=parent)

    @classmethod
    def pop_from(cls, request: Any) -> Optional["TraceContext"]:
        """Remove and parse the ``"_trace"`` key from a request dict."""
        if not isinstance(request, dict) or TRACE_CONTEXT_KEY not in request:
            return None
        return cls.from_dict(request.pop(TRACE_CONTEXT_KEY))


def span_bundle_from_tracer(
    tracer,
    *,
    parent_span_id: Optional[str] = None,
    worker: Optional[str] = None,
    pid: Optional[int] = None,
    report: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """Package a finished :class:`~repro.obs.trace.Tracer` for shipping.

    The bundle records the tracer's *origin* on the local monotonic
    clock; the collector uses the handshake offset to translate it onto
    the router clock when stitching.
    """
    bundle: Dict[str, Any] = {
        "trace_id": tracer.trace_id,
        "origin": tracer.origin,
        "spans": tracer.as_dicts(),
    }
    if parent_span_id is not None:
        bundle["parent_span_id"] = parent_span_id
    if worker is not None:
        bundle["worker"] = worker
    if pid is not None:
        bundle["pid"] = int(pid)
    if report is not None:
        bundle["report"] = report
    return bundle


class TraceCollector:
    """Bounded per-trace store that stitches fleet spans.

    Thread-safe. Holds at most ``capacity`` traces (oldest evicted) and
    at most ``max_bundles_per_trace`` shipped bundles per trace, so a
    long-lived router cannot grow without bound.
    """

    def __init__(
        self,
        capacity: int = 256,
        *,
        label: str = "router",
        max_bundles_per_trace: int = 64,
    ) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = int(capacity)
        self.label = str(label)
        self.pid = os.getpid()
        self._max_bundles = int(max_bundles_per_trace)
        self._origin = time.perf_counter()
        self._lock = threading.Lock()
        # trace_id -> {"records": [router spans], "bundles": [shipped]}
        self._traces: "OrderedDict[str, Dict[str, List[Any]]]" = OrderedDict()
        self._evicted = 0
        self._dropped_bundles = 0

    # -- ingestion -----------------------------------------------------

    def _entry_locked(self, trace_id: str) -> Dict[str, List[Any]]:
        entry = self._traces.get(trace_id)
        if entry is None:
            while len(self._traces) >= self.capacity:
                self._traces.popitem(last=False)
                self._evicted += 1
            entry = {"records": [], "bundles": []}
            self._traces[trace_id] = entry
        return entry

    def begin(self, name: str, *, trace_id: str, **attrs: Any) -> Dict[str, Any]:
        """Open a local (router-clock) span; returns the live record."""
        record: Dict[str, Any] = {
            "name": name,
            "trace_id": trace_id,
            "span_id": new_span_id(),
            "start": time.perf_counter() - self._origin,
            "duration": None,
            "tid": threading.get_ident() % 1_000_000,
            "attrs": dict(attrs),
        }
        with self._lock:
            self._entry_locked(trace_id)["records"].append(record)
        return record

    def finish(self, record: Dict[str, Any], **attrs: Any) -> None:
        """Close a record returned by :meth:`begin`."""
        end = time.perf_counter() - self._origin
        with self._lock:
            record["duration"] = max(end - record["start"], 0.0)
            if attrs:
                record["attrs"].update(attrs)

    def add_bundle(
        self,
        bundle: Any,
        *,
        offset_seconds: float = 0.0,
        worker: Optional[str] = None,
        pid: Optional[int] = None,
    ) -> None:
        """Ingest a shipped span bundle.

        ``offset_seconds`` is the handshake clock offset of the source
        process (``router_clock − worker_clock``); malformed bundles
        are dropped silently — tracing must never fail a query.
        """
        if not isinstance(bundle, dict):
            return
        trace_id = bundle.get("trace_id")
        spans = bundle.get("spans")
        if not isinstance(trace_id, str) or not isinstance(spans, list):
            return
        stored = dict(bundle)
        if worker is not None:
            stored.setdefault("worker", worker)
        if pid is not None:
            stored.setdefault("pid", int(pid))
        stored["offset_seconds"] = float(offset_seconds)
        with self._lock:
            entry = self._entry_locked(trace_id)
            if len(entry["bundles"]) >= self._max_bundles:
                self._dropped_bundles += 1
                return
            entry["bundles"].append(stored)

    # -- export --------------------------------------------------------

    def trace_ids(self) -> List[str]:
        with self._lock:
            return list(self._traces)

    def stats(self) -> Dict[str, int]:
        with self._lock:
            return {
                "traces": len(self._traces),
                "evicted": self._evicted,
                "dropped_bundles": self._dropped_bundles,
            }

    def chrome_trace(self, trace_id: Optional[str] = None) -> List[Dict[str, Any]]:
        """Stitch stored spans into Chrome trace-event JSON objects.

        Emits ``ph:"X"`` complete events with real pids plus
        ``process_name``/``thread_name`` ``ph:"M"`` metadata rows. Every
        event's ``args`` carries ``trace_id``/``span_id`` and, where a
        parent is known, ``parent_span_id`` — parent links resolve
        within the returned list. All timestamps are on the router
        clock, relative to this collector's creation; durations are
        non-negative by construction.
        """
        from repro.obs.trace import chrome_events_from_dicts

        with self._lock:
            if trace_id is not None:
                entry = self._traces.get(trace_id)
                items = [(trace_id, entry)] if entry is not None else []
            else:
                items = list(self._traces.items())
            snapshot = [
                (tid, list(entry["records"]), list(entry["bundles"]))
                for tid, entry in items
            ]

        events: List[Dict[str, Any]] = []
        # pid -> display label, (pid, tid) -> thread label
        processes: Dict[int, str] = {self.pid: self.label}
        threads: Dict[Any, str] = {}
        for tid, records, bundles in snapshot:
            for record in records:
                duration = record["duration"]
                args = dict(record["attrs"])
                args.setdefault("trace_id", record["trace_id"])
                args.setdefault("span_id", record["span_id"])
                events.append(
                    {
                        "name": record["name"],
                        "cat": "serve",
                        "ph": "X",
                        "ts": max(record["start"], 0.0) * 1e6,
                        "dur": max(duration or 0.0, 0.0) * 1e6,
                        "pid": self.pid,
                        "tid": record["tid"],
                        "args": args,
                    }
                )
                threads.setdefault((self.pid, record["tid"]), self.label)
            for bundle in bundles:
                pid = int(bundle.get("pid") or self.pid)
                label = str(bundle.get("worker") or self.label)
                base = (
                    float(bundle.get("origin") or 0.0)
                    + float(bundle.get("offset_seconds") or 0.0)
                    - self._origin
                )
                bundle_tid = int(bundle.get("tid") or 0)
                events.extend(
                    chrome_events_from_dicts(
                        bundle["spans"],
                        trace_id=tid,
                        pid=pid,
                        tid=bundle_tid,
                        ts_offset_seconds=base,
                        parent_span_id=bundle.get("parent_span_id"),
                        id_factory=new_span_id,
                    )
                )
                processes.setdefault(pid, label)
                threads.setdefault((pid, bundle_tid), label)

        metadata: List[Dict[str, Any]] = []
        for pid, label in sorted(processes.items()):
            display = label if pid == self.pid else f"{label} (pid {pid})"
            metadata.append(
                {
                    "name": "process_name",
                    "ph": "M",
                    "pid": pid,
                    "tid": 0,
                    "args": {"name": display},
                }
            )
        for (pid, thread), label in sorted(threads.items()):
            metadata.append(
                {
                    "name": "thread_name",
                    "ph": "M",
                    "pid": pid,
                    "tid": thread,
                    "args": {"name": label},
                }
            )
        return metadata + events

    def payload(self, trace_id: Optional[str] = None) -> Dict[str, Any]:
        """JSON document for the ``/trace`` debug endpoint."""
        stats = self.stats()
        return {
            "schema": TRACE_SCHEMA,
            "enabled": True,
            "traces": stats["traces"],
            "evicted": stats["evicted"],
            "dropped_bundles": stats["dropped_bundles"],
            "events": self.chrome_trace(trace_id),
        }


def empty_trace_payload() -> Dict[str, Any]:
    """The ``/trace`` document served when tracing is disabled."""
    return {"schema": TRACE_SCHEMA, "enabled": False, "traces": 0,
            "events": []}


def merge_event_payloads(
    payloads: Mapping[str, Any],
    *,
    epoch: Optional[int] = None,
    limit: Optional[int] = None,
) -> Dict[str, Any]:
    """Merge per-process event payloads into one causal stream.

    ``payloads`` maps a source label (``"router"``, ``"w0"``, …) to that
    process's :meth:`EventLog.payload` dict — or ``None`` for a source
    that could not be scraped (worker died mid-merge), which becomes a
    labeled gap in ``sources`` rather than an error.

    Every merged record gains ``worker`` (source label) and ``epoch``
    (the record's own epoch attribute when it has one, else the fleet
    epoch passed by the router) — this is the ``repro.obs.events/2``
    record shape. Ordering is by wall-clock ``ts`` with a stable
    ``(worker, seq)`` tiebreak: within one source that preserves emit
    order exactly, across sources it is causal to clock resolution.
    """
    from repro.obs.events import EVENTS_SCHEMA

    fleet_epoch = int(epoch) if epoch is not None else 0
    sources: Dict[str, Dict[str, Any]] = {}
    merged: List[Dict[str, Any]] = []
    capacity = total = dropped = sink_errors = 0
    unreachable = 0
    for label in sorted(payloads):
        payload = payloads[label]
        if not isinstance(payload, dict):
            sources[label] = {"unreachable": True}
            unreachable += 1
            continue
        events = [e for e in (payload.get("events") or [])
                  if isinstance(e, dict)]
        sources[label] = {
            "events": len(events),
            "total": int(payload.get("total") or 0),
            "dropped": int(payload.get("dropped") or 0),
        }
        capacity += int(payload.get("capacity") or 0)
        total += int(payload.get("total") or 0)
        dropped += int(payload.get("dropped") or 0)
        sink_errors += int(payload.get("sink_errors") or 0)
        for event in events:
            record = dict(event)
            record["worker"] = label
            if "epoch" not in record:
                attrs = record.get("attrs")
                attr_epoch = (
                    attrs.get("epoch") if isinstance(attrs, dict) else None
                )
                record["epoch"] = (
                    int(attr_epoch)
                    if isinstance(attr_epoch, int)
                    else fleet_epoch
                )
            merged.append(record)
    merged.sort(
        key=lambda r: (
            float(r.get("ts") or 0.0),
            str(r.get("worker") or ""),
            int(r.get("seq") or 0),
        )
    )
    if limit is not None and limit >= 0:
        merged = merged[-limit:] if limit else []
    return {
        "schema": EVENTS_SCHEMA,
        "capacity": capacity,
        "total": total,
        "dropped": dropped,
        "sink_errors": sink_errors,
        "unreachable_sources": unreachable,
        "sources": sources,
        "events": merged,
    }


class FlightRecorder:
    """Bounded ring of flight records for queries worth a post-mortem.

    A query qualifies when it ends in rejection/cancellation, misses an
    explicit deadline, or (when ``slow_ms`` is set) simply runs longer
    than the threshold. Callers decide *what* to attach — typically the
    stitched trace, the per-phase report, and the QoS decisions that
    shaped the query — the recorder only bounds and serves them.

    Thread-safe; recording is a lock-append, cheap enough to leave on
    unconditionally.
    """

    def __init__(
        self,
        capacity: int = 64,
        *,
        slow_ms: Optional[float] = None,
    ) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = int(capacity)
        self.slow_ms = float(slow_ms) if slow_ms is not None else None
        self._ring: "deque[Dict[str, Any]]" = deque(maxlen=self.capacity)
        self._lock = threading.Lock()
        self._total = 0

    def should_record(
        self,
        *,
        elapsed_ms: Optional[float] = None,
        deadline_ms: Optional[float] = None,
        failed: bool = False,
    ) -> bool:
        """Whether a completed query qualifies for a flight record."""
        if failed:
            return True
        if elapsed_ms is None:
            return False
        if deadline_ms is not None and elapsed_ms > deadline_ms:
            return True
        return self.slow_ms is not None and elapsed_ms >= self.slow_ms

    def record(self, *, reason: str, **fields: Any) -> Dict[str, Any]:
        """Append one flight record; ``None``-valued fields are elided."""
        entry: Dict[str, Any] = {"ts": time.time(), "reason": str(reason)}
        for key, value in fields.items():
            if value is not None:
                entry[key] = value
        with self._lock:
            self._ring.append(entry)
            self._total += 1
        return entry

    def record_query(
        self,
        outcome: str,
        *,
        op: Optional[str],
        trace_id: Optional[str],
        qos_class: str,
        elapsed_ms: float,
        deadline_ms: Optional[float] = None,
        queue_wait_ms: Optional[float] = None,
        tier: Optional[str] = None,
        cache: Optional[str] = None,
        epoch: Optional[int] = None,
        degraded: Optional[Dict[str, Any]] = None,
        cause: Optional[Dict[str, Any]] = None,
        trace: Any = None,
    ) -> Optional[Dict[str, Any]]:
        """Flight-record one finished query if it qualifies.

        The one function that builds query flight records, for the
        in-process server and the shard router alike. ``outcome`` is ``"ok"``,
        ``"rejected"``, ``"cancelled"`` or ``"failed"``. Rejections and
        cancellations are always recorded under that reason; an ok query
        is recorded as ``deadline_miss`` or ``slow`` when
        :meth:`should_record` says so; a failed one never is (a
        validation or internal error is counted by ``serve.errors``, it
        is not a serving incident). ``cause`` carries the outcome's own
        fields: ``code`` / ``phase`` / ``retry_after_ms`` for a
        rejection, ``error`` (and ``salvaged``) for a cancellation.
        ``trace`` may be a zero-argument callable, so a stitched trace
        is only built for a query that is recorded.
        """
        if outcome == "failed" or not self.should_record(
            elapsed_ms=elapsed_ms, deadline_ms=deadline_ms,
            failed=outcome != "ok",
        ):
            return None
        missed = deadline_ms is not None and elapsed_ms > deadline_ms
        reason = outcome if outcome != "ok" else (
            "deadline_miss" if missed else "slow"
        )
        decisions: Dict[str, Any] = {
            "class": qos_class, "tier": tier, "cache": cache,
            "epoch": epoch, "degraded": degraded,
        }
        if queue_wait_ms is not None:
            decisions["queue_wait_ms"] = round(queue_wait_ms, 3)
        return self.record(
            reason=reason,
            op=op,
            trace_id=trace_id,
            elapsed_ms=round(elapsed_ms, 3),
            deadline_ms=deadline_ms,
            **(cause or {}),
            decisions=decisions,
            trace=trace() if callable(trace) else trace,
        )

    def snapshot(self, limit: Optional[int] = None) -> List[Dict[str, Any]]:
        """Oldest-first copy of the retained records."""
        with self._lock:
            records = list(self._ring)
        if limit is not None and limit >= 0:
            records = records[-limit:] if limit else []
        return records

    def __len__(self) -> int:
        with self._lock:
            return len(self._ring)

    def payload(self, limit: Optional[int] = None) -> Dict[str, Any]:
        """JSON document for ``/debug/slow`` and ``repro flightrec``."""
        with self._lock:
            total = self._total
        return {
            "schema": FLIGHT_SCHEMA,
            "capacity": self.capacity,
            "slow_ms": self.slow_ms,
            "total": total,
            "records": self.snapshot(limit),
        }
